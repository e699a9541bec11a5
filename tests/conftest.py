"""Shared helpers: the projectors of normalized kets, the one-state
eigensolver PGM that the closed-form build is checked against, reproducible
random states for property tests, the
Kraus sums and the two-mode dilation of thermal loss that the channels'
transfer matrices are checked against, the state-per-row PMD recurrence
that the PMD kernel is checked against bit for bit, a channel's map of
a complex stack through the row path, the complex
trace product that the row scores are checked against, the score-based
Born sampler that the cumulative POVM sampler is checked against label
for label, and the per-symbol SER/BER and the dense (M, M + 1) confusion
count and Hamming table that ``error_counts`` is checked against."""

import numpy as np

from qlinksim import DensityMatrix, state_rows
from qlinksim.detection import EIG_CUT
from qlinksim.states import TOL, InvalidStateError, check_structure, from_rows


def make_pure_states(kets) -> np.ndarray:
    """Read-only (n, d, d) stack of the rank-1 projectors |v><v| of an (n, d)
    array of normalized kets, d = 2 (a qubit) or 3 (a qubit and a flag).

    Each ket must be of unit norm within ``TOL``, and the projectors pass
    ``check_structure``, which rejects non-finite kets and other lengths;
    unit trace and positivity hold by construction and are left to the
    stack's crossing into rows, ``state_rows``.  Each norm is
    sqrt(re.re + im.im) through the same BLAS dot that ``np.linalg.norm``
    takes for one vector, so every projector has the bits of the one-ket
    arithmetic.
    """
    kets = np.asarray(kets, dtype=complex)
    if kets.ndim != 2:
        raise InvalidStateError(f"kets must be an (n, d) array, got shape {kets.shape}")
    re, im = kets.real, kets.imag
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    off = np.abs(norms - 1.0) > TOL
    if np.any(off):
        raise InvalidStateError(f"amplitude vector norm {float(norms[np.argmax(off)])!r} is not 1")
    v = kets / norms[:, None]
    mats = check_structure(v[:, :, None] * v.conj()[:, None, :], "pure states")
    mats.flags.writeable = False
    return mats


def hermitize(m) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack: (m + m^dagger) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def inv_sqrt_psd(m) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian matrix by ``np.linalg.eigh``:
    eigenvalues <= EIG_CUT map to 0, else to 1/sqrt."""
    vals, vecs = np.linalg.eigh(hermitize(m))
    support = vals > EIG_CUT
    inv = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return hermitize((vecs * inv) @ vecs.conj().T)


def one_state_pgm(mats, priors) -> list:
    """The PGM of states ``mats`` with ``priors``, one state at a time
    through the eigensolver: p_i S rho_i S, S = rhobar^(-1/2)."""
    rhobar = np.zeros(mats.shape[1:], dtype=complex)
    for p, mat in zip(priors, mats):
        rhobar += p * mat
    s = inv_sqrt_psd(rhobar)
    return [hermitize(p * (s @ mat @ s)) for p, mat in zip(priors, mats)]


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """A random state on a qubit (dim 2), or on a qubit and an erasure flag
    (dim 3) with the two uncoupled: the coupling of a random positive
    matrix is zeroed, which keeps it positive."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    m[:2, 2:] = m[2:, :2] = 0.0
    return DensityMatrix(m / np.trace(m).real)


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_pure_states([v / np.linalg.norm(v)])[0]


def pure(*amplitudes) -> np.ndarray:
    """The checked projector |v><v| of one normalized amplitude vector."""
    return make_pure_states([amplitudes])[0]


def purity(mats) -> np.ndarray:
    """Tr(rho^2) of a (d, d) matrix or of each matrix of a stack."""
    mats = np.asarray(mats)
    return np.einsum("...ij,...ji->...", mats, mats).real


def thermal_reference(n_th, d):
    """Thermal state on d Fock levels, geometric weights renormalized on the cutoff."""
    weights = (n_th / (1.0 + n_th)) ** np.arange(d)
    return np.diag(weights / weights.sum()).astype(complex)


def beamsplitter_reference(eta, d):
    """Two-mode beamsplitter exp(theta (a^dag b - a b^dag)), cos^2(theta) = eta,
    on d Fock levels per mode, through an eigendecomposition of i times the
    anti-Hermitian generator."""
    theta = np.arccos(np.sqrt(eta))
    a = np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)
    gen = theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    vals, vecs = np.linalg.eigh(1j * gen)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def dilation_reference(eta, n_th, mats):
    """Couple each (d, d) state to a thermal environment on a beamsplitter and
    trace the environment out."""
    d = mats.shape[-1]
    u, env = beamsplitter_reference(eta, d), thermal_reference(n_th, d)
    # Stacked kron(rho, env): axes (state, i, k, j, l) -> rows i*d+k, columns j*d+l.
    joint = (mats[:, :, None, :, None] * env[None, None, :, None, :]).reshape(-1, d * d, d * d)
    joint = u @ joint @ u.conj().T
    return np.trace(joint.reshape(-1, d, d, d, d), axis1=2, axis2=4)


PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])], dtype=complex)


def kraus_reference(kraus, mats):
    """sum_k K_k rho K_k^dagger of each state of a (n, d, d) stack, for a
    (m, d_out, d) stack of Kraus operators."""
    kraus = np.asarray(kraus, dtype=complex)
    return np.einsum("kij,njl,kml->nim", kraus, mats, kraus.conj())


def transfer_reference(channel_map):
    """The 4x4 matrix that a linear map of (n, 2, 2) stacks applies to rows:
    column j is the row of the map's output on Pauli_j / 2."""
    out = channel_map(PAULI / 2.0)
    t = out[:, 0, 0] + out[:, 1, 1]
    return np.stack([t, 2 * out[:, 0, 1].real, -2 * out[:, 0, 1].imag, out[:, 0, 0] - out[:, 1, 1]]).real


def apply_stack(channel, mats, rng=None) -> np.ndarray:
    """The (n, output_dim, output_dim) stack of ``channel`` on a (n, 2, 2)
    stack of states: in through ``state_rows``, ``apply_rows``, and out
    through ``from_rows``."""
    return from_rows(channel.apply_rows(state_rows(mats, 2), rng), channel.output_dim)


def trace_product_scores(povm, mats):
    """(n, K) Tr(E_k rho) as the complex (n, d^2) @ (d^2, K) product of the
    transposed states with the flattened elements, real part."""
    mats = np.asarray(mats, dtype=complex)
    rho_t = mats.swapaxes(-1, -2).reshape(len(mats), -1)
    return (rho_t @ povm.elements.reshape(len(povm.rows), -1).T).real


def pmd_rows_reference(cfg, mats, rng):
    """PMD on an (n, 3) Bloch stack, one state per row: per section, draw
    (n, 3) standard normals, normalize each row with ``np.linalg.norm`` and
    apply r -> nu r + (1 - nu)(n.r) n."""
    tau_sec = cfg.dgd / np.sqrt(cfg.n_sections)
    nu = float(np.exp(-((cfg.sigma_omega * tau_sec) ** 2) / 2.0))
    r = state_rows(mats, 2)[:, 1:]
    for _ in range(cfg.n_sections):
        axis = rng.standard_normal((len(mats), 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        r = nu * r + (1.0 - nu) * np.sum(axis * r, axis=1, keepdims=True) * axis
    trace = np.trace(mats, axis1=1, axis2=2).real
    out = np.empty_like(mats)
    out[:, 0, 0] = (trace + r[:, 2]) / 2.0
    out[:, 1, 1] = (trace - r[:, 2]) / 2.0
    out[:, 0, 1] = (r[:, 0] - 1j * r[:, 1]) / 2.0
    out[:, 1, 0] = (r[:, 0] + 1j * r[:, 1]) / 2.0
    return out


def score_sample_labels(povm, scores, rng):
    """Born-rule labels from (n, K) outcome probabilities: the clipped scores
    divided by their row sums, summed cumulatively and normalized in one
    buffer, and one uniform per row counted against its CDF row."""
    if scores.min(initial=0.0) < -TOL:
        raise ValueError(f"negative outcome probability {scores.min():.3e}")
    cdf = np.maximum(scores, 0.0)
    totals = cdf.sum(axis=1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals.flat[off.argmax()])!r}, not 1")
    cdf /= totals
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:].copy()
    draws = rng.random(len(cdf))
    return np.asarray(povm.labels)[np.count_nonzero(cdf <= draws[:, None], axis=1)]


def _mismatches(tx, rx, what: str) -> tuple[int, int]:
    tx = np.asarray(tx, dtype=int)
    rx = np.asarray(rx, dtype=int)
    if tx.ndim != 1 or rx.ndim != 1:
        raise ValueError(f"{what} sequences must be one-dimensional")
    if tx.size == 0:
        raise ValueError(f"cannot compute a rate over zero {what}s")
    if tx.size != rx.size:
        raise ValueError(f"{what} sequences differ in length: {tx.size} vs {rx.size}")
    if tx.min(initial=0) < 0:
        raise ValueError(f"transmitted {what}s must be nonnegative; -1 is receive-only")
    return int(np.count_nonzero(tx != rx)), int(tx.size)


def compute_ser(tx_symbols, rx_symbols) -> tuple[float, int]:
    """Symbol error rate and error count of two symbol sequences; an erased
    (-1) reception never matches, so it is an error."""
    errors, n = _mismatches(tx_symbols, rx_symbols, "symbol")
    return errors / n, errors


def compute_ber(tx_bits, rx_bits) -> tuple[float, int]:
    """Bit error rate and error count over flattened bit sequences."""
    tx = np.asarray(tx_bits, dtype=int).ravel()
    rx = np.asarray(rx_bits, dtype=int).ravel()
    errors, n = _mismatches(tx, rx, "bit")
    return errors / n, errors


def bit_table(codebook) -> np.ndarray:
    """The codebook's (M, bits) labels and a last row of -1 for the erasure label."""
    labels = codebook.bit_labels
    return np.vstack([labels, np.full((1, labels.shape[1]), -1)])


def symbols_to_bits(symbols, codebook) -> np.ndarray:
    """Expand symbol indices to bit rows; the erasure label -1 expands to all -1."""
    symbols = np.asarray(symbols, dtype=int)
    if symbols.size and (symbols.min() < -1 or symbols.max() >= codebook.M):
        raise ValueError(
            f"symbol indices must be in [-1, {codebook.M - 1}], "
            f"got range [{symbols.min()}, {symbols.max()}]"
        )
    # Row M is the expansion of the erasure label, addressed as index -1.
    return bit_table(codebook)[symbols]


def confusion_matrix(tx_symbols, rx_labels, M: int) -> np.ndarray:
    """(M, M + 1) count of (transmitted symbol, received label) pairs: row m
    counts the receptions of symbol m, column j < M label j and column M the
    erasure label -1."""
    tx, rx = np.asarray(tx_symbols, dtype=np.intp), np.asarray(rx_labels, dtype=np.intp)
    # -1 % (M + 1) is M: the erasure label lands in the last column.
    flat = tx * (M + 1) + rx % (M + 1)
    return np.bincount(flat, minlength=M * (M + 1)).reshape(M, M + 1)


def hamming_table(bit_labels) -> np.ndarray:
    """(M, M + 1) number of bits in which label j's bit row differs from
    symbol m's; column M, the erasure label, differs in every bit."""
    labels = np.asarray(bit_labels)
    hamming = np.empty((len(labels), len(labels) + 1), dtype=np.intp)
    hamming[:, :-1] = np.count_nonzero(labels[:, None, :] != labels[None, :, :], axis=2)
    hamming[:, -1] = labels.shape[1]
    return hamming


def dense_error_counts(confusion, hamming):
    """``(ser, symbol errors), (ber, bit errors), erasures`` read off a
    :func:`confusion_matrix` and the :func:`hamming_table` of its codebook."""
    n = int(confusion.sum())
    symbol_errors = n - int(np.trace(confusion))
    bit_errors = int(np.vdot(confusion, hamming))
    bits = n * int(hamming[0, -1])
    erasures = int(confusion[:, -1].sum())
    return (symbol_errors / n, symbol_errors), (bit_errors / bits, bit_errors), erasures
