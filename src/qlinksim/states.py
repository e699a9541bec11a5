"""Density-matrix states and the linear-algebra primitives shared by all modules.

States cross module boundaries as (n, d, d) stacks checked by
:func:`check_states`: finite, Hermitian, positive-semidefinite, unit-trace
complex matrices.  The check symmetrizes its input once and tests every
invariant with one vectorized pass over the stack, so downstream code
never has to re-verify what it receives.  The spectrum test takes each
matrix's smallest eigenvalue from :func:`min_eigenvalues`, which uses the
closed-form qubit spectrum for 2x2 stacks and LAPACK only for larger ones.
A checked stack that is shared, such as a codebook's, is marked read-only.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance of every state invariant (Hermiticity, trace, spectrum).
TOL = 1e-9
# Eigenvalues at or below this are outside the support in inv_sqrt_psd.
EIG_CUT = 1e-10


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state contract."""


class DegenerateStateError(InvalidStateError):
    """An operator has no numerical support above the eigenvalue cutoff."""


def hermitize(m) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack: (m + m^dagger) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def min_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a hermitized (n, d, d) stack.

    A qubit [[a, b], [b*, d]] has the closed-form spectrum
    (a + d)/2 -+ hypot((a - d)/2, |b|), so 2x2 stacks need no LAPACK call;
    other dimensions go through ``np.linalg.eigvalsh``.
    """
    if sym.shape[-1] != 2:
        return np.linalg.eigvalsh(sym)[..., 0]
    a, d = sym[:, 0, 0].real, sym[:, 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(sym[:, 0, 1]))


def check_states(mats) -> np.ndarray:
    """Hermitize a (n, d, d) stack of states and check each one's invariants.

    Every entry must be finite, each matrix Hermitian within ``TOL``
    before symmetrization, and each symmetrized matrix of unit trace and
    nonnegative spectrum within ``TOL``.  The first violation over the
    whole stack raises :class:`InvalidStateError`.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
        raise InvalidStateError(
            f"density matrix must be square and nonempty, got shape {mats.shape[1:]}"
        )
    if not np.all(np.isfinite(mats)):
        raise InvalidStateError("density matrix entries must be finite")
    adjoint = mats.conj().swapaxes(-1, -2)
    herm_dev = float(np.max(np.abs(mats - adjoint), initial=0.0))
    if herm_dev > TOL:
        raise InvalidStateError(
            f"not Hermitian: max |m - m^dagger| = {herm_dev:.3e} exceeds {TOL:.1e}"
        )
    sym = (mats + adjoint) / 2.0
    traces = np.trace(sym, axis1=1, axis2=2).real
    trace_dev = float(np.max(np.abs(traces - 1.0), initial=0.0))
    if trace_dev > TOL:
        raise InvalidStateError(
            f"trace deviates from 1 by {trace_dev:.3e}, exceeds {TOL:.1e}"
        )
    min_eig = float(np.min(min_eigenvalues(sym), initial=0.0))
    if min_eig < -TOL:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} below -{TOL:.1e}"
        )
    return sym


class DensityMatrix:
    """Validated quantum state.

    The wrapped matrix goes through :func:`check_states` as a stack of
    one: it is hermitized and then required to be finite, of unit trace
    and of nonnegative spectrum within ``TOL``.  The stored array is
    marked read-only, so instances are safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        sym = check_states(np.asarray(mat, dtype=complex)[np.newaxis])
        sym.flags.writeable = False
        self.mat = sym[0]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def make_pure_states(kets) -> np.ndarray:
    """Read-only (n, d, d) stack of the rank-1 projectors |v><v| of normalized
    amplitude vectors, checked once by :func:`check_states`.

    Each norm is sqrt(re.re + im.im) through the same BLAS dot that
    ``np.linalg.norm`` takes for one vector, so every projector has the
    bits of the one-ket arithmetic.
    """
    kets = np.asarray(kets, dtype=complex)
    kets = kets.reshape(len(kets), -1)
    re, im = kets.real, kets.imag
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    off = np.abs(norms - 1.0) > TOL
    if np.any(off):
        raise InvalidStateError(f"amplitude vector norm {float(norms[np.argmax(off)])!r} is not 1")
    v = kets / norms[:, None]
    mats = check_states(v[:, :, None] * v.conj()[:, None, :])
    mats.flags.writeable = False
    return mats


def inv_sqrt_psd(m) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues <= EIG_CUT map to 0, else to 1/sqrt.

    The fixed cutoff keeps detector construction deterministic when the
    input is nearly singular.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(
            f"inverse square root requires a square matrix, got shape {m.shape}"
        )
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > TOL:
        raise InvalidStateError(
            f"inverse square root requires a Hermitian matrix (deviation {herm_dev:.3e})"
        )
    vals, vecs = np.linalg.eigh(hermitize(m))
    support = vals > EIG_CUT
    if not np.any(support):
        raise DegenerateStateError(
            f"all eigenvalues at or below cutoff {EIG_CUT:.1e}; no support to invert"
        )
    inv = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return hermitize((vecs * inv) @ vecs.conj().T)


def bloch_xyz(mats) -> np.ndarray:
    """(n, 3) Bloch coordinates of a (n, 2, 2) stack of qubit matrices."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise ValueError(f"Bloch coordinates are defined for dim 2, got shape {mats.shape}")
    return np.stack(
        [
            2.0 * mats[:, 0, 1].real,
            -2.0 * mats[:, 0, 1].imag,
            mats[:, 0, 0].real - mats[:, 1, 1].real,
        ],
        axis=1,
    )


def leading_blocks(mats) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized top-left 2x2 blocks of a (n, d, d) stack, and their traces.

    The traces let callers flag depleted states: blocks whose trace falls
    below ``TOL`` carry no information and are replaced by the maximally
    mixed qubit (not an error).
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-1] < 2:
        raise ValueError(f"need dim >= 2 to take a qubit block, got dim {mats.shape[-1]}")
    block = mats[:, :2, :2]
    traces = np.trace(block, axis1=1, axis2=2).real
    depleted = traces < TOL
    scaled = block / np.where(depleted, 1.0, traces)[:, None, None]
    scaled[depleted] = np.eye(2) / 2.0
    return hermitize(scaled), traces
