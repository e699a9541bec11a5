"""Square-root-measurement detection.

The detector for a codebook {p_i, rho_i} is the pretty-good measurement

    E_i = p_i  S rho_i S,   S = rhobar^(-1/2),   rhobar = sum_i p_i rho_i,

completed on the support of rhobar.  A POVM is one read-only (K, d, d)
element stack, validated once: each element's smallest eigenvalue comes from
:func:`~qlinksim.states.min_eigenvalues`, the closed-form qubit spectrum for
2x2 elements and LAPACK for the enlarged (erasure) ones.
:func:`score_states` computes the outcome probabilities Tr(E_i rho) of a
(n, d, d) stack of states in one pass, and decisions are their row-wise
argmax (:func:`argmax_labels`) by default.  Born-rule sampling
(:func:`sample_labels`) is an explicit opt-in that needs no scores: a CDF
value Tr(F_k rho) of the cumulative POVM F_k = E_0 + ... + E_k is linear in
the state, so each draw binary-searches its uniform among the outcomes with
one row-wise dot per step, and no (n, K) array is formed.  For states
repeated many times (a deterministic channel's outputs) it builds one CDF
row per distinct state and searches each draw in its state's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import DetectorCodebook
from .states import TOL, DensityMatrix, check_states, hermitize, inv_sqrt_psd, min_eigenvalues


@dataclass(frozen=True, eq=False)
class POVM:
    """Validated measurement: PSD elements summing to the identity.

    ``elements`` is a (K, d, d) stack (a sequence of K matrices is stacked),
    checked once and kept hermitized and read-only.  ``labels[i]`` is the
    symbol decision reported when element i fires; the erasure outcome
    carries the label -1.
    """

    elements: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("POVM needs at least one element")
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element required")
        elements = np.asarray(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise ValueError("POVM elements must share one square shape")
        if not np.all(np.isfinite(elements)):
            raise ValueError("POVM elements must be finite")
        herm_dev = float(np.max(np.abs(elements - elements.conj().swapaxes(-1, -2))))
        if herm_dev > TOL:
            raise ValueError(f"POVM element not Hermitian (deviation {herm_dev:.3e})")
        elements = hermitize(elements)
        min_eig = float(np.min(min_eigenvalues(elements)))
        if min_eig < -TOL:
            raise ValueError(f"POVM element not PSD (min eigenvalue {min_eig:.3e})")
        comp_dev = float(np.max(np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1]))))
        if comp_dev > TOL:
            raise ValueError(
                f"POVM does not resolve the identity (deviation {comp_dev:.3e})"
            )
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def score_states(povm: POVM, mats) -> np.ndarray:
    """(n, K) outcome probabilities Tr(E_k rho) of a (n, d, d) stack of states.

    Tr(E_k rho) = sum_ij E_k[i, j] rho[j, i], so the whole stack is one
    (n, d^2) @ (d^2, K) product and no (n, K, d, d) intermediate is formed.
    A state's scores do not depend on the batch around it: every row goes
    through the same matrix-matrix kernel.  A single state is scored as
    the first row of a two-row product, since a one-row product would take
    BLAS's matrix-vector path, whose roundoff differs.  The real parts are
    returned as their own contiguous array, so the complex product, twice
    their size, is freed before the scores are decided on.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-1] != povm.dim:
        raise ValueError(f"state dim {mats.shape[-1]} does not match POVM dim {povm.dim}")
    rho_t = mats.swapaxes(-1, -2).reshape(len(mats), -1)
    elements = povm.elements.reshape(povm.n_outcomes, -1).T
    if len(rho_t) == 1:
        scores = (np.concatenate([rho_t, rho_t]) @ elements)[:1]
    else:
        scores = rho_t @ elements
    # The (n, K) |imaginary part| array is freed before the real parts are
    # copied out, so it does not raise the peak; one pass over the strided
    # imaginary parts is cheaper than two reductions of them.
    imag = float(np.abs(scores.imag).max(initial=0.0))
    if imag > TOL:
        raise ValueError(f"non-real outcome probabilities (imaginary part {imag:.3e})")
    return np.ascontiguousarray(scores.real)


def measurement_scores(povm: POVM, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities Tr(E_i rho) as a real vector."""
    return score_states(povm, rho.mat[np.newaxis])[0]


def build_pgm(codebook: DetectorCodebook) -> POVM:
    """Pretty-good measurement for the codebook's states and priors, computed on
    the whole stack in the one-state order, so each element has the same bits."""
    p, mats = codebook.priors[:, None, None], codebook.mats
    s = inv_sqrt_psd((p * mats).sum(axis=0))
    try:
        return POVM(elements=p * (s @ mats @ s), labels=tuple(range(codebook.M)))
    except ValueError as err:
        # Completeness fails exactly when rhobar is rank-deficient, i.e. the
        # reference states do not span the space the detector acts on.
        raise ValueError(
            "pretty-good measurement is incomplete: the codebook states do not "
            f"span the full {codebook.dim}-dimensional space ({err})"
        ) from err


def embed_povm_with_erasure(povm: POVM, out_dim: int) -> POVM:
    """Zero-pad a POVM to a larger space; the residual becomes the erasure outcome.

    The padded elements act as before on the original subspace and vanish
    on the new directions, so E_era = I - sum_i E_i is automatically PSD
    (up to roundoff, which is clipped).
    """
    if out_dim <= povm.dim:
        raise ValueError(f"target dim {out_dim} must exceed current POVM dim {povm.dim}")
    padded = np.zeros((povm.n_outcomes + 1, out_dim, out_dim), dtype=complex)
    padded[:-1, : povm.dim, : povm.dim] = povm.elements
    # The padded elements are exactly Hermitian, and so is the residual.
    vals, vecs = np.linalg.eigh(np.eye(out_dim) - padded[:-1].sum(axis=0))
    if float(vals[0]) < -TOL:
        raise ValueError(f"erasure completion is not PSD (min eigenvalue {vals[0]:.3e})")
    padded[-1] = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    return POVM(elements=padded, labels=povm.labels + (-1,))


def argmax_labels(povm: POVM, scores: np.ndarray) -> np.ndarray:
    """Hard decisions: the label of each row's highest-probability outcome.

    np.argmax returns the first maximum, so exact ties resolve to the
    lowest-index element deterministically.
    """
    return np.asarray(povm.labels)[np.argmax(scores, axis=1)]


def sample_labels(
    povm: POVM, mats, rng: np.random.Generator, index: np.ndarray | None = None
) -> np.ndarray:
    """Born-rule decisions drawn straight from a (n, d, d) stack of states.

    Outcome k's CDF value for a state rho is Tr(F_k rho), with F_k = E_0 +
    ... + E_k the cumulative POVM: a real dot of the float views of two
    Hermitian matrices, so no score row is formed.  Each draw takes one
    uniform u from ``rng``, in order, and returns the first outcome whose
    CDF value exceeds u times the total Tr(F_{K-1} rho), or the last
    outcome if none before it does.  The search takes ceil(log2 K) halving
    steps of one gather and one row-wise dot each.  Its table holds F_0 ..
    F_{K-2} and then 2 I up to the next power of two, whose value 2 exceeds
    every target, so no label leaves the range.  A row's dot does not
    depend on the rows around it, so the labels do not depend on how the
    states are batched.  The states go through
    :func:`~qlinksim.states.check_states`, and a total off 1 by more than
    1e-6 is rejected.

    Without ``index`` there is one draw per state.  With it, ``mats`` holds
    one state per distinct outcome of a deterministic channel and draw i is
    for state ``index[i]``: only the states that occur are checked, their
    CDF table is built with the same row-wise dots, and the search reads
    its values from that table, so the labels equal
    ``sample_labels(povm, mats[index], rng)`` by construction.
    """
    k, d = povm.n_outcomes, povm.dim
    width = 1 << (k - 1).bit_length()
    cumulative = np.cumsum(povm.elements, axis=0)
    search = _float_rows(
        np.concatenate([cumulative[:-1], np.broadcast_to(2.0 * np.eye(d), (width - k + 1, d, d))])
    )
    total = _float_rows(cumulative[-1:])
    # Draw i searches the positions start[i] .. start[i] + width - 1: those
    # of its own state, or its state's block of the per-state table.
    if index is None:
        states = _float_rows(_checked(povm, mats))
        start = np.zeros(len(states), dtype=np.intp)
        totals = _row_dots(total.take(start, axis=0), states)

        def cdf(at):
            return _row_dots(search.take(at, axis=0), states)

    else:
        mats = np.asarray(mats)
        sent = np.flatnonzero(np.bincount(index, minlength=len(mats)))
        states = _float_rows(_checked(povm, mats[sent]))
        block = np.empty(len(mats), dtype=np.intp)
        block[sent] = np.arange(len(sent))
        start = block[index]
        totals = _row_dots(np.tile(total, (len(sent), 1)), states).take(start)
        start *= width
        cdf = _row_dots(np.tile(search, (len(sent), 1)), np.repeat(states, width, axis=0)).take

    _check_totals(totals)
    # Each draw's target u * total, in its total's buffer.
    targets = totals
    targets *= rng.random(len(targets))
    # A step moves a draw forward by the step length while the last position
    # it would pass is still at or below its target.
    step = width >> 1
    while step:
        start += (cdf(start + (step - 1)) <= targets) * step
        step >>= 1
    return np.asarray(povm.labels).take(start & (width - 1))


def _check_totals(totals: np.ndarray) -> None:
    """Reject a state whose outcome probabilities do not sum to 1 within 1e-6."""
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals[off.argmax()])!r}, not 1")


def _checked(povm: POVM, mats) -> np.ndarray:
    """The hermitized, checked stack of states a POVM of matching dim can measure."""
    states = check_states(mats)
    if states.shape[-1] != povm.dim:
        raise ValueError(f"state dim {states.shape[-1]} does not match POVM dim {povm.dim}")
    return states


def _float_rows(mats: np.ndarray) -> np.ndarray:
    """(n, 2 d^2) float view of a (n, d, d) complex stack: for Hermitian A and
    B, Tr(A B) is the real dot of their rows."""
    return np.ascontiguousarray(mats).reshape(len(mats), -1).view(float)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with the same row of ``b``."""
    return np.einsum("nf,nf->n", a, b)


def decide(povm: POVM, rho: DensityMatrix) -> int:
    """Hard decision: label of the highest-probability outcome (first on ties)."""
    return int(argmax_labels(povm, measurement_scores(povm, rho)[np.newaxis])[0])

