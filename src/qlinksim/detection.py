"""Square-root-measurement detection.

The detector for a codebook {p_i, rho_i} is the pretty-good measurement

    E_i = p_i  S rho_i S,   S = rhobar^(-1/2),   rhobar = sum_i p_i rho_i,

completed on the support of rhobar.  A POVM is one read-only (K, d, d)
element stack, validated once: each element's smallest eigenvalue comes from
:func:`~qlinksim.states.min_eigenvalues`, the closed-form qubit spectrum for
2x2 elements and LAPACK for the enlarged (erasure) ones.
:func:`score_states` computes the outcome probabilities Tr(E_i rho) of a
(n, d, d) stack of states in one pass; decisions are their row-wise argmax
(:func:`argmax_labels`) by default, with Born-rule sampling
(:func:`sample_labels`) as an explicit opt-in.  The sampler builds its
cumulative distribution in one buffer, in place, and draws the same labels
as ``Generator.choice`` would, draw by draw; for states repeated many times
it builds one CDF row per distinct state and binary-searches each draw in
its state's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import DetectorCodebook
from .states import TOL, DensityMatrix, hermitize, inv_sqrt_psd, min_eigenvalues


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
    povm: POVM, scores: np.ndarray, rng: np.random.Generator, index: np.ndarray | None = None
) -> np.ndarray:
    """Born-rule decisions: one inverse-CDF draw per row of outcome probabilities.

    Each draw takes one uniform from ``rng``, in order, and the same
    cumulative-sum search as ``Generator.choice``.  The CDF is built in one
    buffer: the clipped scores, divided by their row sums, summed
    cumulatively and normalized in place.

    Without ``index`` there is one draw per row of ``scores``.  With it,
    ``scores`` holds one row per distinct state and draw i is for row
    ``index[i]``: CDF rows are built (and checked) only for the rows that
    occur, and each draw is a binary search in its row, so no
    (len(index), K) array is formed.  A normalized cumulative sum of
    nonnegative numbers is nondecreasing, so the search returns the count of
    CDF entries <= u, and the labels equal ``sample_labels(povm,
    scores[index], rng)``.
    """
    if index is None:
        cdf = _born_cdf(scores)
        draws = rng.random(len(cdf))
        return np.asarray(povm.labels)[np.count_nonzero(cdf <= draws[:, None], axis=1)]
    counts = np.bincount(index, minlength=len(scores))
    sent = np.flatnonzero(counts)
    cdf = _born_cdf(scores[sent])
    draws = rng.random(len(index))
    # Draw numbers grouped by row; the order within a group does not matter,
    # since each draw is searched on its own.
    order = np.argsort(index)
    picks = np.empty(len(index), dtype=np.intp)
    start = 0
    for row, end in zip(cdf, np.cumsum(counts[sent])):
        group = order[start:end]
        picks[group] = np.searchsorted(row, draws[group], side="right")
        start = end
    return np.asarray(povm.labels)[picks]


def _born_cdf(scores: np.ndarray) -> np.ndarray:
    """Row-wise normalized CDF of (n, K) outcome probabilities, in a new buffer."""
    if scores.min(initial=0.0) < -TOL:
        raise ValueError(f"negative outcome probability {scores.min():.3e}")
    cdf = np.maximum(scores, 0.0)
    totals = cdf.sum(axis=1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals.flat[off.argmax()])!r}, not 1")
    cdf /= totals
    np.cumsum(cdf, axis=1, out=cdf)
    # A copy of the last column: dividing by a view of the buffer itself
    # would make numpy copy the whole buffer first.
    cdf /= cdf[:, -1:].copy()
    return cdf


def decide(povm: POVM, rho: DensityMatrix) -> int:
    """Hard decision: label of the highest-probability outcome (first on ties)."""
    return int(argmax_labels(povm, measurement_scores(povm, rho)[np.newaxis])[0])

