"""Square-root-measurement detection.

The detector for a codebook {p_i, rho_i} is the pretty-good measurement

    E_i = p_i  S rho_i S,   S = rhobar^(-1/2),   rhobar = sum_i p_i rho_i,

completed on the support of rhobar.  A POVM is validated once, on its
element stack: each element's smallest eigenvalue comes from
:func:`~qlinksim.states.min_eigenvalues`, the closed-form qubit spectrum for
2x2 elements and LAPACK for the enlarged (erasure) ones.
:func:`score_states` computes the outcome probabilities Tr(E_i rho) of a
(n, d, d) stack of states in one pass; decisions are their row-wise argmax
(:func:`argmax_labels`) by default, with Born-rule sampling
(:func:`sample_labels`) as an explicit opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import DetectorCodebook
from .states import DensityMatrix, hermitize, inv_sqrt_psd, min_eigenvalues

_PSD_TOL = 1e-9


@dataclass(frozen=True)
class POVM:
    """Validated measurement: PSD elements summing to the identity.

    ``labels[i]`` is the symbol decision reported when element i fires;
    the erasure outcome carries the label -1.  The scoring stack is read-only.
    """

    elements: tuple[np.ndarray, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("POVM needs at least one element")
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element required")
        dim = self.elements[0].shape[0]
        if any(np.shape(e) != (dim, dim) for e in self.elements):
            raise ValueError("POVM elements must share one square shape")
        stack = np.asarray(self.elements, dtype=complex)
        adjoint = stack.conj().swapaxes(-1, -2)
        herm_dev = float(np.max(np.abs(stack - adjoint)))
        if herm_dev > _PSD_TOL:
            raise ValueError(f"POVM element not Hermitian (deviation {herm_dev:.3e})")
        # Hermitized stack, checked once and kept for vectorized scoring.
        stack = (stack + adjoint) / 2.0
        min_eig = float(np.min(min_eigenvalues(stack)))
        if min_eig < -_PSD_TOL:
            raise ValueError(f"POVM element not PSD (min eigenvalue {min_eig:.3e})")
        comp_dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
        if comp_dev > _PSD_TOL:
            raise ValueError(
                f"POVM does not resolve the identity (deviation {comp_dev:.3e})"
            )
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def score_states(povm: POVM, mats) -> np.ndarray:
    """(n, K) outcome probabilities Tr(E_k rho) of a (n, d, d) stack of states.

    Tr(E_k rho) = sum_ij E_k[i, j] rho[j, i] is one (1, d^2) @ (d^2, K)
    product per state: no (n, K, d, d) intermediate is formed, and a
    state's scores do not depend on the batch around it.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-1] != povm.dim:
        raise ValueError(f"state dim {mats.shape[-1]} does not match POVM dim {povm.dim}")
    stack: np.ndarray = povm._stack  # noqa: SLF001 - own class attribute
    rho_t = mats.swapaxes(-1, -2).reshape(len(mats), 1, -1)
    scores = np.matmul(rho_t, stack.reshape(len(stack), -1).T)[:, 0, :]
    imag = float(np.max(np.abs(scores.imag), initial=0.0))
    if imag > _PSD_TOL:
        raise ValueError(f"non-real outcome probabilities (imaginary part {imag:.3e})")
    return scores.real


def measurement_scores(povm: POVM, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities Tr(E_i rho) as a real vector."""
    return score_states(povm, rho.mat[np.newaxis])[0]


def build_pgm(codebook: DetectorCodebook) -> POVM:
    """Pretty-good measurement for the codebook's states and priors, computed on
    the whole stack in the one-state order, so each element has the same bits."""
    dim, p, mats = codebook.dim, codebook.priors[:, None, None], codebook.mats
    s = inv_sqrt_psd((p * mats).sum(axis=0))
    elements = p * (s @ mats @ s)
    elements = (elements + elements.conj().swapaxes(-1, -2)) / 2.0
    elements.flags.writeable = False
    try:
        return POVM(elements=tuple(elements), labels=tuple(range(codebook.M)))
    except ValueError as err:
        # Completeness fails exactly when rhobar is rank-deficient, i.e. the
        # reference states do not span the space the detector acts on.
        raise ValueError(
            "pretty-good measurement is incomplete: the codebook states do not "
            f"span the full {dim}-dimensional space ({err})"
        ) from err


def embed_povm_with_erasure(povm: POVM, out_dim: int) -> POVM:
    """Zero-pad a POVM to a larger space; the residual becomes the erasure outcome.

    The padded elements act as before on the original subspace and vanish
    on the new directions, so E_era = I - sum_i E_i is automatically PSD
    (up to roundoff, which is clipped).
    """
    if out_dim <= povm.dim:
        raise ValueError(f"target dim {out_dim} must exceed current POVM dim {povm.dim}")
    padded = np.zeros((povm.n_outcomes, out_dim, out_dim), dtype=complex)
    padded[:, : povm.dim, : povm.dim] = povm.elements
    residual = np.eye(out_dim, dtype=complex) - sum(padded)
    vals, vecs = np.linalg.eigh(hermitize(residual))
    if float(vals[0]) < -_PSD_TOL:
        raise ValueError(f"erasure completion is not PSD (min eigenvalue {vals[0]:.3e})")
    residual = hermitize((vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T)
    return POVM(elements=tuple(padded) + (residual,), labels=povm.labels + (-1,))


def argmax_labels(povm: POVM, scores: np.ndarray) -> np.ndarray:
    """Hard decisions: the label of each row's highest-probability outcome.

    np.argmax returns the first maximum, so exact ties resolve to the
    lowest-index element deterministically.
    """
    return np.asarray(povm.labels)[np.argmax(scores, axis=1)]


def sample_labels(povm: POVM, scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Born-rule decisions: one inverse-CDF draw per row of outcome probabilities.

    Each row takes one uniform from ``rng``, in row order, and the same
    cumulative-sum search as ``Generator.choice``.
    """
    if scores.min(initial=0.0) < -_PSD_TOL:
        raise ValueError(f"negative outcome probability {scores.min():.3e}")
    scores = np.maximum(scores, 0.0)
    totals = scores.sum(axis=1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals.flat[off.argmax()])!r}, not 1")
    cdf = np.cumsum(scores / totals, axis=1)
    cdf /= cdf[:, -1:]
    draws = rng.random(len(scores))
    return np.asarray(povm.labels)[(cdf <= draws[:, None]).sum(axis=1)]


def decide(povm: POVM, rho: DensityMatrix) -> int:
    """Hard decision: label of the highest-probability outcome (first on ties)."""
    return int(argmax_labels(povm, measurement_scores(povm, rho)[np.newaxis])[0])

