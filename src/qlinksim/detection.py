"""Square-root-measurement detection on Pauli rows.

The detector for a codebook {p_i, rho_i} is the pretty-good measurement

    E_i = p_i  S rho_i S,   S = rhobar^(-1/2),   rhobar = sum_i p_i rho_i,

completed on the support of rhobar.  A POVM is one read-only (K, d, d)
element stack on a qubit (d = 2) or on a qubit and an erasure flag (d = 3),
validated once by the states' structural check and closed-form
positive-semidefinite criterion (:func:`~qlinksim.states.check_structure`,
:func:`~qlinksim.states.smallest_eigenvalue`; no spectrum is taken), and
read once as (K, 4) rows e = (Tr E, 2 Re E01, -2 Im E01, E00 - E11): a
state row (t, x, y, z) fires E with probability e . row / 2, the erasure
outcome also with the flag's weight 1 - t.  The batch API is the three row
kernels :func:`score_rows`, :func:`argmax_rows` and :func:`sample_rows`,
which take the decision table :meth:`POVM.outcomes` and checked rows
(:func:`~qlinksim.states.state_rows`) unchecked and form no BLAS product.
On complex stacks the erasure outcome is the flag projector
(:func:`embed_povm_with_erasure`), whose row is the zero row a run appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modulation import DetectorCodebook
from .states import (
    TOL,
    DensityMatrix,
    check_structure,
    inv_sqrt_psd,
    smallest_eigenvalue,
    state_rows,
    to_rows,
)

# Rows scored at once by argmax_rows: bounds the (rows, K) scores held.
_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class POVM:
    """Validated measurement on a qubit (d = 2), or on a qubit and an erasure
    flag (d = 3), uncoupled from the qubit block, that only its last element
    reads: ``elements`` is a read-only (K, d, d) stack of PSD matrices
    summing to the identity, and ``rows`` its rows.  ``labels[i]`` is
    reported when element i fires; erasure is -1.
    """

    elements: np.ndarray
    labels: tuple[int, ...]
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("POVM needs at least one element")
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element required")
        elements = check_structure(self.elements, "POVM elements")
        rows = to_rows(elements)
        min_eig = smallest_eigenvalue(rows, elements[:, 2:, 2:].real)
        if min_eig < -TOL:
            raise ValueError(f"POVM element not PSD (min eigenvalue {min_eig:.3e})")
        comp_dev = float(np.max(np.abs(elements.sum(axis=0) - np.eye(elements.shape[-1]))))
        if comp_dev > TOL:
            raise ValueError(
                f"POVM does not resolve the identity (deviation {comp_dev:.3e})"
            )
        # Completeness leaves the last element all of the flag.
        if np.abs(elements[:-1, 2:, 2:]).max(initial=0.0) > TOL:
            raise ValueError(
                "POVM must act on a qubit, or on a qubit and an erasure flag "
                "that only its last element reads"
            )
        for name, value in (("elements", elements), ("rows", rows)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def outcomes(self, erasure: bool = False) -> tuple:
        """The decision table (rows, labels, flagged) the row kernels take:
        whether the last outcome also fires on the flag's weight.  With
        ``erasure``, a qubit POVM gains that outcome, a zero row labeled -1."""
        if erasure:
            return np.vstack([self.rows, np.zeros(4)]), np.append(self.labels, -1), True
        return self.rows, np.asarray(self.labels), self.dim == 3


def score_rows(outcomes: tuple, rows: np.ndarray) -> np.ndarray:
    """(n, K) outcome probabilities of (n, 4) checked rows under the decision
    table ``outcomes``: four elementwise terms per outcome, so a row's scores
    do not depend on its batch.  Rows come checked from ``state_rows``,
    ``codebook.rows``, ``Channel.apply_rows`` or ``check_rows``."""
    e, _, flagged = outcomes
    half = e / 2.0
    scores = np.multiply.outer(rows[:, 0], half[:, 0])
    for j in (1, 2, 3):
        scores += np.multiply.outer(rows[:, j], half[:, j])
    if flagged:
        scores[:, -1] += 1.0 - rows[:, 0]
    return scores


def measurement_scores(povm: POVM, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities Tr(E_i rho): :func:`score_rows` of the state's row."""
    return score_rows(povm.outcomes(), state_rows(rho.mat[np.newaxis], povm.dim))[0]


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
    """Zero-pad a POVM to a larger space and append the projector onto the new
    directions, the erasure flag, as the erasure outcome (label -1).

    The padded elements act as before on the original subspace and vanish
    on the flag, which its projector alone reads.  That projector's row is
    zero: the outcome a run appends with ``povm.outcomes(erasure=True)``,
    so both decide erasure from the same rows.
    """
    if out_dim <= povm.dim:
        raise ValueError(f"target dim {out_dim} must exceed current POVM dim {povm.dim}")
    padded = np.zeros((povm.n_outcomes + 1, out_dim, out_dim), dtype=complex)
    padded[:-1, : povm.dim, : povm.dim] = povm.elements
    padded[-1, povm.dim :, povm.dim :] = np.eye(out_dim - povm.dim)
    return POVM(elements=padded, labels=povm.labels + (-1,))


def argmax_rows(outcomes: tuple, rows: np.ndarray) -> np.ndarray:
    """Hard decisions on (n, 4) checked rows (from ``state_rows``,
    ``codebook.rows``, ``Channel.apply_rows`` or ``check_rows``): the label of
    each row's highest-scoring outcome, the first on ties (as np.argmax),
    scored ``_CHUNK`` rows at a time."""
    labels = outcomes[1]
    decided = np.empty(len(rows), dtype=labels.dtype)
    for i in range(0, len(rows), _CHUNK):
        chunk = score_rows(outcomes, rows[i : i + _CHUNK])
        decided[i : i + _CHUNK] = labels[np.argmax(chunk, axis=1)]
    return decided


def sample_rows(
    outcomes: tuple, rows: np.ndarray, rng: np.random.Generator, index: np.ndarray | None = None
) -> np.ndarray:
    """Born-rule decisions on (n, 4) checked rows (from ``state_rows``,
    ``codebook.rows``, ``Channel.apply_rows`` or ``check_rows``).

    Outcome k's CDF value is a row's dot with the cumulative row
    (e_0 + ... + e_k) / 2.  Each draw takes one uniform u from ``rng``, in
    order, and binary-searches for the first outcome whose CDF value exceeds
    u times the row's total (which alone holds the flag's weight), in
    ceil(log2 K) steps of one 4-float gather and row-wise dot each.  The
    table holds the CDF rows of the first K - 1 outcomes, then rows of value
    2t up to a power of two, labeled as the last outcome.  Row dots do not
    depend on the batch, and a total off 1 by more than 1e-6 is rejected.
    With ``index``, draw i is for row ``index[i]`` (one row per distinct
    state of a deterministic channel) and reads a per-row CDF table, one
    einsum of the rows with the search rows that forms no tiled or repeated
    copy of either and gives the same dots, so the labels equal those of
    ``rows[index]``.
    """
    e, labels, flagged = outcomes
    k = len(e)
    width = 1 << (k - 1).bit_length()
    cumulative = np.cumsum(e, axis=0) / 2.0
    search = np.concatenate([cumulative[:-1], np.tile([2.0, 0.0, 0.0, 0.0], (width - k + 1, 1))])
    label_of = np.concatenate([labels, np.full(width - k, labels[-1])])
    totals = _row_dots(np.broadcast_to(cumulative[-1], rows.shape), rows)
    if flagged:
        totals += 1.0 - rows[:, 0]
    # Draw i searches the positions start[i] .. start[i] + width - 1: those
    # of its own row, or its row's block of the per-row table.
    if index is None:
        start = np.zeros(len(rows), dtype=np.intp)

        def cdf(at):
            return _row_dots(search.take(at, axis=0), rows)

    else:
        start = np.asarray(index, dtype=np.intp) * width
        totals = totals.take(index)
        cdf = np.einsum("mf,wf->mw", rows, search).ravel().take
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > 1e-6:
        raise ValueError(f"outcome probabilities sum to {float(totals[off.argmax()])!r}, not 1")
    # Each draw's target u * total, in its total's buffer.
    targets = totals
    targets *= rng.random(len(targets))
    # A step moves a draw forward by the step length while the last position
    # it would pass is still at or below its target.
    step = width >> 1
    while step:
        start += (cdf(start + (step - 1)) <= targets) * step
        step >>= 1
    return label_of.take(start & (width - 1))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with the same row of ``b``."""
    return np.einsum("nf,nf->n", a, b)


def decide(povm: POVM, rho: DensityMatrix) -> int:
    """Hard decision: label of the highest-probability outcome (first on ties)."""
    return int(povm.labels[np.argmax(measurement_scores(povm, rho))])
