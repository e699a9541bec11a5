"""Square-root-measurement detection on Pauli rows.

The detector for a codebook {p_i, rho_i} is the pretty-good measurement

    E_i = p_i  S rho_i S,   S = rhobar^(-1/2),   rhobar = sum_i p_i rho_i,

completed on the support of rhobar.  :func:`build_pgm` computes it in
closed form on the codebook's rows: S = a I + b . sigma from the two
eigenvalues of rhobar, and X -> S X S as one 4x4 map of rows.  A POVM is
its read-only (K, 4) rows e = (Tr E, 2 Re E01, -2 Im E01, E00 - E11) on a
qubit (d = 2), or on a qubit and an erasure flag (d = 3) that its last
element alone reads, checked once: complete (sum e = (2, 0, 0, 0)) and
positive semidefinite by the states' closed-form criterion
(:func:`~qlinksim.states.smallest_eigenvalue`).  A state row (t, x, y, z)
fires E with probability e . row / 2, and on a d = 3 POVM the last
element also with the flag's weight 1 - t.  The batch API is the three row
kernels :func:`score_rows`, :func:`argmax_rows` and :func:`sample_rows`
(the Born search :func:`born_search` on uniforms drawn from its ``rng``),
which take a POVM and checked rows (:func:`~qlinksim.states.state_rows`)
unchecked, read its rows, labels and ``dim`` and tables the POVM derives
from them once, nothing else, and form no BLAS product.  The erasure
outcome has one constructor, :func:`embed_povm_with_erasure`: it appends
the zero row, labeled -1, and sets ``dim`` 3, so that outcome fires on
the flag's weight alone.  A run decides every channel, flagging or not,
with that one POVM.  A complex (K, d, d) element stack crosses in through
:meth:`POVM.from_elements`, and ``elements`` is derived from the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modulation import DetectorCodebook
from .states import (
    TOL,
    DensityMatrix,
    as_rows,
    check_structure,
    from_rows,
    map_rows,
    read_only,
    smallest_eigenvalue,
    state_rows,
    to_rows,
)

# Eigenvalues of rhobar at or below this are outside the PGM's support.
EIG_CUT = 1e-10
# Scores formed at once by argmax_rows: each block holds this many (rows, K)
# scores, 4096 rows at K = 64, however large K is.
_BLOCK_SCORES = 1 << 18
# Rows the Born search holds at once: each step gathers one (rows, 4) block.
_SEARCH_ROWS = 1 << 14
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True, eq=False)
class POVM:
    """Validated measurement on a qubit (``dim`` 2), or on a qubit and an
    erasure flag (``dim`` 3), uncoupled from the qubit block, that only its
    last element reads, all of it: ``rows`` is the read-only (K, 4) stack of
    the elements' qubit blocks, which must sum to the identity's row
    (2, 0, 0, 0) and be positive semidefinite, each within ``TOL``.
    ``labels[i]``, an integer in [-1, 2^63 - 1] stored as a Python int, is
    reported when element i fires; erasure is -1.
    ``elements`` is the read-only (K, d, d) stack derived from the rows on
    first access, and so are the kernels' label and search tables.
    """

    rows: np.ndarray
    labels: tuple[int, ...]
    dim: int = 2

    def __post_init__(self):
        rows = as_rows(self.rows, "POVM", "K")
        labels = tuple(self.labels) if np.iterable(self.labels) else ()
        integral = all(map(_integral, labels))
        # The kernels read them as an int64 array.
        if not labels or not integral or min(labels) < -1 or max(labels) > _INT64_MAX:
            raise ValueError(f"POVM labels must be integers in [-1, 2^63 - 1], got {self.labels!r}")
        if len(labels) != len(rows):
            raise ValueError("one label per element required")
        if not _integral(self.dim) or self.dim not in (2, 3):
            raise ValueError(f"POVM dim must be 2 (a qubit) or 3 (and a flag), got {self.dim!r}")
        min_eig = smallest_eigenvalue(rows)
        if min_eig < -TOL:
            raise ValueError(f"POVM element not PSD (min eigenvalue {min_eig:.3e})")
        # NaN fails "<=", so a non-finite row fails here.
        comp_dev = float(np.abs(rows.sum(axis=0) - (2.0, 0.0, 0.0, 0.0)).max())
        if not comp_dev <= TOL:
            raise ValueError(f"POVM does not resolve the identity (deviation {comp_dev:.3e})")
        object.__setattr__(self, "rows", read_only(rows))
        object.__setattr__(self, "labels", tuple(map(int, labels)))
        object.__setattr__(self, "dim", int(self.dim))

    @classmethod
    def from_elements(cls, elements, labels) -> "POVM":
        """The POVM of a (K, d, d) stack of operators: the one crossing from
        complex elements to rows.  ``check_structure`` checks the stack, and
        for d = 3 the last element must hold the whole flag and no other
        any of it, within ``TOL``."""
        elements = check_structure(elements, "POVM elements")
        flags = elements[:, 2:, 2:].real.ravel()
        if np.abs(flags - (np.arange(len(flags)) == len(flags) - 1)).max(initial=0.0) > TOL:
            raise ValueError(
                "POVM must act on a qubit, or on a qubit and a flag only its last element reads"
            )
        return cls(to_rows(elements), labels, elements.shape[-1])

    @cached_property
    def elements(self) -> np.ndarray:
        """The read-only (K, dim, dim) element stack, from ``rows``."""
        elements = np.zeros((len(self.rows), self.dim, self.dim), dtype=complex)
        elements[:, :2, :2] = from_rows(self.rows)
        elements[-1, 2:, 2:] = 1.0
        return read_only(elements)

    @cached_property
    def _label_array(self) -> np.ndarray:
        """The read-only int64 array of ``labels`` that the kernels index."""
        return read_only(np.array(self.labels, dtype=np.int64))

    @cached_property
    def _search(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`born_search`' read-only tables: the search rows and the
        label of each, a power of two of them, and the cumulative row of all
        K outcomes."""
        k, labels = len(self.rows), self._label_array
        width = 1 << (k - 1).bit_length()
        cumulative = np.cumsum(self.rows, axis=0) / 2.0
        pad = np.tile([2.0, 0.0, 0.0, 0.0], (width - k + 1, 1))
        search = np.concatenate([cumulative[:-1], pad])
        label_of = np.concatenate([labels, np.full(width - k, labels[-1])])
        return read_only(search), read_only(label_of), read_only(cumulative[-1])


def _integral(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool's type is neither."""
    return type(value) is int or isinstance(value, np.integer)


def score_rows(povm: POVM, rows: np.ndarray) -> np.ndarray:
    """(n, K) outcome probabilities of (n, 4) checked rows under ``povm``:
    four elementwise terms per outcome, so a row's scores do not depend on
    its batch, and for ``dim`` 3 the flag's weight 1 - t on the last
    outcome.  Rows come checked from ``state_rows``, ``codebook.rows``,
    ``Channel.apply_rows`` or ``check_rows``."""
    half = povm.rows / 2.0
    scores = np.multiply.outer(rows[:, 0], half[:, 0])
    for j in (1, 2, 3):
        scores += np.multiply.outer(rows[:, j], half[:, j])
    if povm.dim == 3:
        scores[:, -1] += 1.0 - rows[:, 0]
    return scores


def measurement_scores(povm: POVM, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities Tr(E_i rho): :func:`score_rows` of the state's row."""
    return score_rows(povm, state_rows(rho.mat[np.newaxis], povm.dim))[0]


def build_pgm(codebook: DetectorCodebook) -> POVM:
    """Pretty-good measurement for the codebook's states and priors, in
    closed form on its rows.

    The mean row is (1, r), so rhobar has the eigenvalues (1 +- |r|) / 2
    along n = r / |r|; u+- is the inverse of each, or 0 at or below
    ``EIG_CUT``.  Then S = a I + b . sigma with a = (sqrt u+ + sqrt u-) / 2
    and b = (sqrt u+ - sqrt u-) / 2 n, and S X S maps a row (t, r) to
    t' = (a^2 + |b|^2) t + 2a b.r and
    r' = 2a t b + (a^2 - |b|^2) r + 2 (b.r) b, whose coefficients are
    a^2 + |b|^2 = (u+ + u-) / 2, a^2 - |b|^2 = sqrt(u+ u-), their difference
    2 |b|^2, and 2a |b| = (u+ - u-) / 2: one 4x4 map, applied by
    ``map_rows``.  Element i is p_i times that map of row i.
    """
    p, rows = codebook.priors, codebook.rows
    r = (p[:, None] * rows[:, 1:]).sum(axis=0)
    length = float(np.sqrt(np.square(r).sum()))
    n = r / length if length else r
    # 1 / ((1 +- |r|) / 2), exact for the maximally mixed mean of QPSK.
    u_plus, u_minus = (2.0 / v if v > 2.0 * EIG_CUT else 0.0 for v in (1.0 + length, 1.0 - length))
    mean, half_gap = (u_plus + u_minus) / 2.0, (u_plus - u_minus) / 2.0
    geometric = np.sqrt(u_plus * u_minus)
    congruence = np.empty((4, 4))
    congruence[0, 0] = mean
    congruence[0, 1:] = congruence[1:, 0] = half_gap * n
    congruence[1:, 1:] = geometric * np.eye(3) + (mean - geometric) * np.multiply.outer(n, n)
    try:
        return POVM(p[:, None] * map_rows(congruence, rows), tuple(range(codebook.M)))
    except ValueError as err:
        # Completeness fails exactly when rhobar is rank-deficient, i.e. the
        # reference states do not span the space the detector acts on.
        raise ValueError(
            "pretty-good measurement is incomplete: the codebook states do not "
            f"span the full {codebook.dim}-dimensional space ({err})"
        ) from err


def embed_povm_with_erasure(povm: POVM, out_dim: int) -> POVM:
    """A qubit POVM on a qubit and an erasure flag (``out_dim`` 3): the
    elements act as before on the qubit and vanish on the flag, and the
    flag projector is appended as the erasure outcome (label -1).  Its row is
    zero, so it fires on the flag's weight 1 - t alone, which is 0 on a
    channel that flags nothing; a process builds this POVM of a
    modulation's PGM once, and every run decides every channel with it."""
    if out_dim <= povm.dim:
        raise ValueError(f"target dim {out_dim} must exceed current POVM dim {povm.dim}")
    return POVM(np.vstack([povm.rows, np.zeros(4)]), povm.labels + (-1,), out_dim)


def argmax_rows(povm: POVM, rows: np.ndarray) -> np.ndarray:
    """Hard decisions on (n, 4) checked rows (from ``state_rows``,
    ``codebook.rows``, ``Channel.apply_rows`` or ``check_rows``): the int64
    label of each row's highest-scoring outcome, the first on ties (as
    np.argmax), scored in blocks of about ``_BLOCK_SCORES`` scores."""
    labels = povm._label_array
    decided = np.empty(len(rows), dtype=np.int64)
    block = max(1, _BLOCK_SCORES // len(labels))
    for i in range(0, len(rows), block):
        scores = score_rows(povm, rows[i : i + block])
        decided[i : i + block] = labels[np.argmax(scores, axis=1)]
    return decided


def sample_rows(povm: POVM, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Born-rule decisions, int64 labels, on (n, 4) checked rows (from
    ``state_rows``, ``codebook.rows``, ``Channel.apply_rows`` or
    ``check_rows``), one draw per row: :func:`born_search` of the n
    uniforms ``rng.random(n)``."""
    return born_search(povm, rows, rng.random(len(rows)))


def born_search(povm: POVM, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Born-rule decisions, int64 labels, on (n, 4) checked rows, row i
    drawn by the uniform ``uniforms[i]`` in [0, 1).

    Outcome k's CDF value is a row's dot with the cumulative row
    (e_0 + ... + e_k) / 2.  Each draw binary-searches its own row for the
    first outcome whose CDF value exceeds u times the row's total (which
    alone holds the flag's weight), in ceil(log2 K) steps of one 4-float
    gather and row-wise dot each.  The table, built once per POVM, holds the
    CDF rows of the first K - 1 outcomes, then rows of value 2t up to a
    power of two, labeled as the last outcome.  The rows are searched in
    blocks of ``_SEARCH_ROWS``; row dots do not depend on the batch, so
    neither do the labels.  A total off 1 by more than 1e-6 is rejected.  A
    row repeated for several draws (a deterministic channel's state, once
    per symbol that sent it) is searched once per draw.
    """
    search, label_of, total_row = povm._search
    labels = np.empty(len(rows), dtype=np.int64)
    for i in range(0, len(rows), _SEARCH_ROWS):
        block = rows[i : i + _SEARCH_ROWS]
        totals = _row_dots(np.broadcast_to(total_row, block.shape), block)
        if povm.dim == 3:
            totals += 1.0 - block[:, 0]
        off = np.abs(totals - 1.0)
        if off.max(initial=0.0) > 1e-6:
            raise ValueError(f"outcome probabilities sum to {float(totals[off.argmax()])!r}, not 1")
        # Each draw's target u * total, in its total's buffer.
        targets = totals
        targets *= uniforms[i : i + _SEARCH_ROWS]
        # A step moves a draw forward by the step length while the last
        # position it would pass is still at or below its target.
        at = np.zeros(len(block), dtype=np.intp)
        step = len(search) >> 1
        while step:
            at += (_row_dots(search.take(at + (step - 1), axis=0), block) <= targets) * step
            step >>= 1
        labels[i : i + _SEARCH_ROWS] = label_of.take(at)
    return labels


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of ``a`` with the same row of ``b``."""
    return np.einsum("nf,nf->n", a, b)


def decide(povm: POVM, rho: DensityMatrix) -> int:
    """Hard decision: label of the highest-probability outcome (first on ties)."""
    return int(povm.labels[np.argmax(measurement_scores(povm, rho))])
