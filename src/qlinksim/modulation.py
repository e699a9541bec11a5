"""Classical constellations and their qubit embeddings, as Pauli rows.

Two modulation families are provided: QPSK mapped directly to four fixed
qubit states, and square M-QAM mapped through the amplitude embedding

    |psi(alpha)> = (|0> + alpha |1>) / sqrt(1 + |alpha|^2)

after normalizing the constellation to unit average power.  A codebook
holds its states as (M, 4) rows (t, x, y, z) (:mod:`qlinksim.states`),
written in closed form: QPSK's are literal, and the embedding of alpha is
the row (1 + |alpha|^2, 2 Re alpha, 2 Im alpha, 1 - |alpha|^2) / (1 + |alpha|^2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import TOL, DensityMatrix, InvalidStateError, as_rows, check_rows, from_rows, read_only


@dataclass(frozen=True, eq=False)
class DetectorCodebook:
    """Reference states, priors, and bit labels used by detection and metrics.

    ``rows`` is the (M, 4) stack of the qubit reference states' Pauli rows,
    which a run's channels map: checked once by ``check_rows``, each of unit
    weight within ``TOL``, and stored with t exactly 1, as a sent state has
    no flagged weight.  A caller's complex stack gives its rows through
    ``state_rows(mats, 2)``; ``mats`` is the read-only (M, 2, 2) stack
    derived from the rows on first access.  ``bit_labels`` is the (M, bits)
    table of integer (not bool or float) 0/1 labels, bits >= 1, one row per
    state, kept as its own integer array.  ``power_scale`` records the
    amplitude normalization applied before embedding, so plotting code can
    undo it and recover constellation coordinates on the original grid.
    Every array is read-only, as a comparison shares them.
    """

    rows: np.ndarray
    priors: np.ndarray
    bit_labels: np.ndarray
    power_scale: float = 1.0

    def __post_init__(self):
        # A checked copy, so the caller's own array keeps its flags.
        rows = check_rows(as_rows(self.rows, "codebook", "M"))
        trace_dev = float(np.abs(rows[:, 0] - 1.0).max())
        if trace_dev > TOL:
            raise InvalidStateError(f"trace deviates from 1 by {trace_dev:.3e}, exceeds {TOL:.1e}")
        rows[:, 0] = 1.0
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (len(rows),):
            raise ValueError(f"priors shape {priors.shape} does not match {len(rows)} states")
        # NaN fails ">= 0" and an infinity fails the sum.
        if not np.all(priors >= 0.0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError(f"priors must be finite, nonnegative and sum to 1, got {priors}")
        scale = self.power_scale
        if not isinstance(scale, numbers.Real) or isinstance(scale, bool):
            raise TypeError(f"power_scale must be a real number, got {scale!r}")
        if not 0.0 < float(scale) < np.inf:
            raise ValueError(f"power_scale must be finite and > 0, got {scale!r}")
        labels = np.array(self.bit_labels)
        if labels.ndim != 2 or len(labels) != len(rows):
            raise ValueError(f"one bit label per state required, got shape {labels.shape}")
        if labels.shape[1] == 0 or not np.all((labels == 0) | (labels == 1)):
            raise ValueError("bit labels must be an (M, bits >= 1) table of 0s and 1s")
        # Scoring reads the label rows as integers; bools and floats are
        # rejected, not cast.
        if labels.dtype.kind not in "iu":
            raise ValueError(f"bit labels must be integers, got {labels.dtype}")
        labels = labels.astype(int)
        for attr, value in {"rows": rows, "priors": priors, "bit_labels": labels}.items():
            object.__setattr__(self, attr, read_only(value))
        object.__setattr__(self, "power_scale", float(scale))

    @property
    def M(self) -> int:
        return len(self.rows)

    # The states' dimension: every codebook state is a qubit.
    dim = 2

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_labels.shape[1]

    @cached_property
    def mats(self) -> np.ndarray:
        """The read-only (M, 2, 2) stack of the states, from ``rows``."""
        return read_only(from_rows(self.rows))

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        """One :class:`DensityMatrix` per state, each a view of ``mats``."""
        states = tuple(DensityMatrix.__new__(DensityMatrix) for _ in self.mats)
        for state, mat in zip(states, self.mats):
            state.mat = mat
        return states


def qpsk_codebook() -> DetectorCodebook:
    """Four fixed qubit states |0>, |1>, |+>, |-> with natural binary labels."""
    return DetectorCodebook(
        rows=((1, 0, 0, 1), (1, 0, 0, -1), (1, 1, 0, 0), (1, -1, 0, 0)),
        priors=np.full(4, 0.25),
        bit_labels=((0, 0), (0, 1), (1, 0), (1, 1)),
    )


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def qam_side(order: int) -> int:
    """Side of the square M-QAM grid; ``order`` must be an integer (not a
    bool) and an even power of two."""
    m = int(order) if isinstance(order, numbers.Integral) and not isinstance(order, bool) else 0
    # Integer arithmetic: numpy's log2 and sqrt take no int of 2**64 or more.
    if m < 4 or (m & (m - 1)) != 0 or m.bit_length() % 2 != 1:
        raise ValueError(f"QAM order must be 4, 16, 64, ... got {order!r}")
    return math.isqrt(m)


def qam_constellation(order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Square Gray-labeled M-QAM on the odd-integer grid, unit average power.

    Returns the (M,) amplitudes (already scaled), their (M, log2 M) bit
    labels and the scale factor.  Symbol ix * side + iq sits at the grid
    point (2 ix - side + 1) + i (2 iq - side + 1), and its label is the Gray
    code of ix followed by that of iq.  ``order`` must be an even power of
    two so the grid is square.
    """
    side = qam_side(order)
    m = side * side
    bits_axis = int(np.log2(side))
    # Raw grid mean power is 2(M-1)/3, so this scale gives unit average power.
    scale = 1.0 / np.sqrt(2.0 * (m - 1) / 3.0)
    levels = 2.0 * np.arange(side) - (side - 1)
    ix, iq = np.divmod(np.arange(m), side)
    alphas = (levels[ix] + 1j * levels[iq]) * scale
    words = (_gray(ix) << bits_axis) | _gray(iq)
    bits = (words[:, None] >> np.arange(2 * bits_axis - 1, -1, -1)) & 1
    return alphas, bits, float(scale)


def _embedding_rows(alphas) -> np.ndarray:
    """(n, 4) rows of the qubit embeddings of complex amplitudes, unchecked:
    (1 + |alpha|^2, 2 Re alpha, 2 Im alpha, 1 - |alpha|^2) / (1 + |alpha|^2),
    with |alpha|^2 = Re^2 + Im^2, so t is exactly 1.  Where |alpha|^2
    overflows (|alpha| above ~1.3e154), the row is its limit
    (1, 2 Re alpha / |alpha|^2, 2 Im alpha / |alpha|^2, -1), computed from
    alpha over its larger part s: the same formula with 1 / s^2 for 1."""
    alphas = np.asarray(alphas, dtype=complex).ravel()
    finite = np.isfinite(alphas)
    if not np.all(finite):
        raise InvalidStateError(f"amplitude must be finite, got {complex(alphas[~finite][0])!r}")
    re, im = alphas.real, alphas.imag
    with np.errstate(over="ignore"):
        power = re * re + im * im
    one = scale = 1.0
    huge = np.isinf(power)
    if huge.any():
        # s is 1 (exactly, so every other row keeps its bits) where |alpha|^2
        # is finite; where it overflows, 1 / s^2 is below 1e-308 and drops out.
        scale = np.where(huge, np.maximum(np.abs(re), np.abs(im)), 1.0)
        one = np.where(huge, 0.0, 1.0)
        re, im = re / scale, im / scale
        power = re * re + im * im
    denominator = one + power
    rows = np.stack([denominator, 2.0 * re / scale, 2.0 * im / scale, one - power], axis=1)
    return rows / denominator[:, None]


def embed_amplitudes(alphas) -> np.ndarray:
    """Read-only (n, 2, 2) stack of the qubit embeddings
    (|0> + alpha|1>)/sqrt(1 + |alpha|^2) of complex amplitudes: the states of
    their :func:`_embedding_rows`, checked once by ``check_rows``."""
    return read_only(from_rows(check_rows(_embedding_rows(alphas))))


def qam_codebook(order: int) -> DetectorCodebook:
    """Uniform-prior codebook of the M-QAM :func:`_embedding_rows`."""
    alphas, bits, scale = qam_constellation(order)
    return DetectorCodebook(
        rows=_embedding_rows(alphas),
        priors=np.full(len(alphas), 1.0 / len(alphas)),
        bit_labels=bits,
        power_scale=scale,
    )
