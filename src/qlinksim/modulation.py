"""Classical constellations and their qubit embeddings.

Two modulation families are provided: QPSK mapped directly to four fixed
qubit states, and square M-QAM mapped through the amplitude embedding

    |psi(alpha)> = (|0> + alpha |1>) / sqrt(1 + |alpha|^2)

after normalizing the constellation to unit average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix, InvalidStateError, make_pure

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ConstellationPoint:
    """One classical constellation point with its symbol index and bit label."""

    alpha: complex
    symbol: int
    bits: tuple[int, ...]


@dataclass(frozen=True)
class DetectorCodebook:
    """Reference states, priors, and bit labels used by detection and metrics.

    ``power_scale`` records the amplitude normalization applied before
    embedding, so plotting code can undo it and recover constellation
    coordinates on the original grid.
    """

    states: tuple[DensityMatrix, ...]
    priors: np.ndarray
    bit_labels: tuple[tuple[int, ...], ...]
    bits_per_symbol: int
    power_scale: float = 1.0
    name: str = field(default="", compare=False)

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if len(self.states) == 0:
            raise ValueError("codebook needs at least one state")
        if priors.shape != (len(self.states),):
            raise ValueError(
                f"priors shape {priors.shape} does not match {len(self.states)} states"
            )
        if np.any(priors < 0.0) or abs(float(priors.sum()) - 1.0) > 1e-12:
            raise ValueError("priors must be nonnegative and sum to 1")
        if len(self.bit_labels) != len(self.states):
            raise ValueError("one bit label per state required")
        if any(len(b) != self.bits_per_symbol for b in self.bit_labels):
            raise ValueError(f"every bit label must have length {self.bits_per_symbol}")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError(f"states must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "priors", priors)

    @property
    def M(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def qpsk_codebook() -> DetectorCodebook:
    """Four fixed qubit states |0>, |1>, |+>, |-> with natural binary labels."""
    amplitudes = [
        (1.0, 0.0),
        (0.0, 1.0),
        (1.0 / _SQRT2, 1.0 / _SQRT2),
        (1.0 / _SQRT2, -1.0 / _SQRT2),
    ]
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    return DetectorCodebook(
        states=tuple(make_pure(a) for a in amplitudes),
        priors=np.full(4, 0.25),
        bit_labels=bits,
        bits_per_symbol=2,
        name="qpsk",
    )


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def qam_side(order: int) -> int:
    """Side of the square M-QAM grid; ``order`` must be an even power of two."""
    m = int(order)
    if m < 4 or (m & (m - 1)) != 0 or int(np.log2(m)) % 2 != 0:
        raise ValueError(f"QAM order must be 4, 16, 64, ... got {order}")
    return int(np.sqrt(m))


def qam_constellation(order: int) -> tuple[list[ConstellationPoint], float]:
    """Square Gray-labeled M-QAM on the odd-integer grid, unit average power.

    Returns the points (alpha already scaled) and the scale factor itself.
    ``order`` must be an even power of two so the grid is square.
    """
    side = qam_side(order)
    m = side * side
    bits_axis = int(np.log2(side))
    # Raw grid mean power is 2(M-1)/3, so this scale gives unit average power.
    scale = 1.0 / np.sqrt(2.0 * (m - 1) / 3.0)
    levels = [2 * i - (side - 1) for i in range(side)]
    points = []
    for ix in range(side):
        for iq in range(side):
            alpha = complex(levels[ix], levels[iq]) * scale
            word = (_gray(ix) << bits_axis) | _gray(iq)
            bits = tuple((word >> (2 * bits_axis - 1 - k)) & 1 for k in range(2 * bits_axis))
            points.append(ConstellationPoint(alpha=alpha, symbol=ix * side + iq, bits=bits))
    return points, float(scale)


def embed_alpha(alpha: complex) -> DensityMatrix:
    """Qubit embedding of a complex amplitude: (|0> + alpha|1>)/sqrt(1+|alpha|^2)."""
    alpha = complex(alpha)
    if not np.isfinite(alpha.real) or not np.isfinite(alpha.imag):
        raise InvalidStateError(f"amplitude must be finite, got {alpha!r}")
    norm = np.sqrt(1.0 + abs(alpha) ** 2)
    return make_pure([1.0 / norm, alpha / norm])


def qam_codebook(order: int) -> DetectorCodebook:
    """Uniform-prior codebook of embedded M-QAM states."""
    points, scale = qam_constellation(order)
    return DetectorCodebook(
        states=tuple(embed_alpha(p.alpha) for p in points),
        priors=np.full(len(points), 1.0 / len(points)),
        bit_labels=tuple(p.bits for p in points),
        bits_per_symbol=len(points[0].bits),
        power_scale=scale,
        name=f"qam{order}",
    )


def symbols_to_bits(symbols, codebook: DetectorCodebook) -> np.ndarray:
    """Expand symbol indices to bit rows; the erasure label -1 expands to all -1."""
    symbols = np.asarray(symbols, dtype=int)
    table = np.array(codebook.bit_labels, dtype=int)
    # Row M is the expansion of the erasure label, addressed as index -1.
    table = np.vstack([table, np.full(codebook.bits_per_symbol, -1, dtype=int)])
    if symbols.size and (symbols.min() < -1 or symbols.max() >= codebook.M):
        raise ValueError(
            f"symbol indices must be in [-1, {codebook.M - 1}], "
            f"got range [{symbols.min()}, {symbols.max()}]"
        )
    return table[symbols]
