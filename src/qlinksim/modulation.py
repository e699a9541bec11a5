"""Classical constellations and their qubit embeddings.

Two modulation families are provided: QPSK mapped directly to four fixed
qubit states, and square M-QAM mapped through the amplitude embedding

    |psi(alpha)> = (|0> + alpha |1>) / sqrt(1 + |alpha|^2)

after normalizing the constellation to unit average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix, InvalidStateError, make_pure_states

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
    coordinates on the original grid.  ``mats`` stacks the states' matrices
    and ``bit_table`` the bit labels, with a last row of -1 for the erasure
    label; they and ``priors`` are read-only, as a comparison shares them.
    """

    states: tuple[DensityMatrix, ...]
    priors: np.ndarray
    bit_labels: tuple[tuple[int, ...], ...]
    bits_per_symbol: int
    power_scale: float = 1.0
    name: str = field(default="", compare=False)
    mats: np.ndarray = field(init=False, repr=False, compare=False)
    bit_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        priors = np.array(self.priors, dtype=float)
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
        mats = np.stack([s.mat for s in self.states])
        erased = np.full((1, self.bits_per_symbol), -1, dtype=int)
        bit_table = np.vstack([np.array(self.bit_labels, dtype=int), erased])
        for attr, value in (("priors", priors), ("mats", mats), ("bit_table", bit_table)):
            value.flags.writeable = False
            object.__setattr__(self, attr, value)

    @property
    def M(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]


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
        states=make_pure_states(amplitudes),
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


def _kets(alphas) -> np.ndarray:
    """(n, 2) amplitudes (1, alpha)/sqrt(1+|alpha|^2) of complex amplitudes.

    |alpha| is ``np.hypot`` and alpha/norm divides the real and imaginary
    parts separately, which gives the bits of Python's scalar ``abs`` and
    complex division; numpy's complex abs and division differ in the last bit.
    |alpha|^2 is the correctly rounded square, where Python's ``** 2`` calls
    libm ``pow``: every square QAM grid up to 16384 points gives the same
    states either way, while a few random amplitudes in 10^4 differ by an ulp.
    """
    alphas = np.asarray(alphas, dtype=complex)
    finite = np.isfinite(alphas)
    if not np.all(finite):
        raise InvalidStateError(f"amplitude must be finite, got {complex(alphas[~finite][0])!r}")
    norm = np.sqrt(1.0 + np.hypot(alphas.real, alphas.imag) ** 2)
    kets = np.empty((len(alphas), 2), dtype=complex)
    kets[:, 0] = 1.0 / norm
    kets[:, 1].real = alphas.real / norm
    kets[:, 1].imag = alphas.imag / norm
    return kets


def embed_alpha(alpha: complex) -> DensityMatrix:
    """Qubit embedding of a complex amplitude: (|0> + alpha|1>)/sqrt(1+|alpha|^2)."""
    return make_pure_states(_kets([alpha]))[0]


def qam_codebook(order: int) -> DetectorCodebook:
    """Uniform-prior codebook of embedded M-QAM states, checked as one stack."""
    points, scale = qam_constellation(order)
    return DetectorCodebook(
        states=make_pure_states(_kets([p.alpha for p in points])),
        priors=np.full(len(points), 1.0 / len(points)),
        bit_labels=tuple(p.bits for p in points),
        bits_per_symbol=len(points[0].bits),
        power_scale=scale,
        name=f"qam{order}",
    )


def symbols_to_bits(symbols, codebook: DetectorCodebook) -> np.ndarray:
    """Expand symbol indices to bit rows; the erasure label -1 expands to all -1."""
    symbols = np.asarray(symbols, dtype=int)
    if symbols.size and (symbols.min() < -1 or symbols.max() >= codebook.M):
        raise ValueError(
            f"symbol indices must be in [-1, {codebook.M - 1}], "
            f"got range [{symbols.min()}, {symbols.max()}]"
        )
    # Row M is the expansion of the erasure label, addressed as index -1.
    return codebook.bit_table[symbols]
