"""Classical constellations and their qubit embeddings.

Two modulation families are provided: QPSK mapped directly to four fixed
qubit states, and square M-QAM mapped through the amplitude embedding

    |psi(alpha)> = (|0> + alpha |1>) / sqrt(1 + |alpha|^2)

after normalizing the constellation to unit average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix, InvalidStateError, check_states, make_pure_states, to_rows

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class DetectorCodebook:
    """Reference states, priors, and bit labels used by detection and metrics.

    ``mats`` is the checked (M, 2, 2) stack of qubit reference states and
    ``rows`` its (M, 4) Pauli rows, which a run's channels map; a sent state
    has no flagged weight, so each row's t is exactly 1.
    ``bit_labels`` is the (M, bits) table of 0/1 labels, bits >= 1, one
    row per state, kept as its own integer array.  ``power_scale``
    records the amplitude normalization applied before embedding, so
    plotting code can undo it and recover constellation coordinates on the
    original grid.  Every array is read-only, as a comparison shares them.
    """

    mats: np.ndarray
    priors: np.ndarray
    bit_labels: np.ndarray
    power_scale: float = 1.0
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        if mats.ndim != 3 or len(mats) == 0 or mats.shape[1:] != (2, 2):
            raise ValueError(f"codebook needs a nonempty (M, 2, 2) stack, got shape {mats.shape}")
        # A checked copy, so the caller's own array keeps its flags.
        mats = check_states(mats)
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (len(mats),):
            raise ValueError(f"priors shape {priors.shape} does not match {len(mats)} states")
        # NaN fails ">= 0" and an infinity fails the sum.
        if not np.all(priors >= 0.0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError(f"priors must be finite, nonnegative and sum to 1, got {priors}")
        if not 0.0 < float(self.power_scale) < np.inf:
            raise ValueError(f"power_scale must be finite and > 0, got {self.power_scale!r}")
        labels = np.array(self.bit_labels)
        if labels.ndim != 2 or len(labels) != len(mats):
            raise ValueError(f"one bit label per state required, got shape {labels.shape}")
        if labels.shape[1] == 0 or not np.all((labels == 0) | (labels == 1)):
            raise ValueError("bit labels must be an (M, bits >= 1) table of 0s and 1s")
        labels = labels.astype(int)
        rows = to_rows(mats)
        rows[:, 0] = 1.0
        arrays = {"mats": mats, "rows": rows, "priors": priors, "bit_labels": labels}
        for attr, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, attr, value)

    @property
    def M(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_labels.shape[1]

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        """One :class:`DensityMatrix` per state, each a view of ``mats``."""
        states = tuple(DensityMatrix.__new__(DensityMatrix) for _ in self.mats)
        for state, mat in zip(states, self.mats):
            state.mat = mat
        return states


def qpsk_codebook() -> DetectorCodebook:
    """Four fixed qubit states |0>, |1>, |+>, |-> with natural binary labels."""
    amplitudes = [
        (1.0, 0.0),
        (0.0, 1.0),
        (1.0 / _SQRT2, 1.0 / _SQRT2),
        (1.0 / _SQRT2, -1.0 / _SQRT2),
    ]
    return DetectorCodebook(
        mats=make_pure_states(amplitudes),
        priors=np.full(4, 0.25),
        bit_labels=((0, 0), (0, 1), (1, 0), (1, 1)),
    )


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def qam_side(order: int) -> int:
    """Side of the square M-QAM grid; ``order`` must be an even power of two."""
    m = int(order)
    if m < 4 or (m & (m - 1)) != 0 or int(np.log2(m)) % 2 != 0:
        raise ValueError(f"QAM order must be 4, 16, 64, ... got {order}")
    return int(np.sqrt(m))


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


def embed_amplitudes(alphas) -> np.ndarray:
    """Read-only (n, 2, 2) stack of the qubit embeddings
    (|0> + alpha|1>)/sqrt(1 + |alpha|^2) of complex amplitudes, checked once.

    |alpha| is ``np.hypot`` and alpha/norm divides the real and imaginary
    parts separately, which gives the bits of Python's scalar ``abs`` and
    complex division; numpy's complex abs and division differ in the last bit.
    |alpha|^2 is the correctly rounded square, where Python's ``** 2`` calls
    libm ``pow``: every square QAM grid up to 16384 points gives the same
    states either way, while a few random amplitudes in 10^4 differ by an ulp.
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    finite = np.isfinite(alphas)
    if not np.all(finite):
        raise InvalidStateError(f"amplitude must be finite, got {complex(alphas[~finite][0])!r}")
    norm = np.sqrt(1.0 + np.hypot(alphas.real, alphas.imag) ** 2)
    kets = np.empty((len(alphas), 2), dtype=complex)
    kets[:, 0] = 1.0 / norm
    kets[:, 1].real = alphas.real / norm
    kets[:, 1].imag = alphas.imag / norm
    return make_pure_states(kets)


def qam_codebook(order: int) -> DetectorCodebook:
    """Uniform-prior codebook of embedded M-QAM states, checked as one stack."""
    alphas, bits, scale = qam_constellation(order)
    return DetectorCodebook(
        mats=embed_amplitudes(alphas),
        priors=np.full(len(alphas), 1.0 / len(alphas)),
        bit_labels=bits,
        power_scale=scale,
    )
