"""Six qubit channel models acting on Pauli rows (t, x, y, z).

Four are deterministic completely positive trace-preserving maps, each one
4x4 transfer matrix (depolarizing, dephasing, erasure, bosonic thermal
loss; ``Channel.transfer``); two are stochastic surrogates that draw
fresh randomness per use: free-space turbulence, pure loss with one fade
per row, and fiber polarization-mode dispersion.  :class:`Channel` maps
rows by its transfer matrix or looks the stochastic kernel up by the
config's kind, enforces the qubit and randomness contracts at the call
boundary, and checks the output rows once (:meth:`Channel.apply_rows`, the
one batch operation; a complex stack crosses in through ``state_rows`` and
out through ``from_rows``).  A run maps all its deterministic channels'
rows at once, by ``map_rows`` on the stack of their transfer matrices.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_args

import numpy as np

from .states import DensityMatrix, check_rows, from_rows, map_rows, state_rows


# What a config field of each annotated type accepts, as its errors say it.
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def check_fields(cfg) -> None:
    """Check every ``int``, ``float``, ``bool`` and ``str`` field of a config
    dataclass by its annotation, rejecting what no range check catches:
    another type, booleans in number fields, floats in integer fields (even
    2.0), and NaN, infinities or integers beyond the float range in float
    fields.  A channel config's errors name its kind."""
    prefix = f"{cfg.kind} parameter " if hasattr(cfg, "kind") else ""
    for f in fields(cfg):
        if f.type not in _FIELD_TYPES:
            continue
        value = getattr(cfg, f.name)
        kind, wanted = _FIELD_TYPES[f.type]
        if not isinstance(value, kind) or (isinstance(value, bool) and f.type != "bool"):
            raise TypeError(f"{prefix}{f.name} must be {wanted}, got {value!r}")
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{prefix}{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class _ProbabilityConfig:
    """A channel set by one probability ``p`` in [0, 1]."""

    p: float

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"{self.kind} probability must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class DepolarizingConfig(_ProbabilityConfig):
    kind: ClassVar[str] = "depolarizing"


@dataclass(frozen=True)
class DephasingConfig(_ProbabilityConfig):
    kind: ClassVar[str] = "dephasing"


@dataclass(frozen=True)
class ErasureConfig(_ProbabilityConfig):
    kind: ClassVar[str] = "erasure"


@dataclass(frozen=True)
class BosonicConfig:
    """Thermal-loss parameters: dB attenuation and environment occupancy.

    ``fock_dim`` is the qubit's dimension, 2; configs carry the key, and any
    other value is rejected.
    """

    kind: ClassVar[str] = "bosonic"
    loss_db: float
    n_th: float = 0.0
    fock_dim: int = 2

    def __post_init__(self):
        check_fields(self)
        if self.loss_db < 0.0:
            raise ValueError(f"loss_db must be >= 0, got {self.loss_db}")
        if self.n_th < 0.0:
            raise ValueError(f"n_th must be >= 0, got {self.n_th}")
        if self.fock_dim != 2:
            raise ValueError(
                f"fock_dim must be 2 (both codebooks are qubits), got {self.fock_dim}"
            )

    @property
    def eta(self) -> float:
        return float(10.0 ** (-self.loss_db / 10.0))


@dataclass(frozen=True)
class TurbulenceConfig:
    """Free-space fade surrogate: pointing jitter, scintillation, fixed path loss.

    ``sigma_p`` and ``w0`` share one length unit; ``rytov_var`` is the
    Rytov variance controlling scintillation strength (0 disables it).
    """

    kind: ClassVar[str] = "turbulence"
    sigma_p: float
    w0: float
    rytov_var: float
    path_loss_db: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.w0 <= 0.0:
            raise ValueError(f"beam waist w0 must be > 0, got {self.w0}")
        if self.sigma_p < 0.0:
            raise ValueError(f"sigma_p must be >= 0, got {self.sigma_p}")
        if self.rytov_var < 0.0:
            raise ValueError(f"rytov_var must be >= 0, got {self.rytov_var}")
        # Outside about [1.3e-308, 1.3e220] the Gamma-Gamma shape parameters
        # of _scintillation overflow a float.
        if self.rytov_var != 0.0 and not 1e-307 <= self.rytov_var <= 1e220:
            raise ValueError(f"rytov_var must be 0 or in [1e-307, 1e220], got {self.rytov_var}")
        if self.path_loss_db < 0.0:
            raise ValueError(f"path_loss_db must be >= 0, got {self.path_loss_db}")


@dataclass(frozen=True)
class PMDConfig:
    """Polarization-mode-dispersion surrogate over concatenated fiber sections.

    ``dgd`` is the total differential group delay and ``sigma_omega`` the
    source spectral width; only their product matters, so both are
    dimensionless here.
    """

    kind: ClassVar[str] = "pmd"
    dgd: float
    sigma_omega: float
    n_sections: int = 8

    def __post_init__(self):
        check_fields(self)
        if self.dgd < 0.0:
            raise ValueError(f"dgd must be >= 0, got {self.dgd}")
        if self.sigma_omega < 0.0:
            raise ValueError(f"sigma_omega must be >= 0, got {self.sigma_omega}")
        if self.n_sections < 1:
            raise ValueError(f"n_sections must be >= 1, got {self.n_sections}")


ChannelConfig = Union[
    DepolarizingConfig,
    DephasingConfig,
    ErasureConfig,
    BosonicConfig,
    TurbulenceConfig,
    PMDConfig,
]

_CONFIG_TYPES = {cls.kind: cls for cls in get_args(ChannelConfig)}


def config_from_dict(d: dict) -> ChannelConfig:
    """Build a channel config from a parsed JSON object with a ``type`` key."""
    d = dict(d)
    kind = d.pop("type", None)
    if kind not in _CONFIG_TYPES:
        raise ValueError(
            f"unknown channel type {kind!r}; expected one of {sorted(_CONFIG_TYPES)}"
        )
    cls = _CONFIG_TYPES[kind]
    allowed = {f.name for f in fields(cls)}
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown parameters for {kind} channel: {sorted(unknown)}")
    return cls(**d)


def config_to_dict(cfg: ChannelConfig) -> dict:
    return {"type": cfg.kind, **{f.name: getattr(cfg, f.name) for f in fields(cfg)}}


# --- deterministic qubit maps ---


def _transfer_matrix(cfg) -> np.ndarray:
    """The 4x4 matrix a deterministic channel applies to rows (t, x, y, z).

    Depolarizing scales the Bloch vector by 1 - p, dephasing its x and y,
    and erasure the whole block, whose weight p moves to the flag.  Bosonic
    thermal loss is generalized amplitude damping: pure loss
    (:func:`_pure_loss`), then thermal weight w = n_th / (1 + 2 n_th) of the
    lost 1 - eta moves from |0><0| to |1><1|, so
    z -> eta z + (1 - eta)(1 - 2 w) t.  This is the single-rail thermal
    attenuator truncated at one photon, exact only for n_th = 0.  w is
    taken as (n_th / 2) / (1/2 + n_th), the same bits without the overflow
    of 1 + 2 n_th, so w tends to 1/2 as n_th grows.
    """
    if cfg.kind == "bosonic":
        w = 0.5 * cfg.n_th / (0.5 + cfg.n_th)
        matrix = np.diag([1.0, np.sqrt(cfg.eta), np.sqrt(cfg.eta), cfg.eta])
        matrix[3, 0] = (1.0 - cfg.eta) * (1.0 - 2.0 * w)
        return matrix
    q = 1.0 - cfg.p
    diagonals = {"depolarizing": [1.0, q, q, q], "dephasing": [1.0, q, q, 1.0], "erasure": [q] * 4}
    return np.diag(diagonals[cfg.kind])


def _pure_loss(eta, rows: np.ndarray) -> np.ndarray:
    """Amplitude damping with transmissivity eta (one value, or one per row).

    Closed form of K0 = diag(1, sqrt(eta)), K1 = sqrt(1-eta)|0><1|: x and y
    scale by sqrt(eta), and weight 1-eta of |1><1| moves to |0><0|, so
    z -> (1 - eta) t + eta z, the bosonic matrix's arithmetic at n_th = 0.
    """
    eta = np.asarray(eta, dtype=float)
    out = rows * np.sqrt(eta)[..., None]
    out[:, 0] = rows[:, 0]
    out[:, 3] = (1.0 - eta) * rows[:, 0] + eta * rows[:, 3]
    return out


# --- turbulence surrogate ---
#
# A stochastic kernel (config, rows, rng) -> rows returns its output
# unchecked; Channel checks it.


def _scintillation(rytov_var: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unit-mean Gamma-Gamma irradiance samples; rytov_var = 0 gives exactly 1."""
    if rytov_var == 0.0:
        return np.ones(n)
    sr125 = rytov_var ** 1.2  # sigma_R^(12/5)
    alpha = 1.0 / np.expm1(0.49 * rytov_var / (1.0 + 1.11 * sr125) ** (7.0 / 6.0))
    beta = 1.0 / np.expm1(0.51 * rytov_var / (1.0 + 0.69 * sr125) ** (5.0 / 6.0))
    x = rng.gamma(shape=alpha, scale=1.0 / alpha, size=n)
    y = rng.gamma(shape=beta, scale=1.0 / beta, size=n)
    return x * y


def _turbulence(cfg: TurbulenceConfig, rows: np.ndarray, rng) -> np.ndarray:
    """One atmospheric fade per state: sample its transmissivity, apply pure loss."""
    # Mean power kept under Gaussian pointing jitter: exp(-2 (sigma_p/w0)^2),
    # 0 once the square overflows.
    with np.errstate(over="ignore"):
        eta = (
            float(np.exp(-2.0 * np.float64(cfg.sigma_p / cfg.w0) ** 2))
            * _scintillation(cfg.rytov_var, rng, len(rows))
            * 10.0 ** (-cfg.path_loss_db / 10.0)
        )
    return _pure_loss(np.clip(eta, 0.0, 1.0), rows)


# --- polarization-mode dispersion surrogate ---


def _pmd(cfg: PMDConfig, rows: np.ndarray, rng) -> np.ndarray:
    """Concatenated-section PMD: per section, dephase by the section's
    coherence factor about a uniformly random polarization axis n.

    One section maps rho -> nu rho + (1-nu)(P rho P + Q rho Q) with
    P = (I + n.sigma)/2 and Q = I - P, which in Bloch form is
    r -> nu r + (1-nu)(n.r) n, and t is kept.  The per-section delay is
    dgd / sqrt(n_sections) so section delays add in quadrature to the
    configured total, and the coherence factor for a Gaussian spectrum
    is nu = exp(-(sigma_omega * tau_sec)^2 / 2).

    The Bloch columns are held as one (3, n) stack, so each section is a
    few contiguous row operations.  Each section still draws its axes as one
    (n, 3) standard-normal block, in section order, and normalizes them with
    the same sums as ``np.linalg.norm``, so the random stream and every
    output bit match an (n, 3) state-per-row recurrence.  Sections are drawn
    one at a time, so at most one section's axes are held.
    """
    tau_sec = cfg.dgd / np.sqrt(cfg.n_sections)
    # nu is 0 once the square overflows.
    with np.errstate(over="ignore"):
        nu = float(np.exp(-((cfg.sigma_omega * tau_sec) ** 2) / 2.0))
    r = np.ascontiguousarray(rows[:, 1:].T)
    for _ in range(cfg.n_sections):
        axis = np.ascontiguousarray(rng.standard_normal((len(rows), 3)).T)
        axis /= np.sqrt((axis * axis).sum(axis=0))
        r = nu * r + (1.0 - nu) * (axis * r).sum(axis=0) * axis
    out = np.empty_like(rows)
    out[:, 0] = rows[:, 0]
    out[:, 1:] = r.T
    return out


_STOCHASTIC_KERNELS = {"turbulence": _turbulence, "pmd": _pmd}


class Channel:
    """Config-dispatched channel on qubits; erasure's output has a flag level.

    Deterministic channels ignore the ``rng`` argument; stochastic ones
    (turbulence, PMD) require it so the caller controls every random stream
    explicitly.
    """

    def __init__(self, config: ChannelConfig, input_dim: int = 2):
        if input_dim != 2:
            raise ValueError(
                f"{config.kind} channel is defined on qubits, got input_dim {input_dim}"
            )
        self.config = config
        self.output_dim = 3 if config.kind == "erasure" else 2
        # The 4x4 matrix a deterministic channel applies to rows
        # (``map_rows``); None for a stochastic one.
        self.transfer = None if self.is_stochastic else _transfer_matrix(config)

    @property
    def is_stochastic(self) -> bool:
        return self.config.kind in _STOCHASTIC_KERNELS

    def apply_rows(self, rows: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Map (n, 4) checked rows (from ``state_rows``, ``codebook.rows`` or
        ``check_rows``) in one array pass, by its ``transfer`` matrix or, for a
        stochastic channel, drawing every row's randomness from ``rng``, and
        check the output rows once."""
        if not self.is_stochastic:
            return check_rows(map_rows(self.transfer, rows))
        if rng is None:
            raise ValueError(f"{self.config.kind} channel is stochastic and requires an rng")
        return check_rows(_STOCHASTIC_KERNELS[self.config.kind](self.config, rows, rng))

    def apply(self, rho: DensityMatrix, rng: np.random.Generator | None = None) -> DensityMatrix:
        """Map one state: :meth:`apply_rows` on its row."""
        rows = self.apply_rows(state_rows(rho.mat[np.newaxis], 2), rng)
        return DensityMatrix(from_rows(rows, self.output_dim)[0])
