"""Density-matrix states and the linear-algebra primitives shared by all modules.

Every state that crosses a module boundary is a :class:`DensityMatrix`
(one state) or a stack checked by :func:`check_states` (a batch): a
finite, Hermitian, positive-semidefinite, unit-trace complex matrix.
The check symmetrizes its input once and tests every invariant with one
vectorized pass over the stack, so downstream code never has to
re-verify what it receives.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state contract."""


class DegenerateStateError(InvalidStateError):
    """An operator has no numerical support above the eigenvalue cutoff."""


class BlochVector(NamedTuple):
    """Qubit state coordinates under rho = (I + x*sx + y*sy + z*sz) / 2."""

    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix: (m + m^dagger) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2.0


def check_states(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitize a (n, d, d) stack of states and check each one's invariants.

    Every entry must be finite, each matrix Hermitian within ``tol``
    before symmetrization, and each symmetrized matrix of unit trace and
    nonnegative spectrum within ``tol``.  The first violation over the
    whole stack raises :class:`InvalidStateError`.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
        raise InvalidStateError(
            f"density matrix must be square and nonempty, got shape {mats.shape[1:]}"
        )
    if not np.all(np.isfinite(mats)):
        raise InvalidStateError("density matrix entries must be finite")
    adjoint = mats.conj().swapaxes(-1, -2)
    herm_dev = float(np.max(np.abs(mats - adjoint), initial=0.0))
    if herm_dev > tol:
        raise InvalidStateError(
            f"not Hermitian: max |m - m^dagger| = {herm_dev:.3e} exceeds {tol:.1e}"
        )
    sym = (mats + adjoint) / 2.0
    traces = np.trace(sym, axis1=1, axis2=2).real
    trace_dev = float(np.max(np.abs(traces - 1.0), initial=0.0))
    if trace_dev > tol:
        raise InvalidStateError(
            f"trace deviates from 1 by {trace_dev:.3e}, exceeds {tol:.1e}"
        )
    min_eig = float(np.min(np.linalg.eigvalsh(sym), initial=0.0))
    if min_eig < -tol:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} below -{tol:.1e}"
        )
    return sym


class DensityMatrix:
    """Validated quantum state.

    The wrapped matrix goes through :func:`check_states` as a stack of
    one: it is hermitized and then required to be finite, of unit trace
    and of nonnegative spectrum within ``tol``.  The stored array is
    marked read-only, so instances are safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, tol: float = DEFAULT_TOL):
        sym = check_states(np.asarray(mat, dtype=complex)[np.newaxis], tol)[0]
        sym.flags.writeable = False
        self.mat = sym

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def validate_density(m, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Wrap ``m`` as a DensityMatrix, raising a diagnostic error on violation."""
    return DensityMatrix(m, tol=tol)


def make_pure(amplitudes) -> DensityMatrix:
    """Rank-1 projector |v><v| from a normalized amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise InvalidStateError(f"amplitude vector norm {norm!r} is not 1")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()))


def _eigh_checked(m: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(f"{what} requires a square matrix, got shape {m.shape}")
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > DEFAULT_TOL:
        raise InvalidStateError(
            f"{what} requires a Hermitian matrix (deviation {herm_dev:.3e})"
        )
    return np.linalg.eigh(hermitize(m))


def mat_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-1e-9, 0) are treated as floating-point drift and
    clamped to zero; anything more negative is rejected.
    """
    vals, vecs = _eigh_checked(m, "matrix square root")
    if float(vals[0]) < -DEFAULT_TOL:
        raise InvalidStateError(
            f"matrix square root requires PSD input (min eigenvalue {vals[0]:.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return hermitize((vecs * np.sqrt(vals)) @ vecs.conj().T)


def inv_sqrt_psd(m, eig_cut: float = 1e-10) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues <= eig_cut map to 0, else to 1/sqrt.

    The fixed cutoff keeps detector construction deterministic when the
    input is nearly singular.
    """
    vals, vecs = _eigh_checked(m, "inverse square root")
    support = vals > eig_cut
    if not np.any(support):
        raise DegenerateStateError(
            f"all eigenvalues at or below cutoff {eig_cut:.1e}; no support to invert"
        )
    inv = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return hermitize((vecs * inv) @ vecs.conj().T)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices (dimensions multiply)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_second(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second factor of a (dim_a*dim_b)-dimensional bipartite matrix."""
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} matrix for dims ({dim_a}, {dim_b}), got {m.shape}"
        )
    return np.trace(m.reshape(dim_a, dim_b, dim_a, dim_b), axis1=1, axis2=3)


def bloch_xyz(mats) -> np.ndarray:
    """(n, 3) Bloch coordinates of a (n, 2, 2) stack of qubit matrices."""
    mats = np.asarray(mats, dtype=complex)
    return np.stack(
        [
            2.0 * mats[:, 0, 1].real,
            -2.0 * mats[:, 0, 1].imag,
            mats[:, 0, 0].real - mats[:, 1, 1].real,
        ],
        axis=1,
    )


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    """Bloch coordinates of a qubit state."""
    if rho.dim != 2:
        raise ValueError(f"Bloch vector is defined for dim 2, got dim {rho.dim}")
    return BlochVector(*bloch_xyz(rho.mat[np.newaxis])[0].tolist())


def leading_blocks(mats, trace_floor: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized top-left 2x2 blocks of a (n, d, d) stack, and their traces.

    Blocks whose trace falls below ``trace_floor`` carry no information
    and are replaced by the maximally mixed qubit (not an error).
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-1] < 2:
        raise ValueError(f"need dim >= 2 to take a qubit block, got dim {mats.shape[-1]}")
    block = mats[:, :2, :2]
    traces = np.trace(block, axis1=1, axis2=2).real
    depleted = traces < trace_floor
    scaled = block / np.where(depleted, 1.0, traces)[:, None, None]
    scaled[depleted] = np.eye(2) / 2.0
    return (scaled + scaled.conj().swapaxes(-1, -2)) / 2.0, traces


def leading_qubit_block(
    rho: DensityMatrix, trace_floor: float = DEFAULT_TOL
) -> tuple[DensityMatrix, float]:
    """Renormalized top-left 2x2 block and its pre-normalization trace.

    The returned trace lets callers flag depleted states: below
    ``trace_floor`` the projection carries no information, so the
    maximally mixed qubit is returned instead (not an error).
    """
    blocks, traces = leading_blocks(rho.mat[np.newaxis], trace_floor)
    return DensityMatrix(blocks[0]), float(traces[0])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2): 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.trace(rho.mat @ rho.mat).real)
