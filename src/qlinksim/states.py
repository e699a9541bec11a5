"""Qubit states: Pauli rows for a run, checked complex stacks at the API boundary.

A run carries each state as the real row (t, x, y, z) of its qubit block,
rho = (t I + x X + y Y + z Z) / 2, with the erasure flag's weight 1 - t.
A caller's complex (n, d, d) stack becomes rows in one place,
:func:`state_rows`: :func:`check_states` checks it once, in one vectorized
pass (finite, Hermitian, positive-semidefinite, closed form for qubits,
unit trace), and :func:`to_rows` converts it.  Rows and stacks share one
positive-semidefinite criterion: smallest eigenvalue, (t - |r|) / 2 on a
qubit block, at least -``TOL``.  A checked stack that is shared, such as
a codebook's, is marked read-only.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance of every state invariant (Hermiticity, trace, spectrum).
TOL = 1e-9
# Eigenvalues at or below this are outside the support in inv_sqrt_psd.
EIG_CUT = 1e-10


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state contract."""


class DegenerateStateError(InvalidStateError):
    """An operator has no numerical support above the eigenvalue cutoff."""


def hermitize(m) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack: (m + m^dagger) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def min_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a hermitized (n, d, d) stack.

    A qubit [[a, b], [b*, d]] has the closed-form spectrum
    (a + d)/2 -+ hypot((a - d)/2, |b|), so 2x2 stacks need no LAPACK call;
    other dimensions go through ``np.linalg.eigvalsh``.
    """
    if sym.shape[-1] != 2:
        return np.linalg.eigvalsh(sym)[..., 0]
    a, d = sym[:, 0, 0].real, sym[:, 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(sym[:, 0, 1]))


def check_states(mats) -> np.ndarray:
    """Hermitize a (n, d, d) stack of states and check each one's invariants.

    Every entry must be finite, each matrix Hermitian within ``TOL``
    before symmetrization, and each symmetrized matrix of unit trace and
    nonnegative spectrum within ``TOL``.  The first violation over the
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
    if herm_dev > TOL:
        raise InvalidStateError(
            f"not Hermitian: max |m - m^dagger| = {herm_dev:.3e} exceeds {TOL:.1e}"
        )
    sym = (mats + adjoint) / 2.0
    traces = np.trace(sym, axis1=1, axis2=2).real
    trace_dev = float(np.max(np.abs(traces - 1.0), initial=0.0))
    if trace_dev > TOL:
        raise InvalidStateError(
            f"trace deviates from 1 by {trace_dev:.3e}, exceeds {TOL:.1e}"
        )
    min_eig = float(np.min(min_eigenvalues(sym), initial=0.0))
    if min_eig < -TOL:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} below -{TOL:.1e}"
        )
    return sym


class DensityMatrix:
    """Validated quantum state.

    The wrapped matrix goes through :func:`check_states` as a stack of
    one: it is hermitized and then required to be finite, of unit trace
    and of nonnegative spectrum within ``TOL``.  The stored array is
    marked read-only, so instances are safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        sym = check_states(np.asarray(mat, dtype=complex)[np.newaxis])
        sym.flags.writeable = False
        self.mat = sym[0]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def make_pure_states(kets) -> np.ndarray:
    """Read-only (n, d, d) stack of the rank-1 projectors |v><v| of normalized
    amplitude vectors, checked once by :func:`check_states`.

    Each norm is sqrt(re.re + im.im) through the same BLAS dot that
    ``np.linalg.norm`` takes for one vector, so every projector has the
    bits of the one-ket arithmetic.
    """
    kets = np.asarray(kets, dtype=complex)
    kets = kets.reshape(len(kets), -1)
    re, im = kets.real, kets.imag
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    off = np.abs(norms - 1.0) > TOL
    if np.any(off):
        raise InvalidStateError(f"amplitude vector norm {float(norms[np.argmax(off)])!r} is not 1")
    v = kets / norms[:, None]
    mats = check_states(v[:, :, None] * v.conj()[:, None, :])
    mats.flags.writeable = False
    return mats


def inv_sqrt_psd(m) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian matrix, such as the mean of a
    checked stack: eigenvalues <= EIG_CUT map to 0, else to 1/sqrt.

    The fixed cutoff keeps detector construction deterministic when the
    input is nearly singular.
    """
    vals, vecs = np.linalg.eigh(hermitize(m))
    support = vals > EIG_CUT
    if not np.any(support):
        raise DegenerateStateError(
            f"all eigenvalues at or below cutoff {EIG_CUT:.1e}; no support to invert"
        )
    inv = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return hermitize((vecs * inv) @ vecs.conj().T)


def to_rows(mats) -> np.ndarray:
    """(n, 4) rows (t, x, y, z) of the leading qubit blocks of a (n, d, d)
    stack; entries outside the blocks are not read."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 2:
        raise ValueError(f"need a (n, d, d) stack with d >= 2, got shape {mats.shape}")
    rows = np.empty((len(mats), 4))
    rows[:, 0] = mats[:, 0, 0].real + mats[:, 1, 1].real
    rows[:, 1] = mats[:, 0, 1].real + mats[:, 1, 0].real
    rows[:, 2] = mats[:, 1, 0].imag - mats[:, 0, 1].imag
    rows[:, 3] = mats[:, 0, 0].real - mats[:, 1, 1].real
    return rows


def from_rows(rows: np.ndarray, dim: int = 2) -> np.ndarray:
    """(n, dim, dim) Hermitian stack of (n, 4) rows: the qubit block, and for
    dim = 3 the flag's weight 1 - t."""
    t, x, y, z = rows.T
    mats = np.zeros((len(rows), dim, dim), dtype=complex)
    mats[:, 0, 0] = (t + z) / 2.0
    mats[:, 1, 1] = (t - z) / 2.0
    mats[:, 0, 1] = (x - 1j * y) / 2.0
    mats[:, 1, 0] = (x + 1j * y) / 2.0
    if dim == 3:
        mats[:, 2, 2] = 1.0 - t
    return mats


def check_rows(rows: np.ndarray) -> np.ndarray:
    """Check (n, 4) rows elementwise and return them: finite, block weight
    t <= 1 and smallest block eigenvalue (t - |(x, y, z)|) / 2 >= 0, each
    within ``TOL``, the spectrum tolerance :func:`check_states` applies (so
    t >= -2 ``TOL``).  The first violation over the stack raises
    :class:`InvalidStateError`."""
    if not np.isfinite(rows).all():
        raise InvalidStateError("state rows must be finite")
    weight = float(rows[:, 0].max(initial=0.0))
    if weight > 1.0 + TOL:
        raise InvalidStateError(f"qubit block weight {weight:.3e} exceeds 1 by more than {TOL:.1e}")
    excess = float((np.sqrt(np.square(rows[:, 1:]).sum(axis=1)) - rows[:, 0]).max(initial=0.0))
    if excess / 2.0 > TOL:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {-excess / 2.0:.3e} below -{TOL:.1e}"
        )
    return rows


def state_rows(mats, dim: int | None = None) -> np.ndarray:
    """(n, 4) rows of a caller's (n, d, d) stack of states: the one crossing
    from complex stacks to rows.  :func:`check_states` checks the stack
    once; with ``dim``, its states must be dim x dim."""
    states = check_states(mats)
    if dim is not None and states.shape[-1] != dim:
        raise ValueError(f"expected states of dim {dim}, got dim {states.shape[-1]}")
    return to_rows(states)


def bloch_xyz(mats) -> np.ndarray:
    """(n, 3) Bloch coordinates of a (n, 2, 2) stack of qubit states."""
    return state_rows(mats, 2)[:, 1:]
