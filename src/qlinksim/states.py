"""Qubit states: Pauli rows for a run and for every batch operation.

A run carries each state as the real row (t, x, y, z) of its qubit block,
rho = (t I + x X + y Y + z Z) / 2, with the erasure flag's weight 1 - t,
and every batch operation takes such (n, 4) rows; a codebook and a POVM
hold rows as their data too, so a run builds no complex stack.  A complex
stack or POVM is therefore accepted only in the two shapes rows represent:
2x2 (a qubit), or 3x3 with the qubit block and the flag uncoupled within
``TOL``.  A caller's stack of states becomes rows in one place,
:func:`state_rows`: :func:`check_states` checks it once, in one vectorized
pass (:func:`check_structure`: shape, finite, Hermitian, uncoupled flag;
then unit trace and positive semidefinite), and :func:`to_rows` converts
it; :func:`from_rows` converts back.  Rows, states and POVM elements share
one closed-form positive-semidefinite criterion,
:func:`smallest_eigenvalue`: min((t - |r|) / 2, flag entry) at least
-``TOL``; no check takes a spectrum, and the package calls no eigensolver.
A linear map of rows, or a stack of maps, is applied by :func:`map_rows`.
A codebook's or a POVM's rows come in through :func:`as_rows` (a nonempty
(n, 4) stack of integers or floats, copied to floats).  A checked stack
that is shared, such as a codebook's, is marked read-only
(:func:`read_only`).
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance of every state invariant (Hermiticity, trace, spectrum).
TOL = 1e-9


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state or operator contract."""


def check_structure(mats, what: str) -> np.ndarray:
    """Hermitize a (n, d, d) stack of qubit (d = 2) or qubit-and-flag (d = 3)
    operators, after checking that it is one: ``what`` names the operators
    in the :class:`InvalidStateError` raised.

    Every entry must be finite, each matrix Hermitian within ``TOL`` before
    symmetrization, and for d = 3 the qubit block's coupling to the flag,
    the symmetrized entries [0, 2] and [1, 2], at most ``TOL`` in modulus.
    Any other shape is rejected.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] not in ((2, 2), (3, 3)):
        raise InvalidStateError(f"{what} must be square, 2x2 or 3x3, got shape {mats.shape[1:]}")
    if not np.isfinite(mats).all():
        raise InvalidStateError(f"{what} must be finite")
    adjoint = mats.conj().swapaxes(-1, -2)
    herm_dev = float(np.max(np.abs(mats - adjoint), initial=0.0))
    if herm_dev > TOL:
        raise InvalidStateError(
            f"{what} not Hermitian: max |m - m^dagger| = {herm_dev:.3e} exceeds {TOL:.1e}"
        )
    sym = (mats + adjoint) / 2.0
    coupling = float(np.abs(sym[:, :2, 2:]).max(initial=0.0))
    if coupling > TOL:
        raise InvalidStateError(f"{what} couple the qubit block to the flag by {coupling:.3e}")
    return sym


def smallest_eigenvalue(rows: np.ndarray, flags: np.ndarray | None = None) -> float:
    """Smallest eigenvalue over a stack of Hermitian qubit (or uncoupled
    qubit-and-flag) operators, in closed form: the least of
    (t - |(x, y, z)|) / 2 over the (n, 4) rows of their qubit blocks and of
    their real flag entries ``flags``, if given; inf for an empty stack.
    A block (t I + x X + y Y + z Z) / 2 has the eigenvalues (t -+ |r|) / 2.
    """
    low = float((rows[:, 0] - np.sqrt(np.square(rows[:, 1:]).sum(axis=1))).min(initial=np.inf))
    low /= 2.0
    return low if flags is None else min(low, float(flags.min(initial=np.inf)))


def check_states(mats) -> np.ndarray:
    """Hermitize a (n, d, d) stack of states and check each one's invariants.

    :func:`check_structure` checks the stack's shape, entries, Hermiticity
    and flag coupling; each symmetrized matrix must then have unit trace
    and a :func:`smallest_eigenvalue` of at least -``TOL``.  The first
    violation over the whole stack raises :class:`InvalidStateError`.
    """
    sym = check_structure(mats, "density matrices")
    traces = np.trace(sym, axis1=1, axis2=2).real
    trace_dev = float(np.max(np.abs(traces - 1.0), initial=0.0))
    if trace_dev > TOL:
        raise InvalidStateError(
            f"trace deviates from 1 by {trace_dev:.3e}, exceeds {TOL:.1e}"
        )
    min_eig = smallest_eigenvalue(to_rows(sym), sym[:, 2:, 2:].real)
    if min_eig < -TOL:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} below -{TOL:.1e}"
        )
    return sym


class DensityMatrix:
    """Validated quantum state.

    The wrapped matrix goes through :func:`check_states` as a stack of
    one: it must be 2x2, or 3x3 with the flag uncoupled, finite and
    Hermitian, and once hermitized of unit trace and of nonnegative
    spectrum within ``TOL``.  The stored array is
    marked read-only, so instances are safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = read_only(check_states(np.asarray(mat, dtype=complex)[np.newaxis]))[0]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


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
    dim = 3 the flag's weight 1 - t; any other ``dim`` raises a ValueError."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 (a qubit) or 3 (a qubit and a flag), got {dim!r}")
    t, x, y, z = rows.T
    mats = np.zeros((len(rows), dim, dim), dtype=complex)
    mats[:, 0, 0] = (t + z) / 2.0
    mats[:, 1, 1] = (t - z) / 2.0
    mats[:, 0, 1] = (x - 1j * y) / 2.0
    mats[:, 1, 0] = (x + 1j * y) / 2.0
    if dim == 3:
        mats[:, 2, 2] = 1.0 - t
    return mats


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: how a checked array is shared."""
    array.flags.writeable = False
    return array


def map_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A 4x4 ``matrix`` applied to (n, 4) rows, (n, 4) out, or a (c, 4, 4)
    stack of them, (c, n, 4) out, as four elementwise terms in column order
    added by ``sum``: no BLAS product, so a row's output depends neither on
    its batch nor on the stack, and each slice of a stack's map has the bits,
    signed zeros included, of its own matrix's map."""
    return sum(rows[:, j, None] * matrix[..., None, :, j] for j in range(4))


def as_rows(rows, owner: str, count: str) -> np.ndarray:
    """A float copy of the ``rows`` field of ``owner``: a caller's nonempty
    (``count``, 4) stack of integers or floats.  Another shape is a
    ValueError, and a bool, complex, string or object dtype a TypeError."""
    array = np.asarray(rows)
    if array.ndim != 2 or len(array) == 0 or array.shape[1] != 4:
        raise ValueError(
            f"{owner} needs a nonempty ({count}, 4) row stack, got shape {array.shape}"
        )
    if array.dtype.kind not in "iuf":
        raise TypeError(f"{owner} rows must be integers or floats, got dtype {array.dtype}")
    return array.astype(float)


def check_rows(rows: np.ndarray) -> np.ndarray:
    """Check (n, 4) rows elementwise and return them: finite, block weight
    t <= 1 within ``TOL``, and a :func:`smallest_eigenvalue` of at least
    -``TOL``, the criterion :func:`check_states` applies (so t >= -2 ``TOL``).
    The first violation over the stack raises :class:`InvalidStateError`."""
    if not np.isfinite(rows).all():
        raise InvalidStateError("state rows must be finite")
    weight = float(rows[:, 0].max(initial=0.0))
    if weight > 1.0 + TOL:
        raise InvalidStateError(f"qubit block weight {weight:.3e} exceeds 1 by more than {TOL:.1e}")
    min_eig = smallest_eigenvalue(rows)
    if min_eig < -TOL:
        raise InvalidStateError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} below -{TOL:.1e}"
        )
    return rows


def state_rows(mats, dim: int | None = None) -> np.ndarray:
    """(n, 4) checked rows of a caller's (n, d, d) stack of states: the one
    crossing from complex stacks to rows.  :func:`check_states` checks the
    stack once; with ``dim``, its states must be dim x dim.  A qubit stack's
    Bloch coordinates are ``state_rows(mats, 2)[:, 1:]``."""
    states = check_states(mats)
    if dim is not None and states.shape[-1] != dim:
        raise ValueError(f"expected states of dim {dim}, got dim {states.shape[-1]}")
    return to_rows(states)
