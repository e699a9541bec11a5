"""Qubit states: Pauli rows for a run and for every batch operation.

A run carries each state as the real row (t, x, y, z) of its qubit block,
rho = (t I + x X + y Y + z Z) / 2, with the erasure flag's weight 1 - t,
and every batch operation takes such (n, 4) rows.  A complex stack or POVM
is therefore accepted only in the two shapes rows represent: 2x2 (a
qubit), or 3x3 with the qubit block and the flag uncoupled within ``TOL``.
A caller's stack becomes rows in one place, :func:`state_rows`:
:func:`check_states` checks it once, in one vectorized pass
(:func:`check_structure`: shape, finite, Hermitian, uncoupled flag; then
unit trace and positive semidefinite), and :func:`to_rows` converts it;
:func:`from_rows` converts back.  Rows, states and POVM elements share one
closed-form positive-semidefinite criterion, :func:`smallest_eigenvalue`:
min((t - |r|) / 2, flag entry) at least -``TOL``; no check takes a
spectrum.  A checked stack that is shared, such as a codebook's, is
marked read-only.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance of every state invariant (Hermiticity, trace, spectrum).
TOL = 1e-9
# Eigenvalues at or below this are outside the support in inv_sqrt_psd.
EIG_CUT = 1e-10


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state or operator contract."""


def hermitize(m) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack: (m + m^dagger) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


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
        sym = check_states(np.asarray(mat, dtype=complex)[np.newaxis])
        sym.flags.writeable = False
        self.mat = sym[0]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def make_pure_states(kets) -> np.ndarray:
    """Read-only (n, d, d) stack of the rank-1 projectors |v><v| of an (n, d)
    array of normalized kets, d = 2 (a qubit) or 3 (a qubit and a flag).

    Each ket must be of unit norm within ``TOL``, and the projectors pass
    :func:`check_structure`, which rejects non-finite kets and other
    lengths.  A normalized ket's projector has unit trace and is positive
    semidefinite by construction, so that check is left to the stack's one
    consumer check (a codebook's, in
    :class:`~qlinksim.modulation.DetectorCodebook`).  Each norm is
    sqrt(re.re + im.im) through the same BLAS dot that ``np.linalg.norm``
    takes for one vector, so every projector has the bits of the one-ket
    arithmetic.
    """
    kets = np.asarray(kets, dtype=complex)
    if kets.ndim != 2:
        raise InvalidStateError(f"kets must be an (n, d) array, got shape {kets.shape}")
    re, im = kets.real, kets.imag
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    off = np.abs(norms - 1.0) > TOL
    if np.any(off):
        raise InvalidStateError(f"amplitude vector norm {float(norms[np.argmax(off)])!r} is not 1")
    v = kets / norms[:, None]
    mats = check_structure(v[:, :, None] * v.conj()[:, None, :], "pure states")
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
