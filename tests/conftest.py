"""Shared helpers: reproducible random states for property tests."""

import numpy as np

from qlinksim import DensityMatrix, make_pure_states


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_pure_states([v / np.linalg.norm(v)])[0]


def pure(*amplitudes) -> np.ndarray:
    """The checked projector |v><v| of one normalized amplitude vector."""
    return make_pure_states([amplitudes])[0]


def purity(mats) -> np.ndarray:
    """Tr(rho^2) of a (d, d) matrix or of each matrix of a stack."""
    mats = np.asarray(mats)
    return np.einsum("...ij,...ji->...", mats, mats).real
