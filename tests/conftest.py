"""Shared helpers: reproducible random states for property tests."""

import numpy as np

from qlinksim import DensityMatrix, make_pure


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(rng: np.random.Generator, dim: int) -> DensityMatrix:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_pure(v / np.linalg.norm(v))
