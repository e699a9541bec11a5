import numpy as np
import pytest
from conftest import random_density, random_pure

from qlinksim import (
    DegenerateStateError,
    DensityMatrix,
    InvalidStateError,
    bloch_xyz,
    hermitize,
    inv_sqrt_psd,
    leading_blocks,
    make_pure,
    purity,
)
from qlinksim.states import check_states


def bloch(rho):
    return bloch_xyz(rho.mat[np.newaxis])[0]


class TestMakePure:
    def test_basis_state(self):
        rho = make_pure([1, 0])
        assert np.allclose(rho.mat, [[1, 0], [0, 0]])

    def test_plus_state(self):
        rho = make_pure([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(rho.mat, [[0.5, 0.5], [0.5, 0.5]])

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidStateError, match="norm"):
            make_pure([1, 1])

    def test_complex_amplitudes_give_pure_state(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_pure(rng, 4)
            assert purity(rho) == pytest.approx(1.0, abs=1e-12)


class TestValidateDensity:
    def test_maximally_mixed_accepted(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.dim == 2

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError, match="positive"):
            DensityMatrix([[1.2, 0], [0, -0.2]])

    def test_tiny_asymmetry_symmetrized(self):
        m = np.array([[0.5, 0.5 + 1e-12j], [0.5 - 1e-12j, 0.5]])
        rho = DensityMatrix(m)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) == 0.0

    def test_asymmetry_within_tol_hermitized(self):
        m = np.array([[0.5, 0.5 + 1e-10j], [0.5, 0.5]])
        rho = DensityMatrix(m)
        assert np.allclose(rho.mat, rho.mat.conj().T)

    def test_bad_trace_rejected(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix([[0.5, 1.0], [0.0, 0.5]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidStateError, match="square"):
            DensityMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidStateError, match="finite"):
            DensityMatrix(np.full((2, 2), bad))
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InvalidStateError, match="finite"):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.9


class TestCheckStates:
    def test_matches_per_state_construction(self):
        rng = np.random.default_rng(20)
        states = [random_density(rng, 3) for _ in range(25)]
        raw = np.stack([s.mat for s in states]) + 1e-12j * rng.standard_normal((25, 3, 3))
        batch = check_states(raw)
        for row, m in zip(batch, raw):
            assert np.array_equal(row, DensityMatrix(m).mat)

    def test_one_bad_state_rejects_the_batch(self):
        rng = np.random.default_rng(21)
        stack = np.stack([random_density(rng, 2).mat for _ in range(10)])
        stack[7] = np.diag([1.2, -0.2])
        with pytest.raises(InvalidStateError, match="positive"):
            check_states(stack)
        stack[7] = np.full((2, 2), np.nan)
        with pytest.raises(InvalidStateError, match="finite"):
            check_states(stack)

    def test_stack_shape_required(self):
        with pytest.raises(InvalidStateError, match="square"):
            check_states(np.eye(2) / 2)


class TestHermitize:
    def test_formula(self):
        out = hermitize([[1, 1j], [0, 1]])
        assert np.allclose(out, [[1, 0.5j], [-0.5j, 1]])

    def test_hermitian_fixed_point(self):
        m = np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]])
        assert np.allclose(hermitize(m), m)

    def test_zero(self):
        assert np.all(hermitize(np.zeros((3, 3))) == 0)


class TestInvSqrtPsd:
    def test_pseudo_inverse_on_singular_diagonal(self):
        out = inv_sqrt_psd(np.diag([4.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(2)), np.eye(2))

    def test_maximally_mixed_qubit(self):
        assert np.allclose(inv_sqrt_psd(np.eye(2) / 2), np.sqrt(2) * np.eye(2))

    def test_fully_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            inv_sqrt_psd(np.zeros((2, 2)))

    def test_support_projector_property(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            dim = int(rng.integers(3, 7))
            rank = int(rng.integers(1, dim))
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            m = g @ g.conj().T
            s = inv_sqrt_psd(m)
            vals, vecs = np.linalg.eigh(m)
            keep = vecs[:, vals > 1e-10]
            proj = keep @ keep.conj().T
            assert np.max(np.abs(s @ m @ s - proj)) <= 1e-8


class TestBlochVector:
    def test_basis_states(self):
        assert bloch(make_pure([1, 0])) == pytest.approx((0, 0, 1))
        s = 1 / np.sqrt(2)
        assert bloch(make_pure([s, s])) == pytest.approx((1, 0, 0))

    def test_maximally_mixed_at_origin(self):
        vec = bloch(DensityMatrix(np.eye(2) / 2))
        assert np.linalg.norm(vec) == pytest.approx(0.0, abs=1e-12)

    def test_y_axis_sign(self):
        # (|0> + i|1>)/sqrt(2) points along +y, its conjugate along -y
        s = 1 / np.sqrt(2)
        assert bloch(make_pure([s, 1j * s])) == pytest.approx((0, 1, 0))
        assert bloch(make_pure([s, -1j * s])) == pytest.approx((0, -1, 0))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError, match="dim 2"):
            bloch(DensityMatrix(np.eye(3) / 3))

    def test_pure_states_on_sphere_mixed_inside(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            assert np.linalg.norm(bloch(random_pure(rng, 2))) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(bloch(random_density(rng, 2))) <= 1 + 1e-9


class TestLeadingQubitBlock:
    def test_qubit_is_identity_projection(self):
        rng = np.random.default_rng(18)
        rho = random_density(rng, 2)
        (block,), (t,) = leading_blocks(rho.mat[None])
        assert t == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(block, rho.mat)

    def test_enlarged_block_structure(self):
        p = 0.25
        inner = make_pure([0.6, 0.8])
        big = np.zeros((3, 3), dtype=complex)
        big[:2, :2] = (1 - p) * inner.mat
        big[2, 2] = p
        (block,), (t,) = leading_blocks(DensityMatrix(big).mat[None])
        assert t == pytest.approx(1 - p, abs=1e-12)
        assert np.allclose(block, inner.mat)

    def test_depleted_block_flagged(self):
        fully_erased = np.diag([0.0, 0.0, 1.0]).astype(complex)
        (block,), (t,) = leading_blocks(DensityMatrix(fully_erased).mat[None])
        assert t == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(block, np.eye(2) / 2)

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            leading_blocks(DensityMatrix([[1.0]]).mat[None])


class TestPurity:
    def test_pure(self):
        rng = np.random.default_rng(19)
        assert purity(random_pure(rng, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_half_depolarized_pure_state(self):
        rho = make_pure([1, 0])
        mixed = DensityMatrix(0.5 * rho.mat + 0.5 * np.eye(2) / 2)
        assert purity(mixed) == pytest.approx(0.625, abs=1e-12)
