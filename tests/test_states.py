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
from qlinksim.states import TOL, check_states, make_pure_states, min_eigenvalues


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


class TestDensityMatrixStack:
    def test_matches_one_state_construction(self):
        rng = np.random.default_rng(22)
        raw = np.stack([random_density(rng, 3).mat for _ in range(12)])
        raw = raw + 1e-12j * rng.standard_normal(raw.shape)
        states = DensityMatrix.stack(raw)
        assert len(states) == 12
        for state, m in zip(states, raw):
            assert isinstance(state, DensityMatrix) and state.dim == 3
            assert np.array_equal(state.mat, DensityMatrix(m).mat)
            with pytest.raises(ValueError):
                state.mat[0, 0] = 1.0

    def test_one_check_for_the_stack(self, monkeypatch):
        from qlinksim import states as states_module

        calls = []
        real = states_module.check_states

        def counting(mats):
            calls.append(len(mats))
            return real(mats)

        monkeypatch.setattr(states_module, "check_states", counting)
        make_pure_states([[1, 0], [0, 1], [0.6, 0.8j]])
        assert calls == [3]

    def test_one_bad_state_rejects_the_stack(self):
        raw = np.stack([np.eye(2) / 2, np.diag([1.2, -0.2])])
        with pytest.raises(InvalidStateError, match="positive"):
            DensityMatrix.stack(raw)
        with pytest.raises(InvalidStateError, match="norm"):
            make_pure_states([[1, 0], [1, 1]])

    def test_make_pure_states_match_one_state_projectors(self):
        rng = np.random.default_rng(23)
        kets = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        for state, ket in zip(make_pure_states(kets), kets):
            v = ket / float(np.linalg.norm(ket))
            assert np.array_equal(state.mat, DensityMatrix(np.outer(v, v.conj())).mat)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_make_pure_states_match_one_ket_loop(self, dim):
        rng = np.random.default_rng(23)
        kets = rng.standard_normal((2000, dim)) + 1j * rng.standard_normal((2000, dim))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        kets[:dim] = np.eye(dim)  # exact basis kets, with zero amplitudes
        ref = []
        for ket in kets:
            # The one-ket arithmetic the stack expression replaces.
            v = np.asarray(ket, dtype=complex).ravel()
            v = v / float(np.linalg.norm(v))
            m = np.outer(v, v.conj())
            ref.append((m + m.conj().T) / 2.0)
        assert np.array_equal(np.stack([s.mat for s in make_pure_states(kets)]), np.stack(ref))

    def test_make_pure_states_names_the_first_bad_norm(self):
        with pytest.raises(InvalidStateError, match=r"norm 2\.0 is not 1"):
            make_pure_states([[1, 0], [0, 2], [0, 3]])


def hermitian_qubits(kind: str, n: int = 2000) -> np.ndarray:
    """(n, 2, 2) Hermitian stacks that stress the closed-form spectrum."""
    rng = np.random.default_rng(31)
    z = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    if kind == "rank1":
        v = z[:, 0]
        return v[:, :, None] * v.conj()[:, None, :]
    if kind == "degenerate":  # a = d, b = 0: a multiple of the identity
        return rng.standard_normal(n)[:, None, None] * np.eye(2)
    m = (z + z.conj().swapaxes(-1, -2)) / 2.0
    if kind == "large_b":
        m[:, 0, 1] *= 1e6
        m[:, 1, 0] *= 1e6
    return m


def rotated_diagonal(spectrum, seed: int) -> np.ndarray:
    """A stack of one matrix U diag(spectrum) U^dagger with a random unitary U."""
    rng = np.random.default_rng(seed)
    d = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return ((q * np.asarray(spectrum, dtype=float)) @ q.conj().T)[np.newaxis]


class TestMinEigenvalues:
    @pytest.mark.parametrize("kind", ["random", "rank1", "degenerate", "large_b"])
    def test_qubit_closed_form_matches_eigvalsh(self, kind):
        m = hermitian_qubits(kind)
        ref = np.linalg.eigvalsh(m)
        scale = np.maximum(1.0, np.abs(ref).max(axis=1))
        assert np.all(np.abs(min_eigenvalues(m) - ref[:, 0]) <= 1e-14 * scale)

    def test_degenerate_qubits_are_exact(self):
        m = hermitian_qubits("degenerate")
        assert np.array_equal(min_eigenvalues(m), m[:, 0, 0].real)

    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_other_dimensions_use_eigvalsh(self, dim):
        rng = np.random.default_rng(32)
        m = np.stack([random_density(rng, dim).mat for _ in range(30)])
        assert np.array_equal(min_eigenvalues(m), np.linalg.eigvalsh(m)[:, 0])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_accept_reject_edge_at_tol(self, dim):
        for k, x in enumerate((0.99 * TOL, 1.01 * TOL)):
            spectrum = np.zeros(dim)
            spectrum[0], spectrum[-1] = 1.0 + x, -x
            mats = rotated_diagonal(spectrum, seed=33 + k)
            if x < TOL:
                check_states(mats)
            else:
                with pytest.raises(InvalidStateError, match="positive semidefinite"):
                    check_states(mats)


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
