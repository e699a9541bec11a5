import numpy as np
import pytest
from conftest import pure, purity, random_density, random_pure

from qlinksim import (
    POVM,
    Channel,
    DensityMatrix,
    DepolarizingConfig,
    DetectorCodebook,
    ErasureConfig,
    InvalidStateError,
    build_pgm,
    decide,
    embed_povm_with_erasure,
    measurement_scores,
    project_rows,
    qam_codebook,
    qpsk_codebook,
)
from qlinksim import channels, detection, modulation, states, visualization
from qlinksim.states import (
    TOL,
    check_states,
    hermitize,
    check_rows,
    from_rows,
    inv_sqrt_psd,
    make_pure_states,
    smallest_eigenvalue,
    state_rows,
    to_rows,
)


def bloch(mat):
    return state_rows(np.asarray(mat)[np.newaxis], 2)[0, 1:]


class TestMakePure:
    def test_basis_state(self):
        assert np.allclose(pure(1, 0), [[1, 0], [0, 0]])

    def test_plus_state(self):
        assert np.allclose(pure(1 / np.sqrt(2), 1 / np.sqrt(2)), [[0.5, 0.5], [0.5, 0.5]])

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidStateError, match="norm"):
            pure(1, 1)

    def test_complex_amplitudes_give_pure_state(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_pure(rng, 2)
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
        # Codebook states are qubits.
        rng = np.random.default_rng(22)
        raw = np.stack([random_density(rng, 2).mat for _ in range(12)])
        raw = raw + 1e-12j * rng.standard_normal(raw.shape)
        mats = check_states(raw)
        mats.flags.writeable = False
        codebook = DetectorCodebook(mats=mats, priors=np.full(12, 1 / 12), bit_labels=np.eye(12))
        states = codebook.states
        assert len(states) == 12
        for state, m in zip(states, raw):
            assert isinstance(state, DensityMatrix) and state.dim == 2
            assert np.array_equal(state.mat, DensityMatrix(m).mat)
            with pytest.raises(ValueError):
                state.mat[0, 0] = 1.0

    def test_one_check_for_the_stack(self, monkeypatch):
        # make_pure_states leaves the trace and spectrum to the codebook.
        calls = []
        real = states.check_states

        def counting(mats):
            calls.append(len(mats))
            return real(mats)

        for module in (states, modulation):
            monkeypatch.setattr(module, "check_states", counting)
        qam_codebook(64)
        assert calls == [64]

    def test_one_bad_state_rejects_the_stack(self):
        raw = np.stack([np.eye(2) / 2, np.diag([1.2, -0.2])])
        with pytest.raises(InvalidStateError, match="positive"):
            check_states(raw)
        with pytest.raises(InvalidStateError, match="norm"):
            make_pure_states([[1, 0], [1, 1]])

    def test_make_pure_states_match_one_state_projectors(self):
        # Kets on a qubit and a flag: in the qubit block, or on the flag.
        rng = np.random.default_rng(23)
        kets = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        kets[:15, 2] = 0.0
        kets[15:, :2] = 0.0
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        mats = make_pure_states(kets)
        assert mats.shape == (20, 3, 3) and not mats.flags.writeable
        for mat, ket in zip(mats, kets):
            v = ket / float(np.linalg.norm(ket))
            assert np.array_equal(mat, DensityMatrix(np.outer(v, v.conj())).mat)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_make_pure_states_match_one_ket_loop(self, dim):
        rng = np.random.default_rng(23)
        kets = rng.standard_normal((2000, dim)) + 1j * rng.standard_normal((2000, dim))
        kets[:, 2:] = 0.0  # in the qubit block; the flag ket is a basis ket
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        kets[:dim] = np.eye(dim)  # exact basis kets, with zero amplitudes
        ref = []
        for ket in kets:
            # The one-ket arithmetic the stack expression replaces.
            v = np.asarray(ket, dtype=complex).ravel()
            v = v / float(np.linalg.norm(v))
            m = np.outer(v, v.conj())
            ref.append((m + m.conj().T) / 2.0)
        assert np.array_equal(make_pure_states(kets), np.stack(ref))

    def test_make_pure_states_names_the_first_bad_norm(self):
        with pytest.raises(InvalidStateError, match=r"norm 2\.0 is not 1"):
            make_pure_states([[1, 0], [0, 2], [0, 3]])

    @pytest.mark.parametrize(
        "kets, shape",
        [([], r"\(0,\)"), ([1, 0], r"\(2,\)"), (np.zeros((1, 2, 1)), r"\(1, 2, 1\)")],
        ids=["empty-list", "one-1d-ket", "3-d"],
    )
    def test_make_pure_states_names_a_malformed_ket_array(self, kets, shape):
        named = rf"kets must be an \(n, d\) array, got shape {shape}"
        with pytest.raises(InvalidStateError, match=named):
            make_pure_states(kets)

    def test_make_pure_states_of_no_kets_is_an_empty_stack(self):
        mats = make_pure_states(np.empty((0, 2)))
        assert mats.shape == (0, 2, 2) and not mats.flags.writeable
        assert check_states(mats).shape == (0, 2, 2)
        with pytest.raises(ValueError, match="codebook needs a nonempty"):
            DetectorCodebook(mats=mats, priors=np.empty(0), bit_labels=np.empty((0, 1)))


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


def block_diagonal_qutrits(n: int = 500) -> np.ndarray:
    """(n, 3, 3) Hermitian stacks of a random qubit block and a real flag entry."""
    rng = np.random.default_rng(34)
    m = np.zeros((n, 3, 3), dtype=complex)
    m[:, :2, :2] = hermitian_qubits("random", n)
    m[:, 2, 2] = rng.standard_normal(n)
    return m


def eigenvalue_of_each(m: np.ndarray) -> np.ndarray:
    """smallest_eigenvalue of each matrix of a Hermitian stack on its own."""
    flags = m[:, 2:, 2:].real
    return np.array([smallest_eigenvalue(to_rows(m[i : i + 1]), flags[i]) for i in range(len(m))])


class TestMinEigenvalues:
    """The closed-form criterion against LAPACK, kept here as the reference."""

    @pytest.mark.parametrize("kind", ["random", "rank1", "degenerate", "large_b"])
    def test_qubit_closed_form_matches_eigvalsh(self, kind):
        m = hermitian_qubits(kind)
        ref = np.linalg.eigvalsh(m)
        scale = np.maximum(1.0, np.abs(ref).max(axis=1))
        assert np.all(np.abs(eigenvalue_of_each(m) - ref[:, 0]) <= 1e-14 * scale)
        assert smallest_eigenvalue(to_rows(m)) == eigenvalue_of_each(m).min()

    def test_degenerate_qubits_are_exact(self):
        m = hermitian_qubits("degenerate")
        assert np.array_equal(eigenvalue_of_each(m), m[:, 0, 0].real)

    def test_block_diagonal_qutrits_match_eigvalsh(self):
        m = block_diagonal_qutrits()
        ref = np.linalg.eigvalsh(m)
        scale = np.maximum(1.0, np.abs(ref).max(axis=1))
        assert np.all(np.abs(eigenvalue_of_each(m) - ref[:, 0]) <= 1e-14 * scale)
        # Both the block and the flag hold the smallest eigenvalue somewhere.
        flag_lowest = m[:, 2, 2].real < np.linalg.eigvalsh(m[:, :2, :2])[:, 0]
        assert flag_lowest.any() and not flag_lowest.all()

    def test_empty_stack_has_no_eigenvalue_below_any_bound(self):
        assert smallest_eigenvalue(np.empty((0, 4)), np.empty((0, 1, 1))) == np.inf

    @pytest.mark.parametrize("dim", [2, 3])
    def test_accept_reject_edge_at_tol(self, dim):
        # The qubit block's smallest eigenvalue at -TOL +- 1%; for dim 3 the
        # block sits beside the flag, and then the flag entry gets the edge.
        for k, x in enumerate((0.99 * TOL, 1.01 * TOL)):
            block = rotated_diagonal([1.0 + x, -x], seed=33 + k)[0]
            edges = [np.pad(block, (0, dim - 2))[None]]
            if dim == 3:
                edges.append(np.diag([0.5 + x / 2, 0.5 + x / 2, -x]).astype(complex)[None])
            for mats in edges:
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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        ref = [(x + x.conj().T) / 2.0 for x in m]
        assert np.array_equal(hermitize(m), np.stack(ref))


class TestInvSqrtPsd:
    def test_pseudo_inverse_on_singular_diagonal(self):
        out = inv_sqrt_psd(np.diag([4.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(2)), np.eye(2))

    def test_maximally_mixed_qubit(self):
        assert np.allclose(inv_sqrt_psd(np.eye(2) / 2), np.sqrt(2) * np.eye(2))

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
        assert bloch(pure(1, 0)) == pytest.approx((0, 0, 1))
        s = 1 / np.sqrt(2)
        assert bloch(pure(s, s)) == pytest.approx((1, 0, 0))

    def test_maximally_mixed_at_origin(self):
        vec = bloch(DensityMatrix(np.eye(2) / 2).mat)
        assert np.linalg.norm(vec) == pytest.approx(0.0, abs=1e-12)

    def test_y_axis_sign(self):
        # (|0> + i|1>)/sqrt(2) points along +y, its conjugate along -y
        s = 1 / np.sqrt(2)
        assert bloch(pure(s, 1j * s)) == pytest.approx((0, 1, 0))
        assert bloch(pure(s, -1j * s)) == pytest.approx((0, -1, 0))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError, match="dim 2"):
            bloch(DensityMatrix(np.eye(3) / 3).mat)

    def test_pure_states_on_sphere_mixed_inside(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            assert np.linalg.norm(bloch(random_pure(rng, 2))) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(bloch(random_density(rng, 2).mat)) <= 1 + 1e-9


class TestLeadingQubitBlock:
    """The rows (t, x, y, z) of a stack's leading qubit block."""

    def test_qubit_is_identity_projection(self):
        rng = np.random.default_rng(18)
        rho = random_density(rng, 2)
        (row,) = to_rows(rho.mat[None])
        assert row[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(from_rows(row[None])[0], rho.mat)
        assert np.array_equal(row[1:], bloch(rho.mat))

    def test_enlarged_block_structure(self):
        p = 0.25
        inner = pure(0.6, 0.8)
        big = np.zeros((3, 3), dtype=complex)
        big[:2, :2] = (1 - p) * inner
        big[2, 2] = p
        (row,) = to_rows(DensityMatrix(big).mat[None])
        assert row[0] == pytest.approx(1 - p, abs=1e-12)
        assert np.allclose(row[1:] / row[0], bloch(inner))
        assert np.allclose(from_rows(row[None], dim=3)[0], big)

    @pytest.mark.parametrize("dim", [1, 4, 5])
    def test_from_rows_takes_qubit_and_flag_dims_only(self, dim):
        # A 4x4 stack of a row would hold its qubit block with trace t and no flag.
        with pytest.raises(ValueError, match="dim must be 2 .* or 3 .*, got"):
            from_rows(np.array([[1.0, 0.0, 0.0, 1.0]]), dim)

    def test_depleted_block_flagged(self):
        fully_erased = np.diag([0.0, 0.0, 1.0]).astype(complex)
        (row,) = to_rows(DensityMatrix(fully_erased).mat[None])
        assert row.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(from_rows(row[None], dim=3)[0], fully_erased)

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError, match="d >= 2"):
            to_rows(np.ones((1, 1, 1)))


class TestRowCheck:
    def test_accepts_states_and_returns_them(self):
        rng = np.random.default_rng(20)
        rows = to_rows(np.stack([random_density(rng, 2).mat for _ in range(50)]))
        assert check_rows(rows) is rows

    def test_edges_within_tolerance(self):
        x = 1.0 + 0.5 * TOL
        check_rows(np.array([[x, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, x], [0.0, 0.5 * TOL, 0.0, 0.0]]))

    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 0.0, 0.0, 0.0], "finite"),
            ([1.0, np.inf, 0.0, 0.0], "finite"),
            ([1.0 + 2 * TOL, 0.0, 0.0, 0.0], "exceeds 1"),
            ([1.0, 0.6, 0.0, 0.8 + 3 * TOL], "positive semidefinite"),
            ([0.5, 0.0, -0.5 - 3 * TOL, 0.0], "positive semidefinite"),
            ([-3 * TOL, 0.0, 0.0, 0.0], "positive semidefinite"),
        ],
        ids=["nan", "inf", "weight", "long", "long-mixed", "negative-weight"],
    )
    def test_rejects(self, row, message):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], row])
        with pytest.raises(InvalidStateError, match=message):
            check_rows(rows)

    def test_rows_agree_with_the_matrix_check(self):
        # A row passes exactly when its qubit matrix passes check_states:
        # random rows, and rows whose smallest eigenvalue (t - |r|) / 2 lies
        # within 1% of the edge -TOL, on either side.
        rng = np.random.default_rng(21)
        rows = np.column_stack([np.ones(400), rng.uniform(-0.8, 0.8, (400, 3))])
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        lengths = 1.0 + 2 * TOL * rng.choice([0.99, 1.01], 200)
        edge = np.column_stack([np.ones(200), axes * lengths[:, None]])
        for row in np.concatenate([rows, edge]):
            try:
                check_states(from_rows(row[None]))
                valid = True
            except InvalidStateError:
                valid = False
            try:
                check_rows(row[None])
                assert valid
            except InvalidStateError:
                assert not valid


class TestPurity:
    def test_pure(self):
        rng = np.random.default_rng(19)
        assert purity(random_pure(rng, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(2) / 2).mat) == pytest.approx(0.5)

    def test_half_depolarized_pure_state(self):
        mixed = DensityMatrix(0.5 * pure(1, 0) + 0.5 * np.eye(2) / 2)
        assert purity(mixed.mat) == pytest.approx(0.625, abs=1e-12)


class TestStateRows:
    """state_rows is the one crossing of a caller's stack into rows."""

    @pytest.mark.parametrize("entry", ["Channel.apply", "measurement_scores", "decide", "state_rows"])
    def test_every_entry_point_checks_once(self, monkeypatch, entry):
        calls = []
        real = states.check_states

        def counting(mats):
            calls.append(len(mats))
            return real(mats)

        cb = qpsk_codebook()
        rho, povm = cb.states[1], build_pgm(cb)
        monkeypatch.setattr(states, "check_states", counting)
        call, checks = {
            # Channel.apply also checks the DensityMatrix it returns.
            "Channel.apply": (lambda: Channel(DepolarizingConfig(p=0.1)).apply(rho), [1, 1]),
            "measurement_scores": (lambda: measurement_scores(povm, rho), [1]),
            "decide": (lambda: decide(povm, rho), [1]),
            "state_rows": (lambda: state_rows(cb.mats), [4]),
        }[entry]
        call()
        assert calls == checks

    def test_no_second_crossing(self):
        assert not hasattr(detection, "_checked_rows")
        for module in (channels, detection, visualization):
            assert not hasattr(module, "check_states"), module.__name__

    def test_rows_of_checked_states(self):
        rng = np.random.default_rng(23)
        mats = np.stack([random_density(rng, 2).mat for _ in range(20)])
        assert np.array_equal(state_rows(mats), to_rows(check_states(mats)))
        assert np.array_equal(state_rows(mats, 2), state_rows(mats))
        with pytest.raises(ValueError, match="expected states of dim 3, got dim 2"):
            state_rows(mats, 3)

    # The ids name the complex-stack projections these row paths replace.
    @pytest.mark.parametrize("entry", [
        pytest.param(lambda mats: state_rows(mats, 2)[:, 1:], id="bloch_xyz"),
        pytest.param(lambda mats: project_rows(state_rows(mats)), id="project_states"),
    ])
    @pytest.mark.parametrize(
        "mat, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
            ([[2.0, 5j], [0.0, -1.0]], "not Hermitian"),
        ],
        ids=["nan", "non-hermitian"],
    )
    def test_projections_check_their_input(self, entry, mat, message):
        with pytest.raises(InvalidStateError, match=message):
            entry(np.array([mat], dtype=complex))


def coupled_state(c: float) -> np.ndarray:
    """A 3x3 state whose qubit block couples to the flag by ``c``."""
    m = np.diag([0.5, 0.25, 0.25]).astype(complex)
    m[0, 2] = m[2, 0] = c
    return m


def coupled_povm(c: float) -> tuple:
    """A 3x3 POVM whose first element couples the qubit block to the flag by ``c``."""
    e0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    e0[0, 2] = e0[2, 0] = c
    return e0, np.eye(3) - e0


SHAPE_ENTRIES = {
    "check_states": lambda dim: check_states(np.eye(dim)[None] / dim),
    "DensityMatrix": lambda dim: DensityMatrix(np.eye(dim) / dim),
    "make_pure_states": lambda dim: make_pure_states(np.eye(dim)[:1]),
    "POVM": lambda dim: POVM(elements=(np.zeros((dim, dim)), np.eye(dim)), labels=(0, 1)),
}

COUPLING_ENTRIES = {
    "check_states": lambda c: check_states(coupled_state(c)[None]),
    "DensityMatrix": lambda c: DensityMatrix(coupled_state(c)),
    "make_pure_states": lambda c: make_pure_states([[np.sqrt(1.0 - c * c), 0.0, c]]),
    "POVM": lambda c: POVM(elements=coupled_povm(c), labels=(0, -1)),
}


class TestQubitAndFlagShapes:
    """Every stack is what Pauli rows represent: 2x2, or 3x3 whose qubit block
    and flag are uncoupled within TOL."""

    @pytest.mark.parametrize("entry", list(SHAPE_ENTRIES))
    @pytest.mark.parametrize("dim", [1, 4])
    def test_other_dimensions_rejected(self, entry, dim):
        named = rf"square, 2x2 or 3x3, got shape \({dim}, {dim}\)"
        with pytest.raises(InvalidStateError, match=named):
            SHAPE_ENTRIES[entry](dim)

    @pytest.mark.parametrize("entry", list(COUPLING_ENTRIES))
    def test_block_flag_coupling_above_tol_rejected(self, entry):
        COUPLING_ENTRIES[entry](0.5 * TOL)
        with pytest.raises(InvalidStateError, match="couple the qubit block to the flag"):
            COUPLING_ENTRIES[entry](2 * TOL)

    def test_the_package_qutrit_stacks_pass(self):
        cb = qam_codebook(16)
        erasure = Channel(ErasureConfig(p=0.25))
        check_states(from_rows(erasure.apply_rows(cb.rows), 3))
        received = erasure.apply_rows(state_rows(cb.mats, 2))
        assert check_states(from_rows(received, erasure.output_dim)).shape == (16, 3, 3)
        for codebook in (qpsk_codebook(), qam_codebook(4), cb, qam_codebook(64)):
            assert embed_povm_with_erasure(build_pgm(codebook), 3).dim == 3

    def test_no_check_takes_a_spectrum(self, monkeypatch):
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):

            def spy(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        codebook = qam_codebook(64)
        assert calls == []
        # The one eigen call left: the PGM's inverse square root of the mean.
        povm = build_pgm(codebook)
        assert calls == ["eigh"]
        embed_povm_with_erasure(povm, 3)
        check_states(from_rows(codebook.rows, 3))
        check_rows(codebook.rows)
        assert calls == ["eigh"]
