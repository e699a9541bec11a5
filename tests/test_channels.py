import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    PAULI,
    apply_stack,
    beamsplitter_reference,
    dilation_reference,
    kraus_reference,
    pmd_rows_reference,
    pure,
    purity,
    random_density,
    random_pure,
    thermal_reference,
    transfer_reference,
)

from qlinksim import (
    BosonicConfig,
    Channel,
    DephasingConfig,
    DepolarizingConfig,
    ErasureConfig,
    PMDConfig,
    DensityMatrix,
    TurbulenceConfig,
    qam_codebook,
    qpsk_codebook,
)
# No channel config reaches eta = 0 exactly or an unclipped fade, so the
# pure-loss and scintillation row kernels are tested directly.
from qlinksim.channels import _pure_loss, _scintillation, config_from_dict, config_to_dict
# The PMD row kernel is pinned bit for bit to its state-per-row reference.
from qlinksim.channels import _pmd, _transfer_matrix
from qlinksim.states import check_states, from_rows, map_rows, state_rows, to_rows

_PLUS = pure(1 / np.sqrt(2), 1 / np.sqrt(2))
_ONE = pure(0, 1)


def through(cfg, states, rng=None):
    """Output stack of ``cfg``'s channel on a list of states (matrices or DensityMatrix)."""
    stack = np.stack([getattr(s, "mat", s) for s in states])
    return apply_stack(Channel(cfg, input_dim=stack.shape[-1]), stack, rng)


class TestDepolarizing:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng, 2)
        assert np.allclose(through(DepolarizingConfig(p=0.0), [rho])[0], rho.mat)

    def test_p_zero_passes_every_state_check_states_accepts(self):
        # |r| = 1 + 1.5e-9: smallest eigenvalue -0.75e-9, within TOL.
        rho = from_rows(np.array([[1.0, 0.6 * (1.0 + 1.5e-9), 0.0, 0.8 * (1.0 + 1.5e-9)]]))
        check_states(rho)
        out = through(DepolarizingConfig(p=0.0), [rho[0]])
        assert np.max(np.abs(out - rho)) <= 1e-15

    def test_p_one_is_maximally_mixed(self):
        rng = np.random.default_rng(32)
        out = through(DepolarizingConfig(p=1.0), [random_pure(rng, 2)])[0]
        assert np.allclose(out, np.eye(2) / 2)

    def test_hand_oracle(self):
        out = through(DepolarizingConfig(p=0.5), [pure(1, 0)])[0]
        assert np.allclose(out, np.diag([0.75, 0.25]))

    def test_bloch_contraction(self):
        rng = np.random.default_rng(33)
        for p in (0.2, 0.7):
            rho = random_density(rng, 2)
            before = np.linalg.norm(state_rows(rho.mat[None], 2)[0, 1:])
            after = np.linalg.norm(state_rows(through(DepolarizingConfig(p=p), [rho]), 2)[0, 1:])
            assert after == pytest.approx((1 - p) * before, abs=1e-9)

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            through(DepolarizingConfig(p=1.2), [_PLUS])

    def test_qubit_only(self):
        with pytest.raises(ValueError, match="qubit"):
            through(DepolarizingConfig(p=0.1), [DensityMatrix(np.eye(3) / 3)])


class TestDephasing:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(34)
        rho = random_density(rng, 2)
        assert np.allclose(through(DephasingConfig(p=0.0), [rho])[0], rho.mat)

    def test_full_dephasing_kills_coherence(self):
        out = through(DephasingConfig(p=1.0), [_PLUS])[0]
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_hand_oracle(self):
        out = through(DephasingConfig(p=0.3), [_PLUS])[0]
        assert np.allclose(out, [[0.5, 0.35], [0.35, 0.5]])

    def test_diagonal_untouched(self):
        rng = np.random.default_rng(35)
        states = [random_density(rng, 2) for _ in range(10)]
        for out, rho in zip(through(DephasingConfig(p=0.6), states), states):
            assert np.allclose(np.diag(out), np.diag(rho.mat))


class TestErasure:
    def test_p_zero_embeds(self):
        rng = np.random.default_rng(36)
        rho = random_density(rng, 2)
        out = through(ErasureConfig(p=0.0), [rho])[0]
        assert out.shape == (3, 3)
        assert np.allclose(out[:2, :2], rho.mat)
        assert out[2, 2] == 0

    def test_p_one_total_erasure(self):
        out = through(ErasureConfig(p=1.0), [_PLUS])[0]
        assert np.allclose(out, np.diag([0, 0, 1.0]))

    def test_hand_oracle(self):
        out = through(ErasureConfig(p=0.25), [DensityMatrix(np.eye(2) / 2)])[0]
        assert np.allclose(out, np.diag([0.375, 0.375, 0.25]))

    def test_flag_population_equals_p(self):
        rng = np.random.default_rng(37)
        for p in (0.0, 0.25, 0.6, 1.0):
            out = through(ErasureConfig(p=p), [random_density(rng, 2)])[0]
            assert abs(out[2, 2].real - p) <= 1e-12



def kraus_map(kind, p):
    """Kraus operators of the depolarizing, dephasing or erasure channel."""
    if kind == "depolarizing":
        return np.concatenate([[np.sqrt(1 - 3 * p / 4) * PAULI[0]], np.sqrt(p / 4) * PAULI[1:]])
    if kind == "dephasing":
        return [np.sqrt(1 - p / 2) * PAULI[0], np.sqrt(p / 2) * PAULI[3]]
    flag = np.zeros((3, 3, 2))
    flag[0, :2, :2] = np.sqrt(1 - p) * np.eye(2)
    flag[1, 2, 0] = flag[2, 2, 1] = np.sqrt(p)
    return flag


class TestTransferMatrices:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.6, 1.0])
    @pytest.mark.parametrize("cfg_type", [DepolarizingConfig, DephasingConfig, ErasureConfig])
    def test_matches_kraus_map(self, cfg_type, p):
        cfg = cfg_type(p=p)
        kraus = kraus_map(cfg.kind, p)
        expected = transfer_reference(lambda mats: kraus_reference(kraus, mats))
        assert np.max(np.abs(_transfer_matrix(cfg) - expected)) <= 1e-12

    @pytest.mark.parametrize("n_th", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("loss_db", [0.0, 3.0, 30.0])
    def test_bosonic_matches_two_mode_dilation(self, loss_db, n_th):
        cfg = BosonicConfig(loss_db=loss_db, n_th=n_th)
        expected = transfer_reference(lambda mats: dilation_reference(cfg.eta, n_th, mats))
        assert np.max(np.abs(_transfer_matrix(cfg) - expected)) <= 1e-12

    def test_kraus_oracle_is_trace_preserving(self):
        # Each Kraus set above sums to K^dagger K = I, so the oracle is a channel.
        for kind in ("depolarizing", "dephasing", "erasure"):
            kraus = np.asarray(kraus_map(kind, 0.3), dtype=complex)
            total = np.einsum("kji,kjl->il", kraus.conj(), kraus)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


# Every deterministic kind, at the ends of its range too: depolarizing and
# erasure at p = 0 and p = 1 (whose maps hold signed zeros), thermal loss
# and loss at 0 dB.
DETERMINISTIC_CONFIGS = (
    DepolarizingConfig(p=0.0),
    DepolarizingConfig(p=1.0),
    DepolarizingConfig(p=0.1),
    DephasingConfig(p=0.2),
    ErasureConfig(p=0.0),
    ErasureConfig(p=1.0),
    ErasureConfig(p=0.25),
    BosonicConfig(loss_db=3.0, n_th=0.5),
    BosonicConfig(loss_db=0.0),
)


class TestTransferStack:
    @pytest.mark.parametrize("order", [None, 4, 16, 64, 256], ids=lambda m: f"qam{m}" if m else "qpsk")
    def test_stack_slices_are_each_channels_own_map(self, order):
        rows = (qam_codebook(order) if order else qpsk_codebook()).rows
        channels = [Channel(cfg) for cfg in DETERMINISTIC_CONFIGS]
        stacked = map_rows(np.stack([channel.transfer for channel in channels]), rows)
        assert stacked.shape == (len(channels), len(rows), 4)
        for channel, part in zip(channels, stacked):
            # The four elementwise outer-product terms, added by sum.
            own = sum(np.multiply.outer(rows[:, j], channel.transfer[:, j]) for j in range(4))
            assert part.tobytes() == own.tobytes(), channel.config
            assert part.tobytes() == map_rows(channel.transfer, rows).tobytes(), channel.config
            assert part.tobytes() == channel.apply_rows(rows).tobytes(), channel.config

    def test_only_deterministic_channels_have_a_transfer_matrix(self):
        for cfg in DETERMINISTIC_CONFIGS:
            assert Channel(cfg).transfer.tolist() == _transfer_matrix(cfg).tolist()
        for cfg in (TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2),
                    PMDConfig(dgd=2.0, sigma_omega=1.0)):
            assert Channel(cfg).transfer is None


def pure_loss(eta, mats):
    """The pure-loss row kernel on a complex stack, converted in and out."""
    return from_rows(_pure_loss(eta, to_rows(mats)))


class TestPureLoss:
    def test_eta_one_is_identity(self):
        rng = np.random.default_rng(39)
        rho = random_density(rng, 2)
        assert np.allclose(pure_loss(1.0, rho.mat[None])[0], rho.mat)

    def test_single_photon_decay(self):
        etas = np.linspace(0, 1, 11)
        for eta, out in zip(etas, pure_loss(etas, np.repeat(_ONE[None], 11, axis=0))):
            assert np.allclose(out, np.diag([1 - eta, eta]), atol=1e-12)

    def test_plus_state_oracle(self):
        out = pure_loss(0.5, _PLUS[None])[0]
        s = np.sqrt(0.5) / 2
        assert np.allclose(out, [[0.75, s], [s, 0.25]])

    def test_kraus_completeness(self):
        for eta in (0.0, 0.3, 1.0):
            k0 = np.diag([1.0, np.sqrt(eta)])
            k1 = np.array([[0.0, np.sqrt(1 - eta)], [0.0, 0.0]])
            total = k0.T @ k0 + k1.T @ k1
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


class TestThermalState:
    def test_vacuum(self):
        out = thermal_reference(0.0, 4)
        assert np.allclose(out, np.diag([1.0, 0, 0, 0]))

    def test_hand_oracle(self):
        out = thermal_reference(1.0, 2)
        assert np.allclose(out, np.diag([2 / 3, 1 / 3]))

    def test_weights_decreasing(self):
        out = thermal_reference(2.5, 6)
        diag = np.diag(out).real
        assert np.all(np.diff(diag) < 0)


class TestBeamsplitterUnitary:
    def test_eta_one_is_identity(self):
        assert np.allclose(beamsplitter_reference(1.0, 2), np.eye(4))

    def test_eta_zero_swaps_single_photon(self):
        u = beamsplitter_reference(0.0, 2)
        # basis order |00>, |01>, |10>, |11>
        vec_01 = np.zeros(4)
        vec_01[1] = 1.0
        out = u @ vec_01
        assert abs(abs(out[2]) - 1.0) <= 1e-9

    def test_unitarity(self):
        for eta in (0.0, 0.25, 0.7, 1.0):
            for fock in (2, 3, 4):
                u = beamsplitter_reference(eta, fock)
                assert np.max(np.abs(u @ u.conj().T - np.eye(fock**2))) <= 1e-9


class TestBosonic:
    def test_no_loss_vacuum_env_is_identity(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        out = through(BosonicConfig(loss_db=0.0, n_th=0.0, fock_dim=2), [rho])[0]
        assert np.max(np.abs(out - rho.mat)) <= 1e-9

    def test_db_conversion(self):
        assert BosonicConfig(loss_db=3.0).eta == pytest.approx(10 ** (-0.3))

    def test_matches_pure_loss_kraus(self):
        # With a vacuum environment the channel is pure loss, bit for bit.
        rng = np.random.default_rng(42)
        for loss_db in (0.0, 1.0, 3.0, 10.0):
            eta = 10 ** (-loss_db / 10)
            stack = np.stack([random_density(rng, 2).mat for _ in range(20)])
            a = apply_stack(Channel(BosonicConfig(loss_db=loss_db, n_th=0.0, fock_dim=2)), stack)
            assert np.array_equal(a, pure_loss(eta, stack))

    def test_matches_two_mode_dilation(self):
        rng = np.random.default_rng(40)
        for n_th in (0.0, 0.1, 0.5, 0.8, 3.0):
            for loss_db in (0.0, 1.0, 3.0, 10.0, 30.0):
                cfg = BosonicConfig(loss_db=loss_db, n_th=n_th)
                stack = np.stack([random_density(rng, 2).mat for _ in range(200)])
                expected = dilation_reference(cfg.eta, n_th, stack)
                assert np.max(np.abs(apply_stack(Channel(cfg), stack) - expected)) <= 1e-12

    def test_single_photon_hand_oracle(self):
        # w = n_th / (1 + 2 n_th) = 1/4 of the lost weight stays in |1>.
        cfg = BosonicConfig(loss_db=3.0, n_th=0.5)
        out = through(cfg, [_ONE])[0]
        assert out[1, 1].real == pytest.approx(0.75 * cfg.eta + 0.25, abs=1e-15)
        assert out[1, 1].real == pytest.approx(0.626, abs=5e-4)

    def test_thermal_environment_raises_ground_population(self):
        out = through(BosonicConfig(loss_db=3.0, n_th=0.8, fock_dim=2), [pure(1, 0)])[0]
        assert out[1, 1].real > 0

    def test_dim_mismatch_rejected(self):
        # Both codebooks are qubits: any cutoff but 2 is rejected at construction.
        for fock_dim in (1, 3):
            with pytest.raises(ValueError, match="fock_dim must be 2"):
                BosonicConfig(loss_db=1.0, fock_dim=fock_dim)


class TestPointingLoss:
    """Without scintillation a turbulence channel is fixed pure loss with
    transmissivity exp(-2 (sigma_p/w0)^2) 10^(-path_loss_db/10)."""

    @staticmethod
    def fixed_loss(sigma_p, w0, path_loss_db=0.0, states=(_ONE,)):
        cfg = TurbulenceConfig(sigma_p=sigma_p, w0=w0, rytov_var=0.0, path_loss_db=path_loss_db)
        return through(cfg, states, np.random.default_rng(0))

    def test_no_jitter(self):
        assert np.array_equal(self.fixed_loss(0.0, 1.0)[0], _ONE)

    def test_hand_values(self):
        assert self.fixed_loss(1.0, 1.0)[0][1, 1].real == pytest.approx(np.exp(-2))
        assert self.fixed_loss(0.5, 1.0)[0][1, 1].real == pytest.approx(np.exp(-0.5))

    def test_waist_validated(self):
        with pytest.raises(ValueError, match="w0"):
            TurbulenceConfig(sigma_p=0.1, w0=0.0, rytov_var=0.0)
        with pytest.raises(ValueError, match="sigma_p"):
            TurbulenceConfig(sigma_p=-0.1, w0=1.0, rytov_var=0.0)

    def test_zero_rytov_is_fixed_pure_loss(self):
        rng = np.random.default_rng(49)
        stack = np.stack([random_density(rng, 2).mat for _ in range(20)])
        for sigma_p, w0, path_loss_db in ((0.0, 1.0, 0.0), (0.3, 1.0, 2.0), (1.0, 0.5, 10.0)):
            eta = np.exp(-2.0 * (sigma_p / w0) ** 2) * 10.0 ** (-path_loss_db / 10.0)
            out = self.fixed_loss(sigma_p, w0, path_loss_db, stack)
            assert np.array_equal(out, pure_loss(eta, stack))


class TestScintillation:
    def test_zero_rytov_exact_one(self):
        rng = np.random.default_rng(43)
        assert _scintillation(0.0, rng, 1)[0] == 1.0

    def test_unit_mean(self):
        rng = np.random.default_rng(44)
        samples = _scintillation(0.5, rng, 100_000)
        assert np.mean(samples) == pytest.approx(1.0, abs=0.02)

    def test_positive_support(self):
        rng = np.random.default_rng(45)
        assert np.all(_scintillation(1.5, rng, 1000) > 0)


class TestTurbulence:
    def test_benign_config_is_identity(self):
        cfg = TurbulenceConfig(sigma_p=0.0, w0=1.0, rytov_var=0.0, path_loss_db=0.0)
        rng = np.random.default_rng(46)
        rho = random_density(rng, 2)
        out = through(cfg, [rho], rng)[0]
        assert np.allclose(out, rho.mat)

    def test_outputs_valid_densities(self):
        cfg = TurbulenceConfig(sigma_p=0.3, w0=1.0, rytov_var=1.2, path_loss_db=2.0)
        rng = np.random.default_rng(47)
        for out in through(cfg, [random_density(rng, 2) for _ in range(50)], rng):
            DensityMatrix(out)

    def test_seeded_reproducibility(self):
        cfg = TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.5)
        a = through(cfg, [_PLUS], np.random.default_rng(48))
        b = through(cfg, [_PLUS], np.random.default_rng(48))
        assert np.array_equal(a, b)


class TestPMD:
    def test_zero_dgd_is_identity(self):
        cfg = PMDConfig(dgd=0.0, sigma_omega=1.0, n_sections=8)
        rng = np.random.default_rng(52)
        rho = random_density(rng, 2)
        out = through(cfg, [rho], rng)[0]
        assert np.max(np.abs(out - rho.mat)) <= 1e-12

    def test_zero_spectral_width_is_identity(self):
        cfg = PMDConfig(dgd=5.0, sigma_omega=0.0, n_sections=4)
        rng = np.random.default_rng(53)
        rho = random_density(rng, 2)
        out = through(cfg, [rho], rng)[0]
        assert np.max(np.abs(out - rho.mat)) <= 1e-12

    def test_purity_never_increases(self):
        cfg = PMDConfig(dgd=1.5, sigma_omega=1.0, n_sections=8)
        rng = np.random.default_rng(54)
        states = [random_density(rng, 2) for _ in range(30)]
        for out, rho in zip(through(cfg, states, rng), states):
            assert purity(DensityMatrix(out).mat) <= purity(rho.mat) + 1e-9

    def test_large_dgd_reduces_mean_purity(self):
        small = PMDConfig(dgd=0.0, sigma_omega=1.0, n_sections=8)
        large = PMDConfig(dgd=6.0, sigma_omega=1.0, n_sections=8)
        rng = np.random.default_rng(55)
        states = [random_pure(rng, 2) for _ in range(100)]
        mean_small = np.mean(purity(through(small, states, rng)))
        mean_large = np.mean(purity(through(large, states, rng)))
        assert mean_large < mean_small


def pmd_reference(cfg, rho, axes):
    """Matrix form of one PMD section per axis n: nu rho + (1-nu)(P rho P + Q rho Q),
    P = (I + n.sigma)/2, Q = I - P."""
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    nu = np.exp(-((cfg.sigma_omega * cfg.dgd / np.sqrt(cfg.n_sections)) ** 2) / 2)
    out = rho
    for n in axes:
        p = (np.eye(2) + np.einsum("a,aij->ij", n, sigma)) / 2
        q = np.eye(2) - p
        out = nu * out + (1 - nu) * (p @ out @ p + q @ out @ q)
    return out


class TestPMDKernel:
    def test_matches_random_axis_dephasing_reference(self):
        cfg = PMDConfig(dgd=2.5, sigma_omega=1.0, n_sections=6)
        rng = np.random.default_rng(58)
        for seed in range(20):
            rho = random_density(rng, 2)
            # The kernel draws one standard-normal 3-vector per section.
            axes = np.random.default_rng(seed).standard_normal((cfg.n_sections, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            out = through(cfg, [rho], np.random.default_rng(seed))[0]
            assert np.max(np.abs(out - pmd_reference(cfg, rho.mat, axes))) <= 1e-12

    def test_mean_bloch_contraction(self):
        # E[(n.r) n] = r/3 for n uniform on the sphere, so each section
        # contracts the mean Bloch vector by nu + (1 - nu)/3.
        cfg = PMDConfig(dgd=2.0, sigma_omega=1.0, n_sections=8)
        rho = pure(0.6, 0.8j)
        n = 40_000
        stack = np.repeat(rho[None], n, axis=0)
        r = Channel(cfg).apply_rows(state_rows(stack, 2), np.random.default_rng(59))[:, 1:]
        nu = np.exp(-0.25)
        expected = (nu + (1 - nu) / 3) ** 8 * state_rows(rho[None], 2)[0, 1:]
        assert np.all(np.abs(r.mean(axis=0) - expected) <= 5 * r.std(axis=0) / np.sqrt(n))


class TestPMDBlochStack:
    @pytest.mark.parametrize("dgd", [0.0, 2.0])
    @pytest.mark.parametrize("n_sections", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_bit_equal_to_state_per_row_reference(self, n, n_sections, dgd):
        cfg = PMDConfig(dgd=dgd, sigma_omega=1.0, n_sections=n_sections)
        rng = np.random.default_rng(n * 10 + n_sections)
        mats = np.stack([random_density(rng, 2).mat for _ in range(n)])
        got_rng, want_rng = np.random.default_rng(60), np.random.default_rng(60)
        got = from_rows(_pmd(cfg, to_rows(mats), got_rng))
        want = pmd_rows_reference(cfg, mats, want_rng)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        # Same draws, in the same order: both streams stop at the same place.
        assert got_rng.random() == want_rng.random()

    def test_peak_memory_no_higher_than_reference(self):
        cfg = PMDConfig(dgd=2.0, sigma_omega=1.0, n_sections=8)
        mats = np.repeat(pure(0.6, 0.8j)[None], 200_000, axis=0)
        rows = to_rows(mats)
        peaks = []
        for kernel, states in ((pmd_rows_reference, mats), (_pmd, rows)):
            tracemalloc.start()
            try:
                kernel(cfg, states, np.random.default_rng(61))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestExtremeParameters:
    """A config that loads computes: past a float overflow a kernel takes its
    limit without a warning, or the config is rejected at construction."""

    ROWS = state_rows(np.stack([_PLUS, _ONE, pure(0.6, 0.8j)]))

    @pytest.mark.parametrize("rytov_var", [1.1e220, 1e230, 1e300, 9e-308, 1e-310, 5e-324])
    def test_rytov_variance_past_the_shape_parameters_rejected(self, rytov_var):
        message = f"rytov_var must be 0 or in [1e-307, 1e220], got {rytov_var}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=rytov_var)

    @pytest.mark.parametrize("rytov_var", [1e-307, 1e-100, 1e100, 1e220])
    def test_rytov_variance_that_loads_runs(self, rytov_var):
        channel = Channel(TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=rytov_var))
        assert np.isfinite(channel.apply_rows(self.ROWS, np.random.default_rng(56))).all()

    def test_integer_beyond_the_float_range_rejected(self):
        # A JSON integer of 400 digits has no float value: a ValueError
        # naming the field, not an OverflowError from the conversion.
        with pytest.raises(ValueError, match="bosonic parameter loss_db must be finite"):
            config_from_dict({"type": "bosonic", "loss_db": 10**400})

    def test_pointing_loss_tends_to_zero_transmission(self):
        # exp(-2 (sigma_p / w0)^2) is 0 long before the square overflows.
        outputs = [
            Channel(TurbulenceConfig(sigma_p=sigma_p, w0=w0, rytov_var=0.0)).apply_rows(
                self.ROWS, np.random.default_rng(57)
            )
            for sigma_p, w0 in ((100.0, 1.0), (1e200, 1e-10), (1e300, 1e-300))
        ]
        assert np.array_equal(outputs[0], _pure_loss(0.0, self.ROWS))
        assert all(np.array_equal(out, outputs[0]) for out in outputs[1:])

    def test_thermal_weight_tends_to_one_half(self):
        # w = n_th / (1 + 2 n_th) tends to 1/2, where the ground-state weight
        # a photon loss adds tends to 0; no n_th reads as a vacuum environment.
        n_th = [0.0, 0.5, 1e10, 1e300, 1e307, 9e307, 1e308, np.finfo(float).max]
        added = [_transfer_matrix(BosonicConfig(loss_db=3.0, n_th=n))[3, 0] for n in n_th]
        assert added[0] == 1.0 - BosonicConfig(loss_db=3.0).eta
        assert all(a > b for a, b in zip(added[:3], added[1:4]))
        assert added[3:] == [0.0] * 5

    def test_pmd_coherence_factor_tends_to_zero(self):
        # nu = exp(-(sigma_omega tau)^2 / 2) is 0 long before the square overflows.
        outputs = [
            Channel(PMDConfig(dgd=dgd, sigma_omega=sigma_omega)).apply_rows(
                self.ROWS, np.random.default_rng(58)
            )
            for dgd, sigma_omega in ((1e100, 1.0), (1e155, 1.0), (1e300, 1e300))
        ]
        assert all(np.array_equal(out, outputs[0]) for out in outputs[1:])


class TestChannelWrapper:
    def test_output_dim_law(self):
        assert Channel(ErasureConfig(p=0.1)).output_dim == 3
        assert Channel(DephasingConfig(p=0.1)).output_dim == 2
        assert Channel(BosonicConfig(loss_db=1.0, fock_dim=2), input_dim=2).output_dim == 2

    def test_stochastic_channels_require_rng(self):
        ch = Channel(PMDConfig(dgd=1.0, sigma_omega=1.0))
        with pytest.raises(ValueError, match="rng"):
            ch.apply(DensityMatrix(_PLUS))

    def test_deterministic_channels_ignore_rng(self):
        ch = Channel(DephasingConfig(p=0.4))
        a = ch.apply(DensityMatrix(_PLUS), np.random.default_rng(1))
        b = ch.apply(DensityMatrix(_PLUS), np.random.default_rng(2))
        assert np.array_equal(a.mat, b.mat)

    def test_unit_trace_preserved_everywhere(self):
        rng = np.random.default_rng(57)
        channels = [
            Channel(DepolarizingConfig(p=0.3)),
            Channel(DephasingConfig(p=0.3)),
            Channel(ErasureConfig(p=0.3)),
            Channel(BosonicConfig(loss_db=3.0, n_th=0.5, fock_dim=2)),
            Channel(TurbulenceConfig(sigma_p=0.2, w0=1.0, rytov_var=0.8)),
            Channel(PMDConfig(dgd=2.0, sigma_omega=1.0)),
        ]
        for ch in channels:
            for _ in range(20):
                out = ch.apply(random_density(rng, 2), rng)
                assert abs(np.trace(out.mat).real - 1) <= 1e-9

    @pytest.mark.parametrize("cfg", [
        ErasureConfig(p=0.1),
        DepolarizingConfig(p=0.1),
        PMDConfig(dgd=1.0, sigma_omega=1.0),
    ])
    def test_every_kind_takes_qubits_only(self, cfg):
        with pytest.raises(ValueError, match="defined on qubits, got input_dim 3"):
            Channel(cfg, input_dim=3)

    def test_input_dim_checked(self):
        ch = Channel(DepolarizingConfig(p=0.1))
        with pytest.raises(ValueError, match="dim"):
            ch.apply(DensityMatrix(np.eye(3) / 3))

    def test_batch_matches_per_state_apply(self):
        rng = np.random.default_rng(60)
        states = [random_density(rng, 2) for _ in range(12)]
        stack = np.stack([s.mat for s in states])
        for cfg in (
            DepolarizingConfig(p=0.3),
            DephasingConfig(p=0.3),
            ErasureConfig(p=0.3),
            BosonicConfig(loss_db=3.0, n_th=0.5, fock_dim=2),
        ):
            ch = Channel(cfg)
            batch = apply_stack(ch, stack)
            assert batch.shape == (12, ch.output_dim, ch.output_dim)
            for row, rho in zip(batch, states):
                assert np.array_equal(row, ch.apply(rho).mat)

    def test_stochastic_batch_reproducible_and_valid(self):
        rho = random_density(np.random.default_rng(61), 2)
        stack = np.repeat(rho.mat[None], 50, axis=0)
        for cfg in (
            TurbulenceConfig(sigma_p=0.3, w0=1.0, rytov_var=1.2, path_loss_db=2.0),
            PMDConfig(dgd=2.0, sigma_omega=1.0),
        ):
            ch = Channel(cfg)
            a = apply_stack(ch, stack, np.random.default_rng(62))
            b = apply_stack(ch, stack, np.random.default_rng(62))
            assert np.array_equal(a, b)
            # every state gets its own draw
            assert not np.allclose(a[0], a[1])
            for row in a:
                DensityMatrix(row)

    def test_batch_input_dim_checked(self):
        with pytest.raises(ValueError, match="dim"):
            apply_stack(Channel(DepolarizingConfig(p=0.1)), np.eye(3)[None] / 3)


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "cfg",
        [
            DepolarizingConfig(p=0.1),
            DephasingConfig(p=0.9),
            ErasureConfig(p=0.0),
            BosonicConfig(loss_db=3.0, n_th=0.2, fock_dim=2),
            TurbulenceConfig(sigma_p=0.1, w0=2.0, rytov_var=0.4, path_loss_db=1.0),
            PMDConfig(dgd=2.0, sigma_omega=0.5, n_sections=4),
        ],
    )
    def test_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown channel type"):
            config_from_dict({"type": "fading"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            config_from_dict({"type": "depolarizing", "p": 0.1, "gamma": 2})

    def test_probability_validated_at_construction(self):
        with pytest.raises(ValueError, match="probability"):
            DepolarizingConfig(p=-0.2)
        with pytest.raises(ValueError, match="probability"):
            config_from_dict({"type": "erasure", "p": 1.01})
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DephasingConfig(p=bad)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"type": "depolarizing", "p": True}, "p must be a number"),
            ({"type": "erasure", "p": "0.5"}, "p must be a number"),
            ({"type": "bosonic", "loss_db": 3.0, "fock_dim": 2.0}, "fock_dim must be an integer"),
            ({"type": "pmd", "dgd": 1.0, "sigma_omega": 1.0, "n_sections": 8.0},
             "n_sections must be an integer"),
        ],
    )
    def test_parameter_types_validated(self, entry, message):
        with pytest.raises(TypeError, match=message):
            config_from_dict(entry)

    def test_parameter_ranges_validated(self):
        with pytest.raises(ValueError, match="loss_db"):
            BosonicConfig(loss_db=-1.0)
        with pytest.raises(ValueError, match="n_sections"):
            PMDConfig(dgd=1.0, sigma_omega=1.0, n_sections=0)
        with pytest.raises(ValueError, match="w0"):
            TurbulenceConfig(sigma_p=0.1, w0=-1.0, rytov_var=0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="loss_db must be finite"):
                BosonicConfig(loss_db=bad)
            with pytest.raises(ValueError, match="n_th must be finite"):
                BosonicConfig(loss_db=1.0, n_th=bad)
            with pytest.raises(ValueError, match="sigma_p must be finite"):
                TurbulenceConfig(sigma_p=bad, w0=1.0, rytov_var=0.0)
            with pytest.raises(ValueError, match="rytov_var must be finite"):
                TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=bad)
            with pytest.raises(ValueError, match="dgd must be finite"):
                PMDConfig(dgd=bad, sigma_omega=1.0)
            with pytest.raises(ValueError, match="sigma_omega must be finite"):
                config_from_dict({"type": "pmd", "dgd": 1.0, "sigma_omega": bad})
