import numpy as np
import pytest
from conftest import bit_table, purity, symbols_to_bits

from qlinksim import (
    DensityMatrix,
    DetectorCodebook,
    InvalidStateError,
    embed_amplitudes,
    make_pure_states,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
)
from qlinksim.states import to_rows


class TestQpskCodebook:
    def test_states(self):
        cb = qpsk_codebook()
        assert cb.M == 4
        assert np.allclose(cb.states[0].mat, [[1, 0], [0, 0]])
        assert np.allclose(cb.states[1].mat, [[0, 0], [0, 1]])
        assert np.allclose(cb.states[2].mat, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(cb.states[3].mat, [[0.5, -0.5], [-0.5, 0.5]])

    def test_priors_uniform(self):
        assert np.allclose(qpsk_codebook().priors, 0.25)

    def test_natural_binary_labels(self):
        cb = qpsk_codebook()
        assert cb.bit_labels.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert cb.bits_per_symbol == 2

    def test_unit_power_scale(self):
        assert qpsk_codebook().power_scale == 1.0


class TestQamConstellation:
    def test_m16_raw_grid(self):
        alphas, _, scale = qam_constellation(16)
        raw = {(round((a / scale).real), round((a / scale).imag)) for a in alphas.tolist()}
        assert raw == {(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}

    def test_m16_power_scale(self):
        _, _, scale = qam_constellation(16)
        assert scale == pytest.approx(1 / np.sqrt(10), abs=1e-15)

    def test_unit_average_power(self):
        alphas, _, _ = qam_constellation(16)
        assert np.mean(np.abs(alphas) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_m4_points(self):
        alphas, _, _ = qam_constellation(4)
        expected = {(s * 1 + 1j * t * 1) / np.sqrt(2) for s in (-1, 1) for t in (-1, 1)}
        assert all(any(abs(a - e) < 1e-12 for e in expected) for a in alphas.tolist())

    def test_symbols_are_permutation(self):
        # Symbol ix * side + iq sits at grid column ix and row iq.
        alphas, bits, scale = qam_constellation(16)
        assert alphas.shape == (16,) and bits.shape == (16, 4)
        ix = (np.round(alphas.real / scale).astype(int) + 3) // 2
        iq = (np.round(alphas.imag / scale).astype(int) + 3) // 2
        assert sorted((ix * 4 + iq).tolist()) == list(range(16))
        assert np.array_equal(ix * 4 + iq, np.arange(16))

    @pytest.mark.parametrize("order", [16, 64])
    def test_gray_property_axis_neighbors(self, order):
        alphas, labels, scale = qam_constellation(order)
        side = int(np.sqrt(order))
        grid = {}
        for alpha, bits in zip(alphas.tolist(), labels.tolist()):
            raw = alpha / scale
            ix = (round(raw.real) + side - 1) // 2
            iq = (round(raw.imag) + side - 1) // 2
            grid[(ix, iq)] = bits
        for (ix, iq), bits in grid.items():
            for nx, nq in ((ix + 1, iq), (ix, iq + 1)):
                if (nx, nq) in grid:
                    dist = sum(a != b for a, b in zip(bits, grid[(nx, nq)]))
                    assert dist == 1

    @pytest.mark.parametrize("order", [0, 2, 8, 15, 32])
    def test_invalid_order_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            qam_constellation(order)


class TestEmbedAlpha:
    def test_origin(self):
        assert np.allclose(embed_amplitudes([0]), [[[1, 0], [0, 0]]])

    def test_unit_real(self):
        assert np.allclose(embed_amplitudes([1]), [[[0.5, 0.5], [0.5, 0.5]]])

    def test_complex_oracle(self):
        (rho,) = embed_amplitudes([1 + 1j])
        assert rho[0, 0] == pytest.approx(1 / 3, abs=1e-12)
        assert rho[1, 0] == pytest.approx((1 + 1j) / 3, abs=1e-12)

    def test_always_pure(self):
        rng = np.random.default_rng(21)
        alphas = (rng.standard_normal(30) + 1j * rng.standard_normal(30)) * 3
        mats = embed_amplitudes(alphas)
        assert mats.shape == (30, 2, 2) and not mats.flags.writeable
        assert np.all(np.abs(purity(mats) - 1.0) <= 1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidStateError, match="finite"):
            embed_amplitudes([0.5, complex(np.inf, 0)])


class TestQamCodebook:
    def test_m16_all_pure(self):
        cb = qam_codebook(16)
        assert cb.M == 16
        assert np.all(np.abs(purity(cb.mats) - 1.0) <= 1e-12)

    def test_states_distinct(self):
        cb = qam_codebook(16)
        for i in range(16):
            for j in range(i + 1, 16):
                diff = cb.mats[i] - cb.mats[j]
                dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
                assert dist > 1e-6

    def test_bits_per_symbol(self):
        assert qam_codebook(16).bits_per_symbol == 4
        assert qam_codebook(4).bits_per_symbol == 2

    def test_power_scale_recorded(self):
        assert qam_codebook(16).power_scale == pytest.approx(1 / np.sqrt(10))


def one_state_projector(amplitudes) -> np.ndarray:
    """The one-state arithmetic codebooks used before they were built as a
    stack: normalize the ket, take its outer product, hermitize."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    v = v / float(np.linalg.norm(v))
    m = np.outer(v, v.conj())
    return (m + m.conj().T) / 2.0


def one_state_embedding(alpha: complex) -> np.ndarray:
    norm = np.sqrt(1.0 + abs(alpha) ** 2)
    return one_state_projector([1.0 / norm, alpha / norm])


class TestCodebookStack:
    def test_qpsk_stack_matches_one_state_reference(self):
        s = 1.0 / np.sqrt(2.0)
        ref = [one_state_projector(a) for a in ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s))]
        cb = qpsk_codebook()
        assert np.array_equal(cb.mats, np.stack(ref))

    @pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
    def test_qam_stack_matches_one_state_reference(self, order):
        alphas, _, _ = qam_constellation(order)
        ref = np.stack([one_state_embedding(alpha) for alpha in alphas.tolist()])
        cb = qam_codebook(order)
        assert cb.mats.shape == (order, 2, 2)
        assert np.array_equal(cb.mats, ref)
        for state, m in zip(cb.states, ref):
            assert np.array_equal(state.mat, m)
        for alpha, m in zip(alphas, ref):
            assert np.array_equal(embed_amplitudes([alpha])[0], m)

    @pytest.mark.parametrize("order", [4, 16, 64, 256, 1024, 4096, 16384])
    def test_constellation_matches_one_point_loop(self, order):
        # The per-point loop the array expression replaces.
        side = int(np.sqrt(order))
        bits_axis = int(np.log2(side))
        scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
        levels = [2 * i - (side - 1) for i in range(side)]
        ref_alphas, ref_bits = [], []
        for ix in range(side):
            for iq in range(side):
                ref_alphas.append(complex(levels[ix], levels[iq]) * scale)
                word = ((ix ^ (ix >> 1)) << bits_axis) | (iq ^ (iq >> 1))
                width = 2 * bits_axis
                ref_bits.append([(word >> (width - 1 - k)) & 1 for k in range(width)])
        alphas, bits, got_scale = qam_constellation(order)
        assert got_scale == scale
        assert np.array_equal(alphas, np.array(ref_alphas))
        assert bits.tolist() == ref_bits

    def test_random_amplitudes_within_one_ulp_of_one_state_reference(self):
        # |alpha|^2 is the correctly rounded square; Python's ** 2 calls libm
        # pow, which is one ulp off it for a few amplitudes in 10^4.
        rng = np.random.default_rng(24)
        alphas = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * 3.0
        ref = np.stack([one_state_embedding(alpha) for alpha in alphas.tolist()])
        assert np.allclose(embed_amplitudes(alphas), ref, rtol=0.0, atol=2 * np.finfo(float).eps)

    @pytest.mark.parametrize("build", [qpsk_codebook, lambda: qam_codebook(16)], ids=["qpsk", "qam16"])
    def test_shared_arrays_are_read_only(self, build):
        cb = build()
        with pytest.raises(ValueError):
            cb.mats[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            cb.bit_labels[0, 0] = 1
        with pytest.raises(ValueError):
            cb.priors[0] = 0.5
        with pytest.raises(ValueError):
            cb.states[0].mat[0, 0] = 0.5

    def test_caller_priors_stay_writable(self):
        cb = qpsk_codebook()
        priors = np.full(4, 0.25)
        mats = np.array(cb.mats)
        DetectorCodebook(mats=mats, priors=priors, bit_labels=cb.bit_labels)
        priors[0] = 0.25
        mats[0, 0, 0] = 1.0

    def test_stack_checked_as_states(self):
        cb = qpsk_codebook()
        with pytest.raises(InvalidStateError, match="trace"):
            DetectorCodebook(mats=2 * cb.mats, priors=cb.priors, bit_labels=cb.bit_labels)

    def test_rows_of_the_states_with_unit_weight(self):
        for cb in (qpsk_codebook(), qam_codebook(16), qam_codebook(64)):
            rows = to_rows(cb.mats)
            assert np.all(np.abs(rows[:, 0] - 1.0) <= 1e-15)
            assert np.array_equal(cb.rows[:, 1:], rows[:, 1:])
            assert np.all(cb.rows[:, 0] == 1.0) and not cb.rows.flags.writeable

    def test_stack_from_hand_built_states(self):
        states = (DensityMatrix(np.eye(2) / 2), DensityMatrix(np.diag([1.0, 0.0])))
        mats = np.stack([s.mat for s in states])
        cb = DetectorCodebook(mats=mats, priors=np.array([0.5, 0.5]), bit_labels=((0,), (1,)))
        assert np.array_equal(cb.mats, mats)
        assert (cb.M, cb.dim, cb.bits_per_symbol) == (2, 2, 1)
        assert not cb.mats.flags.writeable and mats.flags.writeable

    def test_states_are_views_of_the_stack(self):
        cb = qam_codebook(16)
        states = cb.states
        assert len(states) == 16 and all(isinstance(s, DensityMatrix) for s in states)
        assert all(np.shares_memory(s.mat, cb.mats) for s in states)

    @pytest.mark.parametrize(
        "mats, labels, message",
        [
            (np.eye(2) / 2, ((0,), (1,)), "stack"),
            (make_pure_states([[1, 0], [0, 1]]), ((0,),), "one bit label per state"),
            (make_pure_states([[1, 0], [0, 1]]), (0, 1), "one bit label per state"),
            (make_pure_states([[1, 0], [0, 1]]), ((0, 2), (1, 0)), "table of 0s and 1s"),
            (make_pure_states([[1, 0], [0, 1]]), ((0, -1), (1, 0)), "table of 0s and 1s"),
            (make_pure_states([[1, 0], [0, 1]]), ((0.5,), (1,)), "table of 0s and 1s"),
            (make_pure_states([[1, 0], [0, 1]]), np.zeros((2, 0), int), r"bits >= 1"),
        ],
    )
    def test_malformed_codebook_rejected(self, mats, labels, message):
        with pytest.raises(ValueError, match=message):
            DetectorCodebook(mats=mats, priors=np.array([0.5, 0.5]), bit_labels=labels)

    @pytest.mark.parametrize(
        "priors", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.5, 0.25, 0.25], [-0.5, 1.0, 0.25, 0.25]]
    )
    def test_bad_priors_rejected(self, priors):
        cb = qpsk_codebook()
        with pytest.raises(ValueError, match="priors must be finite, nonnegative"):
            DetectorCodebook(mats=cb.mats, priors=priors, bit_labels=cb.bit_labels)

    @pytest.mark.parametrize("scale", [0.0, np.nan, -1.0, np.inf])
    def test_bad_power_scale_rejected(self, scale):
        cb = qpsk_codebook()
        with pytest.raises(ValueError, match="power_scale must be finite and > 0"):
            DetectorCodebook(
                mats=cb.mats, priors=cb.priors, bit_labels=cb.bit_labels, power_scale=scale
            )


class TestSymbolsToBits:
    def test_qpsk_natural_binary(self):
        out = symbols_to_bits([0, 3], qpsk_codebook())
        assert out.tolist() == [[0, 0], [1, 1]]

    def test_erasure_sentinel_expansion(self):
        out = symbols_to_bits([-1], qam_codebook(16))
        assert out.tolist() == [[-1, -1, -1, -1]]

    def test_empty(self):
        assert symbols_to_bits([], qpsk_codebook()).size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="symbol"):
            symbols_to_bits([4], qpsk_codebook())
        with pytest.raises(ValueError, match="symbol"):
            symbols_to_bits([-2], qpsk_codebook())

    def test_bit_table_rows(self):
        cb = qam_codebook(16)
        table = bit_table(cb)
        assert table.shape == (17, 4)
        assert np.array_equal(table[:16], cb.bit_labels)
        assert table[16].tolist() == [-1, -1, -1, -1]

    def test_round_trip_with_gray_labels(self):
        cb = qam_codebook(16)
        bits = symbols_to_bits(np.arange(16), cb)
        assert bits.shape == (16, 4)
        assert np.array_equal(bits, cb.bit_labels)
