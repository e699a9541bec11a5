import numpy as np
import pytest

from qlinksim import (
    DensityMatrix,
    DetectorCodebook,
    InvalidStateError,
    embed_alpha,
    purity,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
    symbols_to_bits,
)


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
        assert cb.bit_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert cb.bits_per_symbol == 2

    def test_unit_power_scale(self):
        assert qpsk_codebook().power_scale == 1.0


class TestQamConstellation:
    def test_m16_raw_grid(self):
        points, scale = qam_constellation(16)
        raw = {(round((p.alpha / scale).real), round((p.alpha / scale).imag)) for p in points}
        assert raw == {(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}

    def test_m16_power_scale(self):
        _, scale = qam_constellation(16)
        assert scale == pytest.approx(1 / np.sqrt(10), abs=1e-15)

    def test_unit_average_power(self):
        points, _ = qam_constellation(16)
        mean_power = np.mean([abs(p.alpha) ** 2 for p in points])
        assert mean_power == pytest.approx(1.0, abs=1e-12)

    def test_m4_points(self):
        points, _ = qam_constellation(4)
        expected = {(s * 1 + 1j * t * 1) / np.sqrt(2) for s in (-1, 1) for t in (-1, 1)}
        assert all(any(abs(p.alpha - e) < 1e-12 for e in expected) for p in points)

    def test_symbols_are_permutation(self):
        points, _ = qam_constellation(16)
        assert sorted(p.symbol for p in points) == list(range(16))

    @pytest.mark.parametrize("order", [16, 64])
    def test_gray_property_axis_neighbors(self, order):
        points, scale = qam_constellation(order)
        side = int(np.sqrt(order))
        grid = {}
        for p in points:
            raw = p.alpha / scale
            ix = (round(raw.real) + side - 1) // 2
            iq = (round(raw.imag) + side - 1) // 2
            grid[(ix, iq)] = p.bits
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
        assert np.allclose(embed_alpha(0).mat, [[1, 0], [0, 0]])

    def test_unit_real(self):
        assert np.allclose(embed_alpha(1).mat, [[0.5, 0.5], [0.5, 0.5]])

    def test_complex_oracle(self):
        rho = embed_alpha(1 + 1j)
        assert rho.mat[0, 0] == pytest.approx(1 / 3, abs=1e-12)
        assert rho.mat[1, 0] == pytest.approx((1 + 1j) / 3, abs=1e-12)

    def test_always_pure(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            alpha = complex(*rng.standard_normal(2)) * 3
            assert purity(embed_alpha(alpha)) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidStateError, match="finite"):
            embed_alpha(complex(np.inf, 0))


class TestQamCodebook:
    def test_m16_all_pure(self):
        cb = qam_codebook(16)
        assert cb.M == 16
        assert all(purity(s) == pytest.approx(1.0, abs=1e-12) for s in cb.states)

    def test_states_distinct(self):
        cb = qam_codebook(16)
        for i in range(16):
            for j in range(i + 1, 16):
                diff = cb.states[i].mat - cb.states[j].mat
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
        points, _ = qam_constellation(order)
        ref = np.stack([one_state_embedding(p.alpha) for p in points])
        cb = qam_codebook(order)
        assert cb.mats.shape == (order, 2, 2)
        assert np.array_equal(cb.mats, ref)
        for point, state, m in zip(points, cb.states, ref):
            assert np.array_equal(state.mat, m)
            assert np.array_equal(embed_alpha(point.alpha).mat, m)

    def test_random_amplitudes_within_one_ulp_of_one_state_reference(self):
        # |alpha|^2 is the correctly rounded square; Python's ** 2 calls libm
        # pow, which is one ulp off it for a few amplitudes in 10^4.
        rng = np.random.default_rng(24)
        alphas = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * 3.0
        for alpha in alphas.tolist():
            ref = one_state_embedding(alpha)
            assert np.allclose(embed_alpha(alpha).mat, ref, rtol=0.0, atol=2 * np.finfo(float).eps)

    @pytest.mark.parametrize("build", [qpsk_codebook, lambda: qam_codebook(16)], ids=["qpsk", "qam16"])
    def test_shared_arrays_are_read_only(self, build):
        cb = build()
        with pytest.raises(ValueError):
            cb.mats[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            cb.bit_table[0, 0] = 1
        with pytest.raises(ValueError):
            cb.priors[0] = 0.5
        with pytest.raises(ValueError):
            cb.states[0].mat[0, 0] = 0.5

    def test_caller_priors_stay_writable(self):
        cb = qpsk_codebook()
        priors = np.full(4, 0.25)
        DetectorCodebook(
            states=cb.states, priors=priors, bit_labels=cb.bit_labels, bits_per_symbol=2
        )
        priors[0] = 0.25

    def test_stack_from_hand_built_states(self):
        states = (DensityMatrix(np.eye(2) / 2), DensityMatrix(np.diag([1.0, 0.0])))
        cb = DetectorCodebook(
            states=states, priors=np.array([0.5, 0.5]), bit_labels=((0,), (1,)),
            bits_per_symbol=1,
        )
        assert np.array_equal(cb.mats, np.stack([s.mat for s in states]))
        assert (cb.M, cb.dim) == (2, 2)


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
        assert cb.bit_table.shape == (17, 4)
        assert [tuple(b) for b in cb.bit_table[:16].tolist()] == list(cb.bit_labels)
        assert cb.bit_table[16].tolist() == [-1, -1, -1, -1]

    def test_round_trip_with_gray_labels(self):
        cb = qam_codebook(16)
        bits = symbols_to_bits(np.arange(16), cb)
        assert bits.shape == (16, 4)
        assert [tuple(b) for b in bits.tolist()] == list(cb.bit_labels)
