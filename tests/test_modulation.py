import hashlib
import warnings

import numpy as np
import pytest
from conftest import bit_table, make_pure_states, purity, symbols_to_bits

from qlinksim import (
    DensityMatrix,
    DetectorCodebook,
    InvalidStateError,
    embed_amplitudes,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
    state_rows,
)
from qlinksim.modulation import _embedding_rows, qam_side
from qlinksim.states import to_rows

# Absolute tolerance of the closed-form codebook against the one-state
# complex references: four float64 ulps at 1 (observed at most two).
ULPS_4 = 4 * np.finfo(float).eps


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

    @pytest.mark.parametrize("order", [16.9, 64.5, 16.0, np.float64(16.0), True, "16", None, 2**65])
    def test_non_integral_or_boolean_order_rejected(self, order):
        # int() would have truncated 16.9 to a 16-QAM codebook.
        for build in (qam_side, qam_constellation, qam_codebook):
            with pytest.raises(ValueError, match=r"QAM order must be 4, 16, 64, \.\.\. got"):
                build(order)

    def test_integral_orders_of_any_integer_type_accepted(self):
        assert qam_side(np.int64(64)) == qam_side(np.uint8(64)) == qam_side(64) == 8
        # Beyond 2**64, where numpy's log2 and sqrt take no Python int.
        assert qam_side(4**40) == 2**40


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

    @pytest.mark.parametrize("alpha", [1e155, 1e300, -1e200j])
    def test_amplitude_whose_square_overflows_is_one(self, alpha):
        # |alpha|^2 overflows a double, yet the state is |1> to double
        # precision: the row's limit, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _embedding_rows([alpha])
            mats = embed_amplitudes([alpha])
        assert np.max(np.abs(rows - [1.0, 0.0, 0.0, -1.0])) <= ULPS_4
        assert np.max(np.abs(mats - [[0.0, 0.0], [0.0, 1.0]])) <= ULPS_4


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


# |0> and |1>: the rows of a hand-built two-state codebook.
BASIS_ROWS = ((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, -1.0))


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


# SHA-256 of qam_codebook(order).rows, recorded before the overflow limit
# was added to _embedding_rows: every finite |alpha|^2 keeps its bits.
QAM_ROW_DIGESTS = {
    4: "c3da205bc032d15e288ce436e5ee4a174921e1f3ea837c608eb5c50d9fa657e2",
    16: "aa1492219eaf7e507f5489e3cd40633ca9927e771be88bb60c7f4734683adf00",
    64: "f80ac3e2d6137e91a89b4decf3368ee44e5d3083bb32370ec1ba62193a2215f2",
    256: "8f0e6d52b37cd7c74fe07e78b060cc82e75f64e0df86358ea9de60f239c9b013",
    1024: "8ff5125cf3c44a7f39ef9d2fae3fff4fa061a66f00c9406662ad9a74bc9b0c2a",
    4096: "581ac16ba17c8422e043bedfd281ff24cf17bb01aea1fd00216f037cd12a9413",
}


class TestCodebookStack:
    @pytest.mark.parametrize("order", list(QAM_ROW_DIGESTS))
    def test_qam_rows_are_the_recorded_bits(self, order):
        rows = qam_codebook(order).rows
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert hashlib.sha256(rows.tobytes()).hexdigest() == QAM_ROW_DIGESTS[order]

    def test_qpsk_stack_matches_one_state_reference(self):
        s = 1.0 / np.sqrt(2.0)
        ref = [one_state_projector(a) for a in ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s))]
        cb = qpsk_codebook()
        assert np.max(np.abs(cb.mats - np.stack(ref))) <= ULPS_4
        assert np.array_equal(cb.rows, [[1, 0, 0, 1], [1, 0, 0, -1], [1, 1, 0, 0], [1, -1, 0, 0]])

    @pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
    def test_qam_stack_matches_one_state_reference(self, order):
        alphas, _, _ = qam_constellation(order)
        ref = np.stack([one_state_embedding(alpha) for alpha in alphas.tolist()])
        cb = qam_codebook(order)
        assert cb.mats.shape == (order, 2, 2)
        assert np.max(np.abs(cb.mats - ref)) <= ULPS_4
        assert np.max(np.abs(cb.rows - to_rows(ref))) <= ULPS_4
        for state, m in zip(cb.states, cb.mats):
            assert np.array_equal(state.mat, m)
        for alpha, m in zip(alphas, ref):
            assert np.max(np.abs(embed_amplitudes([alpha])[0] - m)) <= ULPS_4
        # The embedding and the codebook are one computation.
        assert np.array_equal(embed_amplitudes(alphas), cb.mats)

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
        # The closed-form rows against the normalized ket's projector.
        rng = np.random.default_rng(24)
        alphas = (rng.standard_normal(3000) + 1j * rng.standard_normal(3000)) * 3.0
        ref = np.stack([one_state_embedding(alpha) for alpha in alphas.tolist()])
        assert np.allclose(embed_amplitudes(alphas), ref, rtol=0.0, atol=ULPS_4)

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
        rows = np.array(cb.rows)
        DetectorCodebook(rows=rows, priors=priors, bit_labels=cb.bit_labels)
        priors[0] = 0.25
        rows[0, 0] = 1.0

    def test_stack_checked_as_states(self):
        cb = qpsk_codebook()
        for scale, shift, message in [
            (0.5, 0.0, r"trace deviates from 1 by 5\.000e-01"),
            (2.0, 0.0, r"weight 2\.000e\+00 exceeds 1"),
            (1.0, 0.5, "not positive semidefinite"),
            (1.0, np.nan, "finite"),
        ]:
            rows = scale * cb.rows + [0.0, 0.0, 0.0, shift]
            with pytest.raises(InvalidStateError, match=message):
                DetectorCodebook(rows=rows, priors=cb.priors, bit_labels=cb.bit_labels)

    def test_rows_of_the_states_with_unit_weight(self):
        s = 1.0 / np.sqrt(2.0)
        qpsk = [one_state_projector(a) for a in ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s))]
        references = [np.stack(qpsk)]
        for order in (16, 64):
            alphas = qam_constellation(order)[0].tolist()
            references.append([one_state_embedding(a) for a in alphas])
        for cb, ref in zip((qpsk_codebook(), qam_codebook(16), qam_codebook(64)), references):
            rows = to_rows(np.stack(ref))
            assert np.all(np.abs(rows[:, 0] - 1.0) <= 1e-15)
            assert np.max(np.abs(cb.rows[:, 1:] - rows[:, 1:])) <= ULPS_4
            assert np.all(cb.rows[:, 0] == 1.0) and not cb.rows.flags.writeable

    def test_hand_built_rows_are_stored_with_unit_weight(self):
        rows = state_rows(make_pure_states([[0.6, 0.8j], [0.8, -0.6]]), 2)
        rows[:, 0] += [3e-10, -3e-10]
        cb = DetectorCodebook(rows=rows, priors=np.array([0.5, 0.5]), bit_labels=((0,), (1,)))
        assert np.all(cb.rows[:, 0] == 1.0) and np.array_equal(cb.rows[:, 1:], rows[:, 1:])

    def test_stack_from_hand_built_states(self):
        states = (DensityMatrix(np.eye(2) / 2), DensityMatrix(np.diag([1.0, 0.0])))
        mats = np.stack([s.mat for s in states])
        cb = DetectorCodebook(
            rows=state_rows(mats, 2), priors=np.array([0.5, 0.5]), bit_labels=((0,), (1,))
        )
        assert np.array_equal(cb.mats, mats)
        assert (cb.M, cb.dim, cb.bits_per_symbol) == (2, 2, 1)
        assert not cb.mats.flags.writeable and mats.flags.writeable

    def test_states_are_views_of_the_stack(self):
        cb = qam_codebook(16)
        states = cb.states
        assert len(states) == 16 and all(isinstance(s, DensityMatrix) for s in states)
        assert all(np.shares_memory(s.mat, cb.mats) for s in states)

    # ``mats`` is what the codebook is given as its rows: the last case is a
    # complex stack of states, whose rows state_rows gives.
    @pytest.mark.parametrize(
        "mats, labels, message",
        [
            (np.eye(2) / 2, ((0,), (1,)), "stack"),
            (BASIS_ROWS, ((0,),), "one bit label per state"),
            (BASIS_ROWS, (0, 1), "one bit label per state"),
            (BASIS_ROWS, ((0, 2), (1, 0)), "table of 0s and 1s"),
            (BASIS_ROWS, ((0, -1), (1, 0)), "table of 0s and 1s"),
            (BASIS_ROWS, ((0.5,), (1,)), "table of 0s and 1s"),
            (BASIS_ROWS, np.zeros((2, 0), int), r"bits >= 1"),
            (make_pure_states([[1, 0], [0, 1]]), ((0,), (1,)), r"\(M, 4\) row stack"),
            # Valued 0 and 1, but not integers: they loaded as 1 and 0.
            (BASIS_ROWS, ((True,), (False,)), "bit labels must be integers, got bool"),
            (BASIS_ROWS, ((1.0,), (0.0,)), "bit labels must be integers, got float64"),
        ],
    )
    def test_malformed_codebook_rejected(self, mats, labels, message):
        with pytest.raises(ValueError, match=message):
            DetectorCodebook(rows=mats, priors=np.array([0.5, 0.5]), bit_labels=labels)

    @pytest.mark.parametrize(
        "priors", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.5, 0.25, 0.25], [-0.5, 1.0, 0.25, 0.25]]
    )
    def test_bad_priors_rejected(self, priors):
        cb = qpsk_codebook()
        with pytest.raises(ValueError, match="priors must be finite, nonnegative"):
            DetectorCodebook(rows=cb.rows, priors=priors, bit_labels=cb.bit_labels)

    @pytest.mark.parametrize("scale", [0.0, np.nan, -1.0, np.inf])
    def test_bad_power_scale_rejected(self, scale):
        cb = qpsk_codebook()
        with pytest.raises(ValueError, match="power_scale must be finite and > 0"):
            DetectorCodebook(
                rows=cb.rows, priors=cb.priors, bit_labels=cb.bit_labels, power_scale=scale
            )

    @pytest.mark.parametrize("scale", ["2", True, np.bool_(True), None, 2j, np.array(2.0)])
    def test_power_scale_must_be_a_real_number(self, scale):
        # "2" was stored as the string and failed later, in project_rows.
        cb = qpsk_codebook()
        with pytest.raises(TypeError, match=r"^power_scale must be a real number, got "):
            DetectorCodebook(
                rows=cb.rows, priors=cb.priors, bit_labels=cb.bit_labels, power_scale=scale
            )

    @pytest.mark.parametrize("scale", [2, np.int8(2), np.float32(2.0), 2.0])
    def test_power_scale_stored_as_a_float(self, scale):
        cb = qpsk_codebook()
        got = DetectorCodebook(
            rows=cb.rows, priors=cb.priors, bit_labels=cb.bit_labels, power_scale=scale
        ).power_scale
        assert type(got) is float and got == 2.0

    @pytest.mark.parametrize(
        "rows, dtype",
        [
            ([["1", "0", "0", "1"], ["1", "0", "0", "-1"]], "<U2"),
            ([[1 + 0j, 0, 0, 1], [1, 0, 0, -1]], "complex128"),
            ([[True, False, False, True], [True, False, False, False]], "bool"),
            (np.array([[1, 0, 0, 1], [1, 0, 0, -1]], dtype=object), "object"),
        ],
    )
    def test_rows_must_be_integers_or_floats(self, rows, dtype):
        # String rows loaded, and complex ones lost their imaginary parts
        # with only a ComplexWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^codebook rows must be integers or floats, got dtype {dtype}$"
            with pytest.raises(TypeError, match=message):
                DetectorCodebook(rows=rows, priors=[0.5, 0.5], bit_labels=((0,), (1,)))


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
