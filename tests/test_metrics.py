import numpy as np
import pytest
from conftest import (
    bit_table,
    compute_ber,
    compute_ser,
    confusion_matrix,
    dense_error_counts,
    hamming_table,
    symbols_to_bits,
)

import qlinksim
from qlinksim import error_counts, qam_codebook, qpsk_codebook
from qlinksim import metrics, modulation, pipeline


class TestComputeSer:
    def test_identical(self):
        assert compute_ser([0, 1, 2], [0, 1, 2]) == (0.0, 0)

    def test_all_wrong(self):
        assert compute_ser([0, 1], [1, 0]) == (1.0, 2)

    def test_erasure_counts_as_error(self):
        ser, count = compute_ser([0, 1, 2, 3], [0, 1, 2, -1])
        assert ser == 0.25
        assert count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compute_ser([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            compute_ser([0, 1], [0])

    def test_tx_sentinel_rejected(self):
        with pytest.raises(ValueError, match="receive-only"):
            compute_ser([-1, 0], [0, 0])


class TestComputeBer:
    def test_identical(self):
        assert compute_ber([0, 1, 1, 0], [0, 1, 1, 0]) == (0.0, 0)

    def test_complement(self):
        assert compute_ber([0, 1, 0], [1, 0, 1]) == (1.0, 3)

    def test_erased_symbol_bits_all_mismatch(self):
        cb = qam_codebook(16)
        tx = np.arange(10) % 16
        rx = tx.copy()
        rx[4] = -1
        ber, count = compute_ber(symbols_to_bits(tx, cb), symbols_to_bits(rx, cb))
        assert ber == pytest.approx(4 / 40)
        assert count == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compute_ber([], [])


class TestRateRelations:
    def test_bounds_and_ordering(self):
        cb = qam_codebook(16)
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            tx = rng.integers(0, 16, n)
            rx = tx.copy()
            flips = rng.random(n) < 0.3
            rx[flips] = rng.integers(0, 16, int(flips.sum()))
            rx[rng.random(n) < 0.05] = -1
            ser, _ = compute_ser(tx, rx)
            ber, _ = compute_ber(symbols_to_bits(tx, cb), symbols_to_bits(rx, cb))
            assert 0.0 <= ber <= 1.0
            assert 0.0 <= ser <= 1.0
            assert ber <= ser + 1e-12
            assert ser <= ber * cb.bits_per_symbol + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(72)
        tx = rng.integers(0, 4, 60)
        rx = rng.integers(0, 4, 60)
        perm = rng.permutation(60)
        assert compute_ser(tx, rx) == compute_ser(tx[perm], rx[perm])
        assert compute_ber(tx, rx) == compute_ber(tx[perm], rx[perm])


def random_pairs(rng, m, n):
    """n (sent, received) pairs over an alphabet of m: half received right,
    the rest at random, and about a tenth erased."""
    tx = rng.integers(0, m, n)
    rx = np.where(rng.random(n) < 0.5, tx, rng.integers(0, m, n))
    rx[rng.random(n) < 0.1] = -1
    return tx, rx


class TestConfusionCount:
    """``error_counts`` on (sent, received) pairs against the per-symbol SER
    and BER and against the dense (M, M + 1) confusion count and Hamming
    table in conftest."""

    @pytest.mark.parametrize("codebook", [qpsk_codebook(), qam_codebook(4), qam_codebook(16),
                                          qam_codebook(64)],
                             ids=["qpsk", "qam4", "qam16", "qam64"])
    def test_counts_match_per_symbol_oracle(self, codebook):
        rng = np.random.default_rng(73)
        hamming = hamming_table(codebook.bit_labels)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            tx, rx = random_pairs(rng, codebook.M, n)
            want = (
                compute_ser(tx, rx),
                compute_ber(symbols_to_bits(tx, codebook), symbols_to_bits(rx, codebook)),
                int(np.count_nonzero(rx == -1)),
            )
            assert error_counts(tx, rx, codebook.bit_labels) == want
            assert dense_error_counts(confusion_matrix(tx, rx, codebook.M), hamming) == want

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_weighted_states_match_the_dense_oracle(self, order):
        # A deterministic channel's M decisions, each counted once per time
        # its state was sent: the confusion count the run used to scale.
        codebook = qam_codebook(order)
        rng = np.random.default_rng(order)
        states = np.arange(codebook.M)
        decisions = rng.integers(0, codebook.M, codebook.M)
        decisions[rng.random(codebook.M) < 0.3] = -1
        counts = np.bincount(rng.integers(0, codebook.M, 500), minlength=codebook.M)
        confusion = confusion_matrix(states, decisions, codebook.M) * counts[:, None]
        want = dense_error_counts(confusion, hamming_table(codebook.bit_labels))
        assert error_counts(states, decisions, codebook.bit_labels, counts) == want

    def test_weights_equal_repetition(self):
        codebook = qam_codebook(16)
        rng = np.random.default_rng(75)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            tx, rx = random_pairs(rng, 16, n)
            weights = rng.integers(0, 5, n)
            weights[0] += 1  # at least one symbol
            labels = codebook.bit_labels
            repeated = error_counts(np.repeat(tx, weights), np.repeat(rx, weights), labels)
            assert error_counts(tx, rx, labels, weights) == repeated

    def test_hamming_table_counts_differing_bits(self):
        # A one-pair count is the Hamming distance of its two label rows, and
        # every bit for an erasure; the dense oracle's table says the same.
        cb = qam_codebook(16)
        hamming, table = hamming_table(cb.bit_labels), bit_table(cb)
        for m, j in np.ndindex(hamming.shape):
            label = j if j < cb.M else -1
            differ = int(np.sum(table[m] != table[label]))
            assert hamming[m, j] == differ
            assert error_counts([m], [label], cb.bit_labels)[1][1] == differ
        assert np.all(hamming[:, -1] == cb.bits_per_symbol)
        assert np.all(np.diag(hamming) == 0)

    # Bools and floats valued 0 and 1 are no integer table either.
    @pytest.mark.parametrize(
        "labels", [[[0, 2], [1, 0]], [[0, -1], [1, 0]], [0, 1], [[True], [False]], [[1.0], [0.0]]]
    )
    def test_hamming_table_needs_a_0_1_table(self, labels):
        with pytest.raises(ValueError, match="0s and 1s"):
            error_counts([0], [0], labels)

    def test_counts_add(self):
        # The counts of two parts of a run add up to the counts of the whole,
        # weighted or not.
        bit_labels = qam_codebook(16).bit_labels
        rng = np.random.default_rng(74)
        tx, rx = rng.integers(0, 16, 100), rng.integers(-1, 16, 100)
        weights = rng.integers(1, 4, 100)
        for w in (None, weights):
            whole = error_counts(tx, rx, bit_labels, w)
            parts = [
                error_counts(tx[part], rx[part], bit_labels, None if w is None else w[part])
                for part in (slice(None, 37), slice(37, None))
            ]
            assert whole[0][1] == parts[0][0][1] + parts[1][0][1]
            assert whole[1][1] == parts[0][1][1] + parts[1][1][1]
            assert whole[2] == parts[0][2] + parts[1][2]

    def test_bad_labels_rejected(self):
        bit_labels = qpsk_codebook().bit_labels
        with pytest.raises(ValueError, match="receive-only"):
            error_counts([-1, 0], [0, 0], bit_labels)
        with pytest.raises(ValueError, match="received labels"):
            error_counts([0, 1], [0, 4], bit_labels)
        with pytest.raises(ValueError, match="received labels"):
            error_counts([0, 1], [-2, 0], bit_labels)
        with pytest.raises(ValueError, match="equal length"):
            error_counts([0, 1], [0], bit_labels)

    @pytest.mark.parametrize(
        "weights",
        [[1], [1.0, 2.0], [[1, 1]], [1, -1], [True, True]],
    )
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="one nonnegative integer per pair"):
            error_counts([0, 1], [0, 1], qpsk_codebook().bit_labels, weights)

    @pytest.mark.parametrize(
        "tx, rx",
        [([0, 1], [0.7, 1.9]), ([0.0, 1.0], [0, 1]), ([0, 1], [True, False]), (["0", "1"], [0, 1])],
    )
    def test_non_integer_symbols_and_labels_rejected(self, tx, rx):
        # Casting would truncate 0.7 and 1.9 to labels 0 and 1.
        with pytest.raises(ValueError, match="symbols and labels must be integers"):
            error_counts(tx, rx, qpsk_codebook().bit_labels)

    def test_integer_dtypes_and_empty_sequences_accepted(self):
        bit_labels = qpsk_codebook().bit_labels
        want = error_counts([0, 1, 3], [0, -1, 2], bit_labels)
        tx = np.array([0, 1, 3], dtype=np.uint8)
        for dtype in (np.int8, np.int32, np.int64):
            rx = np.array([0, -1, 2], dtype=dtype)
            assert error_counts(tx, rx, bit_labels) == want
            assert error_counts(tx, rx, bit_labels, np.ones(3, dtype=np.uint8)) == want
        # An empty run has no rate, whatever the dtype of its sequences.
        with pytest.raises(ValueError, match="zero symbols"):
            error_counts([], np.array([], dtype=float), bit_labels)

    def test_empty_count_rejected(self):
        bit_labels = qpsk_codebook().bit_labels
        with pytest.raises(ValueError, match="zero"):
            error_counts([], [], bit_labels)
        # Pairs that all count zero times are no symbols either.
        with pytest.raises(ValueError, match="zero symbols"):
            error_counts([0, 1], [0, 1], bit_labels, [0, 0])

    def test_zero_bit_table_rejected(self):
        with pytest.raises(ValueError, match="zero bits per symbol"):
            error_counts([0, 1], [0, 1], np.zeros((2, 0), dtype=int))

    def test_comparison_counts_without_expanding(self):
        # A comparison scores from its pairs alone: the per-symbol route and
        # the dense (M, M + 1) tables are gone from the package, and the
        # oracles in conftest are their only copy.
        for module in (qlinksim, pipeline, modulation, metrics):
            for name in ("symbols_to_bits", "compute_ser", "compute_ber",
                         "confusion_matrix", "hamming_table"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert "hamming" not in pipeline._Transmitter.__dataclass_fields__
