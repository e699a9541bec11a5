import numpy as np
import pytest
from conftest import bit_table, compute_ber, compute_ser, symbols_to_bits

import qlinksim
from qlinksim import (
    confusion_matrix,
    error_counts,
    hamming_table,
    qam_codebook,
    qpsk_codebook,
)
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


class TestConfusionCount:
    @pytest.mark.parametrize("codebook", [qpsk_codebook(), qam_codebook(4), qam_codebook(16),
                                          qam_codebook(64)],
                             ids=["qpsk", "qam4", "qam16", "qam64"])
    def test_counts_match_per_symbol_oracle(self, codebook):
        rng = np.random.default_rng(73)
        hamming = hamming_table(codebook.bit_labels)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            tx = rng.integers(0, codebook.M, n)
            rx = np.where(rng.random(n) < 0.5, tx, rng.integers(0, codebook.M, n))
            rx[rng.random(n) < 0.1] = -1
            confusion = confusion_matrix(tx, rx, codebook.M)
            assert confusion.shape == (codebook.M, codebook.M + 1)
            assert error_counts(confusion, hamming) == (
                compute_ser(tx, rx),
                compute_ber(symbols_to_bits(tx, codebook), symbols_to_bits(rx, codebook)),
                int(np.count_nonzero(rx == -1)),
            )

    def test_hamming_table_counts_differing_bits(self):
        cb = qam_codebook(16)
        hamming, table = hamming_table(cb.bit_labels), bit_table(cb)
        for m, j in np.ndindex(hamming.shape):
            assert hamming[m, j] == int(np.sum(table[m] != table[j]))
        assert np.all(hamming[:, -1] == cb.bits_per_symbol)
        assert np.all(np.diag(hamming) == 0)

    @pytest.mark.parametrize("labels", [[[0, 2], [1, 0]], [[0, -1], [1, 0]], [0, 1]])
    def test_hamming_table_needs_a_0_1_table(self, labels):
        with pytest.raises(ValueError, match="0s and 1s"):
            hamming_table(labels)

    def test_counts_add(self):
        rng = np.random.default_rng(74)
        tx, rx = rng.integers(0, 16, 100), rng.integers(-1, 16, 100)
        whole = confusion_matrix(tx, rx, 16)
        parts = confusion_matrix(tx[:37], rx[:37], 16) + confusion_matrix(tx[37:], rx[37:], 16)
        assert np.array_equal(whole, parts)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="receive-only"):
            confusion_matrix([-1, 0], [0, 0], 4)
        with pytest.raises(ValueError, match="received labels"):
            confusion_matrix([0, 1], [0, 4], 4)
        with pytest.raises(ValueError, match="received labels"):
            confusion_matrix([0, 1], [-2, 0], 4)
        with pytest.raises(ValueError, match="equal length"):
            confusion_matrix([0, 1], [0], 4)

    def test_empty_count_rejected(self):
        hamming = hamming_table(qpsk_codebook().bit_labels)
        with pytest.raises(ValueError, match="zero"):
            error_counts(confusion_matrix([], [], 4), hamming)
        with pytest.raises(ValueError, match="M \\+ 1"):
            error_counts(np.ones((4, 4), dtype=int), hamming)

    def test_zero_bit_table_rejected(self):
        confusion = confusion_matrix([0, 1], [0, 1], 2)
        hamming = hamming_table(np.zeros((2, 0), dtype=int))
        with pytest.raises(ValueError, match="zero bits per symbol"):
            error_counts(confusion, hamming)

    def test_comparison_counts_without_expanding(self):
        # A comparison scores from counts alone: the per-symbol route is gone
        # from the package, and the oracles in conftest are its only copy.
        for module in (qlinksim, pipeline, modulation, metrics):
            for name in ("symbols_to_bits", "compute_ser", "compute_ber"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
