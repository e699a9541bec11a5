"""Symbol and bit error rates.

A channel's decisions are scored by counting them, not by expanding them:
:func:`confusion_matrix` counts each (transmitted symbol, received label)
pair in an (M, M + 1) table whose last column is the erasure label -1, and
:func:`error_counts` reads the symbol errors, bit errors and erasures off
that count and the (M, M + 1) :func:`hamming_table` of the codebook's bit
labels.  Counts add, so the count of a run is the sum of the counts of its
parts.

An erased reception (-1) is an error in its symbol and in every bit; -1
is a receive-only label, never a transmitted symbol.
"""

from __future__ import annotations

import numpy as np


def confusion_matrix(tx_symbols, rx_labels, M: int) -> np.ndarray:
    """(M, M + 1) count of (transmitted symbol, received label) pairs.

    Row m counts the receptions of symbol m; column j < M counts label j
    and column M the erasure label -1.  Both sequences must hold integers
    (an empty one may have any dtype); other values are rejected, not
    truncated.
    """
    tx, rx = np.asarray(tx_symbols), np.asarray(rx_labels)
    if any(a.size and a.dtype.kind not in "iu" for a in (tx, rx)):
        raise ValueError(f"symbols and labels must be integers, got {tx.dtype} and {rx.dtype}")
    if tx.ndim != 1 or rx.ndim != 1 or tx.size != rx.size:
        raise ValueError(
            f"symbol and label sequences must be one-dimensional and of equal "
            f"length, got shapes {tx.shape} and {rx.shape}"
        )
    if tx.size and (tx.min() < 0 or tx.max() >= M):
        raise ValueError(f"transmitted symbols must be in [0, {M - 1}]; -1 is receive-only")
    if rx.size and (rx.min() < -1 or rx.max() >= M):
        raise ValueError(f"received labels must be in [-1, {M - 1}]")
    # -1 % (M + 1) is M: the erasure label lands in the last column.
    flat = tx.astype(np.intp) * (M + 1) + rx.astype(np.intp) % (M + 1)
    return np.bincount(flat, minlength=M * (M + 1)).reshape(M, M + 1)


def hamming_table(bit_labels) -> np.ndarray:
    """(M, M + 1) number of bits in which label j's bit row differs from symbol m's.

    ``bit_labels`` is a codebook's (M, bits) table of 0/1 labels.  Column M
    is the erasure label -1, which differs from every symbol in every bit.
    """
    labels = np.asarray(bit_labels)
    if labels.ndim != 2 or not np.all((labels == 0) | (labels == 1)):
        raise ValueError("bit labels must be an (M, bits) table of 0s and 1s")
    labels = labels.astype(float)
    ones = labels.sum(axis=1)
    # For 0/1 rows a and b, the number of differing bits is |a| + |b| - 2 a.b:
    # one BLAS product, exact in float64 for these small integers.
    differ = labels @ labels.T
    differ *= -2.0
    differ += ones
    differ += ones[:, None]
    hamming = np.empty((len(labels), len(labels) + 1), dtype=np.intp)
    hamming[:, :-1] = differ
    hamming[:, -1] = labels.shape[1]
    return hamming


def error_counts(confusion, hamming) -> tuple[tuple[float, int], tuple[float, int], int]:
    """``(ser, symbol errors), (ber, bit errors), erasures`` of a confusion count.

    ``confusion`` is a :func:`confusion_matrix` and ``hamming`` the
    :func:`hamming_table` of the same codebook; the BER is over symbols * bits.
    """
    confusion = np.asarray(confusion)
    hamming = np.asarray(hamming)
    m = len(confusion)
    if confusion.shape != (m, m + 1) or hamming.shape != confusion.shape:
        raise ValueError(
            f"confusion {confusion.shape} and Hamming table {hamming.shape} "
            f"must both be (M, M + 1)"
        )
    n = int(confusion.sum())
    if n == 0:
        raise ValueError("cannot compute a rate over zero symbols")
    if hamming[0, -1] < 1:
        raise ValueError("cannot compute a bit error rate over zero bits per symbol")
    symbol_errors = n - int(np.trace(confusion))
    bit_errors = int(np.vdot(confusion, hamming))
    bits = n * int(hamming[0, -1])
    erasures = int(confusion[:, -1].sum())
    return (symbol_errors / n, symbol_errors), (bit_errors / bits, bit_errors), erasures
