"""Symbol and bit error rates.

A channel's decisions are scored from its (sent symbol, received label)
pairs, each read once: :func:`error_counts` counts the pairs whose two
values differ, the erased ones, and the bits in which the two bit-label
rows differ, so its work and memory grow with the pairs, not with the
alphabet.  A pair may carry a weight, the number of times it occurred, so a
deterministic channel's M decisions count once per time each state was
sent.  Counts add, so the counts of a run are the sums of the counts of its
parts.  :func:`stacked_error_counts` counts several channels' labels for the
same sent symbols in one pass, with the same checks, and
:func:`error_counts` is its stack of one.

An erased reception (-1) is an error in its symbol and in every bit; -1
is a receive-only label, never a transmitted symbol.
"""

from __future__ import annotations

import numpy as np

# Set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def error_counts(
    sent, received, bit_labels, weights=None
) -> tuple[tuple[float, int], tuple[float, int], int]:
    """``(ser, symbol errors), (ber, bit errors), erasures`` of the pairs
    (``sent[i]``, ``received[i]``), each counted ``weights[i]`` times, or once
    when no weights are given.

    ``bit_labels`` is a codebook's (M, bits) integer table of 0/1 labels.  A
    pair is a symbol error when its two values differ and an erasure when it
    received -1; its bit errors are the positions where the two label rows
    differ, or every bit for an erasure.  The BER is over symbols * bits.
    Symbols, labels and weights must be integer arrays (an empty sequence may
    have any dtype); other values are rejected, not truncated.
    """
    return stacked_error_counts(sent, np.asarray(received)[np.newaxis], bit_labels, weights)[0]


def stacked_error_counts(
    sent, received, bit_labels, weights=None
) -> list[tuple[tuple[float, int], tuple[float, int], int]]:
    """:func:`error_counts` of each row of the (c, n) integer array
    ``received`` against the same n ``sent`` symbols and ``weights``, in
    one pass, checked once: one result per row, in row order."""
    tx, rx = np.asarray(sent), np.asarray(received)
    if any(a.size and a.dtype.kind not in "iu" for a in (tx, rx)):
        raise ValueError(f"symbols and labels must be integers, got {tx.dtype} and {rx.dtype}")
    if tx.ndim != 1 or rx.ndim != 2 or rx.shape[1] != tx.size:
        raise ValueError(
            f"symbol and label sequences must be one-dimensional and of equal "
            f"length, got shapes {tx.shape} and {rx.shape[1:]}"
        )
    labels = np.asarray(bit_labels)
    # An integer x is 0 or 1 exactly when x >> 1 is 0.
    if labels.ndim != 2 or labels.dtype.kind not in "iu" or (labels >> 1).any():
        raise ValueError("bit labels must be an (M, bits) table of 0s and 1s")
    m, bits = labels.shape
    if tx.size and (tx.min() < 0 or tx.max() >= m):
        raise ValueError(f"transmitted symbols must be in [0, {m - 1}]; -1 is receive-only")
    if rx.size and (rx.min() < -1 or rx.max() >= m):
        raise ValueError(f"received labels must be in [-1, {m - 1}]")
    w = np.ones(tx.size, dtype=np.intp) if weights is None else np.asarray(weights)
    if w.shape != tx.shape or (w.size and (w.dtype.kind not in "iu" or w.min() < 0)):
        raise ValueError(
            f"weights must be one nonnegative integer per pair, got {w.dtype} of shape {w.shape}"
        )
    w = w.astype(np.intp, copy=False)
    n = int(w.sum())
    if n == 0:
        raise ValueError("cannot compute a rate over zero symbols")
    if bits < 1:
        raise ValueError("cannot compute a bit error rate over zero bits per symbol")
    erased = rx < 0
    # Each label row as ceil(bits / 8) bytes; an erasure's row (index -1 reads
    # the last symbol's) is overwritten with every bit.
    packed = np.packbits(labels, axis=1)
    xor = packed.take(tx, axis=0) ^ packed.take(rx, axis=0)
    flips = _POPCOUNT.take(xor).sum(axis=-1, dtype=np.intp)
    flips[erased] = bits
    symbol_errors = np.dot(tx != rx, w).tolist()
    bit_errors = np.dot(flips, w).tolist()
    erasures = np.dot(erased, w).tolist()
    return [
        ((s / n, s), (b / (n * bits), b), e)
        for s, b, e in zip(symbol_errors, bit_errors, erasures)
    ]
