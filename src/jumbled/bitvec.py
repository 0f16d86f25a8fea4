"""Bit sequence with constant-time prefix popcount (rank) queries.

The directory stores one cumulative count per 64-bit word, so a query is
one directory read plus one masked word popcount. Structures are immutable
after construction and safe to query concurrently.
"""

from __future__ import annotations

import numpy as np

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def as_bits(bits) -> np.ndarray:
    """``bits`` as a contiguous uint8 array. Values are checked before the
    narrowing cast, so 256 or -1 is refused rather than wrapped."""
    arr = np.asarray(bits)
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


class RankBitvector:
    """Immutable {0,1} sequence of length ``m`` answering rank1 in O(1)."""

    __slots__ = ("m", "_words", "_cum", "_packed")

    def __init__(self, bits):
        arr = as_bits(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be a one-dimensional sequence")
        self.m = int(arr.size)
        pad = (-self.m) % 64
        if pad:
            arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
        packed = np.packbits(arr, bitorder="little")
        self._packed = packed
        # little-endian view: vector bit j lives at word j//64, bit j%64
        self._words = packed.view(np.uint64)
        per_word = _POP8[packed].reshape(-1, 8).sum(axis=1) if packed.size else np.zeros(0, dtype=np.int64)
        self._cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(per_word)])

    def __len__(self) -> int:
        return self.m

    def rank1(self, i: int) -> int:
        """Number of 1s among the first ``i`` bits, 0 <= i <= m."""
        if i < 0 or i > self.m:
            raise IndexError(f"rank index {i} out of range [0, {self.m}]")
        q, r = divmod(i, 64)
        total = int(self._cum[q])
        if r:
            total += (int(self._words[q]) & ((1 << r) - 1)).bit_count()
        return total

    def to_array(self) -> np.ndarray:
        """The stored bits as a uint8 array (fresh copy)."""
        return np.unpackbits(self._packed, count=self.m, bitorder="little")
