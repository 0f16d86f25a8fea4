"""Profiles of binary strings.

Three interchangeable backends compute the same profile:

* naive_profile      sliding-window extrema per length, the O(n^2) reference
* blocked_profile    block decomposition with cross-block min/max tables
* recursive_profile  midpoint halving; boundary windows via convolutions

The weighted maximum-sum routines are the max side of the same sweeps,
run over prefix sums of the weights instead of prefix 1-counts. Every sweep
is written once over a tropical ring (minplus.MIN / minplus.MAX).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitvec import as_bits
from .minplus import FINITE_BOUND, MAX, MIN, Ring
from .profiles import Profile

RECURSION_CUTOFF = 64


class BinaryString:
    """A {0,1} string with precomputed prefix 1-counts."""

    __slots__ = ("bits", "prefix_ones")

    def __init__(self, bits):
        if isinstance(bits, str):
            if not bits or bits.strip("01"):
                raise ValueError("string form must be non-empty and contain only '0'/'1'")
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            arr = as_bits(bits)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("need a non-empty one-dimensional bit sequence")
        self.bits = arr
        self.prefix_ones = np.concatenate([np.zeros(1, dtype=np.int64),
                                           np.cumsum(arr, dtype=np.int64)])

    def __len__(self) -> int:
        return int(self.bits.size)

    def ones(self, lo: int, hi: int) -> int:
        """1s in positions [lo, hi)."""
        return int(self.prefix_ones[hi] - self.prefix_ones[lo])


def _as_string(s) -> BinaryString:
    return s if isinstance(s, BinaryString) else BinaryString(s)


def _window_sweep(rows: np.ndarray, ring: Ring, out: np.ndarray) -> np.ndarray:
    """Fold into out[w-1] the ring's extreme sum over every width-w window of
    every row of prefix sums in ``rows`` (2-d, one segment per row)."""
    for w in range(1, rows.shape[1]):
        best = ring.reduce(rows[:, w:] - rows[:, :-w])
        out[w - 1] = ring.fold(out[w - 1], best)
    return out


def _blank(n: int, ring: Ring) -> np.ndarray:
    return np.full(n, ring.sentinel, dtype=np.int64)


def naive_profile(s: BinaryString) -> Profile:
    rows = _as_string(s).prefix_ones[None, :]
    n = rows.shape[1] - 1
    return Profile(_window_sweep(rows, MIN, _blank(n, MIN)),
                   _window_sweep(rows, MAX, _blank(n, MAX)))


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive blocks T_0..T_{m-1} of length b (the last may be short)."""

    string: BinaryString
    b: int
    bounds: np.ndarray = field(init=False)  # block k spans [bounds[k], bounds[k+1])

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("block length must be >= 1")
        n = len(self.string)
        m = -(-n // self.b)
        object.__setattr__(self, "bounds",
                           np.minimum(np.arange(m + 1, dtype=np.int64) * self.b, n))

    @property
    def m(self) -> int:
        return int(self.bounds.size - 1)

    def block_len(self, k: int) -> int:
        return int(self.bounds[k + 1] - self.bounds[k])

    def interior_ones(self, i: int, j: int) -> int:
        """1s in the full blocks strictly between block i and block j (i < j)."""
        return self.string.ones(int(self.bounds[i + 1]), int(self.bounds[j]))


def make_block_partition(s, b: int) -> BlockPartition:
    return BlockPartition(_as_string(s), b)


def _cross_table(p: BlockPartition, length: int, ring: Ring) -> np.ndarray:
    """C_l for one ring: spanning-substring 1-counts for suffix+prefix = length.

    A[i,k] counts 1s in a suffix of block i, B[k,j] in a prefix of block j;
    row/column k fixes the split so that suffix+prefix = length. Splits
    exceeding a donor block's true length are sentinels, as is every entry
    with i >= j.
    """
    pref = p.string.prefix_ones
    b = p.b
    lens = p.bounds[1:] - p.bounds[:-1]
    if length <= b:
        k = np.arange(length + 1, dtype=np.int64)
        suffix_len = k[None, :]              # m x (length+1)
        prefix_len = (length - k)[:, None]   # (length+1) x m
    else:
        k = np.arange(2 * b - length + 1, dtype=np.int64)
        suffix_len = (k + length - b)[None, :]
        prefix_len = (b - k)[:, None]
    ends = p.bounds[1:][:, None]
    starts = p.bounds[:-1][None, :]
    suf_ok = suffix_len <= lens[:, None]
    pre_ok = prefix_len <= lens[None, :]
    suf = pref[ends] - pref[ends - np.where(suf_ok, suffix_len, 0)]
    pre = pref[starts + np.where(pre_ok, prefix_len, 0)] - pref[starts]
    i_idx = np.arange(p.m)
    # interior[i, j] = 1s in the full blocks strictly between i and j
    interior = pref[p.bounds[i_idx]][None, :] - pref[p.bounds[i_idx + 1]][:, None]
    spanning = i_idx[:, None] < i_idx[None, :]
    core = ring.product(np.where(suf_ok, suf, ring.sentinel),
                        np.where(pre_ok, pre, ring.sentinel))
    return ring.snap(core + np.where(spanning, interior, ring.sentinel))


@dataclass(frozen=True)
class CrossBlockTables:
    """C_l[i,j]: extreme 1-count of a suffix of block i, the interior blocks,
    and a prefix of block j, with suffix+prefix length l; finite only i < j."""

    partition: BlockPartition
    min_tables: dict
    max_tables: dict

    def min_table(self, length: int) -> np.ndarray:
        return self.min_tables[length]

    def max_table(self, length: int) -> np.ndarray:
        return self.max_tables[length]


def build_cross_tables(p: BlockPartition) -> CrossBlockTables:
    def tables(ring):
        return {length: _cross_table(p, length, ring) for length in range(1, 2 * p.b + 1)}

    return CrossBlockTables(p, tables(MIN), tables(MAX))


def _block_rows(p: BlockPartition) -> list:
    """Prefix sums of each block as rows of equal length: the full blocks in
    one 2-d array, the short last block (if any) in another."""
    pref = p.string.prefix_ones
    n, b = len(p.string), p.b
    full = n // b
    rows = [pref[np.arange(full)[:, None] * b + np.arange(b + 1)]]
    if n % b:
        rows.append(pref[None, full * b:])
    return rows


def _diagonal_order(m: int):
    """Flat indices of the strictly upper diagonals of an m x m table,
    diagonal 1 first, and the position where each diagonal starts."""
    order = np.concatenate([np.arange(m - d) * (m + 1) + d for d in range(1, m)])
    starts = np.concatenate([[0], np.cumsum(np.arange(m - 1, 1, -1))])
    return order, starts


def _blocked_sweep(p: BlockPartition, ring: Ring) -> np.ndarray:
    n, b = len(p.string), p.b
    out = _blank(n, ring)
    for rows in _block_rows(p):
        _window_sweep(rows, ring, out)
    order, starts = _diagonal_order(p.m)
    gaps = np.arange(p.m - 1) * b   # diagonal d holds windows with d-1 interior blocks
    for length in range(1, min(2 * b, n) + 1):
        best = ring.fold.reduceat(_cross_table(p, length, ring).ravel()[order], starts)
        sizes = length + gaps
        keep = sizes <= n
        idx = sizes[keep] - 1
        out[idx] = ring.fold(out[idx], best[keep])
    return out


def blocked_profile(s: BinaryString, b=None) -> Profile:
    s = _as_string(s)
    n = len(s)
    if b is None:
        b = math.isqrt(n - 1) + 1 if n > 1 else 1
    p = make_block_partition(s, b)
    if p.m == 1:
        return naive_profile(s)
    return Profile(_blocked_sweep(p, MIN), _blocked_sweep(p, MAX))


def _halving_sweep(pref: np.ndarray, ring: Ring, cutoff: int) -> np.ndarray:
    """Extreme window sums for every width: split at the midpoint, fold the
    windows that cross it with one ring convolution, recurse on the halves."""
    n = pref.size - 1
    out = _blank(n, ring)
    # explicit stack; deep inputs must not hit the interpreter limit
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= cutoff:
            _window_sweep(pref[None, lo:hi + 1], ring, out)
            continue
        mid = (lo + hi) // 2
        stack.append((lo, mid))
        stack.append((mid, hi))
        # windows crossing mid: a characters to the left, c to the right
        u = pref[mid] - pref[mid - np.arange(mid - lo + 1)]
        v = pref[mid + np.arange(hi - mid + 1)] - pref[mid]
        conv = ring.conv(u, v)
        span = conv.size - 1
        ring.fold(out[:span], conv[1:], out=out[:span])
    return out


def recursive_profile(s: BinaryString, cutoff: int = RECURSION_CUTOFF) -> Profile:
    pref = _as_string(s).prefix_ones
    return Profile(_halving_sweep(pref, MIN, cutoff), _halving_sweep(pref, MAX, cutoff))


def _weight_prefix(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.int64)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("need a non-empty weight sequence")
    # Python ints: np.abs wraps -2**63 to itself
    if max(-int(weights.min()), int(weights.max())) * weights.size > FINITE_BOUND:
        raise ValueError("weight magnitudes too large for exact arithmetic")
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(weights, dtype=np.int64)])


def naive_weighted_max_sums(weights) -> np.ndarray:
    pref = _weight_prefix(weights)
    return _window_sweep(pref[None, :], MAX, _blank(pref.size - 1, MAX))


def weighted_max_sums(weights, cutoff: int = RECURSION_CUTOFF) -> np.ndarray:
    """Maximum total weight over length-i windows, i = 1..n."""
    return _halving_sweep(_weight_prefix(weights), MAX, cutoff)
