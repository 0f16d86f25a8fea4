"""Profiles of binary strings.

Four interchangeable backends compute the same profile. The last two, the
paper's reductions, and weighted_max_sums are defined in reference.py,
which is imported when one of them is first read from this module:

* rle_profile        the default: only windows that start or end where the
                     label steps toward the ring's side, O(n rho) for rho runs,
                     or O(n + rho^2) from the pairs of runs of one value
* naive_profile      sliding-window extrema per length, the O(n^2) reference
* blocked_profile    block decomposition with cross-block min/max tables
* recursive_profile  midpoint halving; boundary windows via convolutions

The weighted maximum-sum routines are the max side of the same sweeps,
run over prefix sums of the weights instead of prefix 1-counts. Every sweep
is written once over a tropical ring (minplus.MIN / minplus.MAX).

All window extremes within a row of prefix sums (naive_profile, the
halving base cases) come from _window_extremes: the tropical correlation of
the row with itself, on minplus._conv_tiled like every other convolution.
The other kernels return the same extremes in the narrowest signed dtype
that holds the prefix sums' range. _run_sweep takes one slice of those
narrow prefix sums per candidate start or end. _bound_sweep reads only the
blocks of their Hankel matrix (cells p[t + w] - p[t] of start t and width
w) that can reach their widths' extremes, on prefix sums centred on the
nearest half of the mean label. 0/1 strings reach it only through their
gap rows; the half centre pays on those and on weights of half-integer mean
(see _bound_sweep).
_gap_sweep takes two-valued labels from the gaps between the positions of
one value, a row half as long for i.i.d. bits, swept again by _rle_sweep.
_pair_sweep takes them from the least other cells between each pair of runs
of one value. _rle_sweep, behind rle_profile, rle_weighted_max_sums and the
chains of the tree sweep, picks its kernel per ring by count rules.
Two-valued labels with at least 64 runs of the ring's value take the pair
sweep while those runs make at most 40 n pairs, and the gap sweep past
that; with fewer runs they take the run sweep. Labels of more values take
the run sweep when its candidates number at most n / 12 + 128, else the
bound sweep, whose block pass gives up to the run sweep on rows of n >=
4593 where it keeps over a quarter of the blocks it bounds. The default
thus never runs _window_extremes, the kernel of the naive oracle it is
tested against.
"""

from __future__ import annotations

import numpy as np

from .minplus import (FINITE_BOUND, MAX, MIN, Ring, _conv_tiled, as_bits, as_int64, lazy_names,
                      narrow_dtype)
from .profiles import Profile

__getattr__ = lazy_names(__name__, {".reference": (
    "RECURSION_CUTOFF BlockPartition make_block_partition _edge_tables _cross_table "
    "CrossBlockTables build_cross_tables _blocked_sweep blocked_profile _halving_sweep "
    "recursive_profile weighted_max_sums")})


class BinaryString:
    """A {0,1} string with precomputed prefix 1-counts: prefix_ones[i] is the
    number of 1s among the first i bits, in minplus.narrow_dtype(0, n), so
    int16 up to n = 32767. Each backend takes its own dtype from them."""

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
        self.prefix_ones = np.zeros(arr.size + 1, dtype=narrow_dtype(0, arr.size))
        np.cumsum(arr, out=self.prefix_ones[1:])   # summed in that dtype, no int64 pass

    def __len__(self) -> int:
        return int(self.bits.size)


def _as_string(s) -> BinaryString:
    return s if isinstance(s, BinaryString) else BinaryString(s)


def _window_extremes(rows: np.ndarray, ring: Ring) -> np.ndarray:
    """The extreme sum for ``ring`` over the width-w windows of each row of
    prefix sums p in ``rows`` (2-d), w = 1..L, as one (rows, L) array in the
    narrow_dtype of +-span, for the rows' widest span.

    The (min,+) or (max,+) correlation of p with itself: for base the row's
    extreme on the ring's side, y = base - p and x, y reversed and negated,
    give x[k] + y[j] = p[L - k] - p[j], the window from j to L - k, so
    output L - w holds width w. x lies on Ring.sentinel_in's side of 0, so a
    padded cell neither beats a real window nor overflows."""
    span = int((rows.max(axis=1) - rows.min(axis=1)).max())
    dtype = narrow_dtype(-span, span)
    y = np.empty(rows.shape, dtype=dtype)
    np.subtract(ring.reduce(rows, axis=1)[:, None], rows, out=y)
    out = np.empty((rows.shape[0], rows.shape[1] - 1), dtype=dtype)
    _conv_tiled(np.negative(y[:, ::-1]), y, ring, out)
    return out[:, ::-1]


def _fold_into(out: np.ndarray, ring: Ring, extremes: np.ndarray) -> None:
    head = out[..., :extremes.shape[-1]]
    ring.fold(head, extremes, out=head)


def naive_profile(s: BinaryString) -> Profile:
    # the int64 profile arrays are made only after both sweeps' buffers are freed
    pref = _as_string(s).prefix_ones[None, :]
    mins, maxs = _window_extremes(pref, MIN), _window_extremes(pref, MAX)
    return Profile(mins[0], maxs[0])


def _two_valued(labels: np.ndarray) -> bool:
    """Whether ``labels`` take at most two distinct values."""
    lo, hi = labels.min(), labels.max()
    return np.count_nonzero(labels == lo) + np.count_nonzero(labels == hi) >= labels.size


def _candidates(labels: np.ndarray, ring: Ring, two_valued: bool):
    """(starts, ends) of the windows _run_sweep folds into ``ring`` besides
    the suffix windows, by _run_sweep's general rule, or by its two-valued
    rule when ``two_valued``. Both come from compares of the labels in
    their own dtype."""
    toward, away = (np.greater, np.less) if ring is MAX else (np.less, np.greater)
    starts = np.empty(labels.size, dtype=bool)
    toward(labels[1:], labels[:-1], out=starts[1:])
    if two_valued:
        starts[0] = labels[0] == ring.reduce(labels)
        return np.flatnonzero(starts), np.zeros(0, dtype=np.int64)
    starts[0] = True
    ends = np.flatnonzero(away(labels[1:], labels[:-1]))
    ends += 1
    return np.flatnonzero(starts), ends


# _run_sweep walks its starts and ends this many at a time, so that only one
# chunk of them is ever held as Python ints
_RUN_CHUNK = 256


def _in_chunks(positions: np.ndarray):
    for lo in range(0, positions.size, _RUN_CHUNK):
        yield from positions[lo:lo + _RUN_CHUNK].tolist()


def _run_sweep(pref: np.ndarray, ring: Ring, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The extreme sum for ``ring`` over the width-w windows of the prefix
    sums ``pref`` (1-d) of labels a, w = 1..n, in the narrow dtype of their
    range. It takes the suffix windows (those that end at n) and the windows
    that start at one of ``starts`` or end at one of ``ends`` (from
    _candidates).

    General rule, any labels: for MAX, the starts are 0 and every up-step
    b (a[b] > a[b-1]), the ends every down-step (a[e] < a[e-1]); MIN takes
    the mirror image. Let t < n - w be the rightmost maximiser of the sums
    f(t) = p[t+w] - p[t]. Its right slope a[t+w] - a[t] is negative. Were
    t no start and t+w no end, the left slope a[t+w-1] - a[t-1] would be at
    most the right one, below 0, so f(t-1) > f(t): a contradiction.

    Two-valued rule, labels of at most two values: for MAX, the starts are
    the starts of the high runs, and there are no ends. A window that starts
    on the low value slides right without loss, and one that starts inside
    a high run slides left without loss, until it starts a high run or ends
    at n. On labels of more values this rule misses windows.
    """
    n = pref.size - 1
    p = pref.astype(narrow_dtype(int(pref.min()), int(pref.max())))
    # rev[n-e+w] = p[e-w], so the windows ending at e are contiguous
    rev = p[::-1].copy()
    buf = np.empty(n, dtype=p.dtype)
    best = np.subtract(p[n], rev[1:])   # the suffix windows
    for b in _in_chunks(starts):   # widths 1..n-b from b
        head = best[:n - b]
        ring.fold(head, np.subtract(p[b + 1:], p[b], out=buf[:n - b]), out=head)
    for e in _in_chunks(ends):   # widths 1..e up to e
        head = best[:e]
        ring.fold(head, np.subtract(p[e], rev[n - e + 1:], out=buf[:e]), out=head)
    return best


# _bound_sweep cuts the Hankel matrix of the centred prefix sums into blocks of
# _BOUND_BLOCK starts x _BOUND_BLOCK widths. On a 2-core x86 VM
# (rle_weighted_max_sums, i.i.d. weights in -9..9, median of 3-15 calls), K =
# 16 took 2.4 ms at n = 4096, 11.1 ms at 16384 and 67 ms at 65536; K = 32
# took 8.1 ms (too many blocks kept, so a slower kernel ran), 14.4 ms and
# 62 ms; K = 64 took 32 ms at 16384. Smaller blocks cost more in the
# O((n / K)^2) block pass. Each step of the block pass bounds up to
# _BOUND_CELLS blocks; each step of its reads takes _BOUND_READ kept blocks.
# On i.i.d. bits (rle_profile, median of 15 alternating calls), 256 blocks
# took 20.8 ms at n = 16384 and 117 ms at 65536, 512 16.1 and 92 ms, 1024
# 14.0 and 87 ms; the peak of rle_weighted_max_sums on i.i.d. weights at
# n = 16384 rose from 0.357 to 0.390 and 0.510 MiB.
_BOUND_BLOCK = 16
_BOUND_CELLS = 1 << 15
_BOUND_READ = 512

# _rle_sweep takes the pair sweep on two-valued labels of n cells with rho_v
# runs of the ring's value when _PAIR_FLOOR <= rho_v and the rho_v (rho_v +
# 1) / 2 pairs number at most _PAIR_SHARE n: below the floor its O(n) passes
# cost more than the run sweep's rho_v slices (n = 1024..2^18), and past the
# share the gap sweep wins (kernel tables below). It walks the pairs about
# _PAIR_BLOCK at a time. Labels of more values take the run sweep when its
# candidates, starts plus ends, number at most n / _RUN_SHARE + _RUN_FLOOR.
# The block pass gives up on a row of at least _GIVE_UP_GROUPS
# groups of K starts once, from a sixteenth of the pass on, it has kept over
# 1 / _GIVE_UP_SHARE of the blocks it bounded: unprunable labels keep 49-100%
# from n = 2048 on, every other row measured (bits of 11 densities, bits and
# weights in runs of mean 2-64, the table's) at most 14%. The floor is where
# giving up begins to beat the reads on unprunable rows (kernel table below).
_PAIR_FLOOR = 64
_PAIR_SHARE = 40
_PAIR_BLOCK = 1 << 15
_RUN_SHARE = 12
_RUN_FLOOR = 128
_GIVE_UP_SHARE = 4
_GIVE_UP_GROUPS = 288


def _centre(pref: np.ndarray):
    """(d, c) for the bound sweep: labels a become d a - c, for m the
    rounded 2 mean label, d = 1 and c = m / 2 for an even m, d = 2 and c = m
    for an odd one."""
    n = pref.size - 1
    m = (4 * (int(pref[-1]) - int(pref[0])) + n) // (2 * n)
    d = 1 + m % 2
    return d, m * d // 2


def _bound_sweep(pref: np.ndarray, labels: np.ndarray, ring: Ring):
    """_window_extremes for ``ring`` over the single row ``pref``, the
    prefix sums of ``labels``, in the narrow dtype of their range, from only
    the windows that can reach their width's extreme; or None if the block
    pass gives up, on a row of at least _GIVE_UP_GROUPS groups where it
    keeps more than 1 / _GIVE_UP_SHARE of its blocks (see _kept_blocks).

    The sweep runs on q, the prefix sums of d labels - c, and returns
    (c w + the extreme of q) / d: a shift moves every window of width w by
    the same c w, and keeps q at the scale of the labels' noise. For m the
    rounded 2 mean label, an even m centres on the integer c = m / 2 (d =
    1), an odd m on the half m / 2 at twice the scale (d = 2, c = m), so
    that q does not drift by w / 2. No 0/1 row reaches this sweep itself,
    only its gap rows (_gap_sweep), whose means often give an odd m: at
    density 0.4 the gaps between 1s have mean 2.5 and those between 0s 5/3.
    Against an integer centre (d = 1, c = the rounded mean), rle_profile
    took 5.3 against 7.2 ms on bits of density 0.3, 5.0 against 6.0 at 0.4
    and 5.0 against 6.8 at 0.6 (n = 16384), 28 against 48 ms at 0.3 and 30
    against 52 at 0.7 (n = 65536), and rle_weighted_max_sums 42 against 53
    ms on weights in -9..10 (n = 65536; min of 7 calls, 2-core x86 VM).
    Bits of density 1/2 and weights of mean 0 take d = 1. MIN runs as MAX
    on -q. Block (g, t) holds the windows of starts gK..gK+K-1 and
    widths tK+1..tK+K. It is read only when its bound, max q over its ends -
    min q over its starts, reaches L_t: the largest min q[gK+tK+1 ..
    gK+tK+K] - q[gK] over the groups g that have every width of tile t, a
    value the window from gK reaches at each width of the tile. So every
    block skipped falls short of a real window at each of its widths.
    """
    n, k = labels.size, _BOUND_BLOCK
    d, c = _centre(pref)
    q = np.zeros(n + 1, dtype=np.int64)
    np.multiply(labels, d, out=q[1:], dtype=np.int64)
    q[1:] -= c
    np.cumsum(q, out=q)
    if ring is MIN:
        np.negative(q, out=q)
    lo, hi = int(q.min()), int(q.max())
    span = hi - lo
    below, above = lo - span - 1, hi + span + 1   # below every end, above every start
    dtype = narrow_dtype(below, above)
    groups = -(-n // k)   # groups of K starts, and tiles of K widths
    ends = np.full((groups + 1) * k + 1, below, dtype=dtype)
    ends[:n + 1] = q
    starts = np.full(groups * k, above, dtype=dtype)
    starts[:n] = q[:n]
    del q
    kept = _kept_blocks(ends, starts)
    if kept is None:
        return None
    best = _read_blocks(ends, starts, kept).ravel()[:n]
    del ends, starts, kept   # before the int64 sums
    out = np.arange(1, n + 1, dtype=np.int64)
    out *= c
    (np.subtract if ring is MIN else np.add)(out, best, out=out)
    out >>= d - 1   # exact: d divides every sum
    return out.astype(narrow_dtype(int(pref.min()), int(pref.max())))


def _kept_blocks(ends: np.ndarray, starts: np.ndarray):
    """The kept blocks as t G + g, grouped by t, or None as soon as the pass
    gives up: on a row of at least _GIVE_UP_GROUPS groups, once from a
    sixteenth of the pass on it has kept over 1 / _GIVE_UP_SHARE of the
    blocks it bounded, the share it would keep of all at that rate."""
    k = _BOUND_BLOCK
    groups = starts.size // k
    chunks = ends[1:groups * k + 1].reshape(groups, k)   # chunk j: the ends jK+1 .. jK+K
    # from chunk G on, ends lie past n and bound nothing
    floor = np.full(2 * groups, ends[-1], dtype=ends.dtype)
    top = floor.copy()
    chunks.min(axis=1, out=floor[:groups])   # a chunk reaching past n holds padding
    chunks.max(axis=1, out=top[:groups])
    top[:groups - 1] = np.maximum(top[:groups - 1], top[1:groups])   # block row j: ends jK+1 .. jK+2K-1
    least = starts.reshape(groups, k).min(axis=1)
    first = starts[::k]
    # [t, g] = top[g + t] and floor[g + t]
    top_h = np.lib.stride_tricks.sliding_window_view(top, groups)
    floor_h = np.lib.stride_tricks.sliding_window_view(floor, groups)
    key = narrow_dtype(0, groups * groups)
    # tile t has windows from the groups g <= G - 1 - t alone; tile G - 1,
    # from group 0, which need not reach all its widths: it is always read
    last = np.array([(groups - 1) * groups], dtype=key)
    total = groups * (groups + 1) // 2 - 1   # G - t blocks in each row t < G - 1
    kept, done, n_kept = [], 0, 1   # n_kept counts tile G - 1's block
    t0 = 0
    while t0 < groups - 1:
        width = groups - t0
        t1 = min(groups - 1, t0 + max(1, _BOUND_CELLS // width))
        lower = np.max(floor_h[t0:t1, :width] - first[:width], axis=1)
        flat = np.flatnonzero(top_h[t0:t1, :width] - least[:width] >= lower[:, None])
        done += (t1 - t0) * width
        n_kept += flat.size
        if groups >= _GIVE_UP_GROUPS and 16 * done >= total and _GIVE_UP_SHARE * n_kept > done:
            return None
        flat += flat // width * t0 + t0 * groups   # row r, column g -> (t0 + r) G + g
        kept.append(flat.astype(key))
        t0 = t1
    kept.append(last)
    return np.concatenate(kept)


def _read_blocks(ends: np.ndarray, starts: np.ndarray, kept) -> np.ndarray:
    """The maxima [t, w - tK - 1] over the windows of the ``kept`` blocks.

    Block (g, t) holds the cells ends[(g+t)K + 1 + i + j] - starts[gK + i] of
    start i and width j. Each step lays _BOUND_READ blocks out in columns,
    the 2K ends of a block in rows i + j and its K starts in rows i, so that
    every operation runs along the blocks."""
    k, groups = _BOUND_BLOCK, starts.size // _BOUND_BLOCK
    rows = np.lib.stride_tricks.sliding_window_view(ends[1:], 2 * k)[::k]   # row j: ends jK+1 .. jK+2K
    start_rows = starts.reshape(groups, k)
    best = np.full((groups, k), ends[-1], dtype=ends.dtype)
    step = min(_BOUND_READ, kept.size)
    block_ends = np.empty((2 * k, step), dtype=ends.dtype)
    block_starts = np.empty((k, step), dtype=ends.dtype)
    acc = np.empty((k, step), dtype=ends.dtype)
    cells = np.empty((k, step), dtype=ends.dtype)
    for b0 in range(0, kept.size, step):
        t, g = np.divmod(kept[b0:b0 + step], groups)
        size = t.size
        e, s, a, x = block_ends[:, :size], block_starts[:, :size], acc[:, :size], cells[:, :size]
        e[...] = rows[g + t].T
        s[...] = start_rows[g].T
        np.subtract(e[:k], s[0], out=a)
        for i in range(1, k):
            np.subtract(e[i:i + k], s[i], out=x)
            np.maximum(a, x, out=a)
        heads = np.ones(size, dtype=bool)
        np.not_equal(t[1:], t[:-1], out=heads[1:])
        heads = np.flatnonzero(heads)
        t = t[heads]
        best[t] = np.maximum(best[t], np.maximum.reduceat(a, heads, axis=1).T)
    return best


# The kernels _rle_sweep picks between, sweep only, beside naive's time and
# rle's own time and pick (2-core x86 VM, ms, one process, best of 11
# interleaved rounds at n = 16384 and of 3 at 65536; naive, the correlation
# of _window_extremes, best of 3 calls and of 1). Two-valued rows, 0/1 on
# both rings: the pairs of runs of the ring's value over n, the run sweep
# under the two-valued rule and under the general rule, the gap sweep and the
# pair sweep:
#
#   n = 16384                 pairs/n     run  general     gap    pair   naive     rle
#   i.i.d. 0/1                  526.7    19.7     38.7     3.9    42.9    49.2     3.8 gap
#   0/1 density 1/4             291.5    13.6     26.2     4.4    23.3    46.3     4.2 gap
#   0/1 density 0.15            134.9     8.8     19.0     4.5    11.4    50.0     4.5 gap
#   0/1 density 1/20             18.7     3.5      6.8     4.0     2.0    50.0     2.2 pair
#   0/1 period 8               1152.2    28.7     58.0    28.1    93.6    51.1    31.1 gap
#   0/1 runs of 8                31.7     4.6      9.4     4.2     3.2    52.4     3.3 pair
#   0/1 runs of 32                2.0     1.3      2.4     2.4     0.7    52.8     0.7 pair
#   0/1 runs of 64                0.6     0.7      1.3     1.3     0.5    50.3     0.5 pair
#   0/1 runs of 128               0.1     0.4      0.7     0.9     0.5    46.5     0.4 run
#   Fibonacci word             1195.3    28.6     55.5     0.9    94.7    51.3     0.9 gap
#   i.i.d. {-5, 6}              491.3     9.5     18.4     2.1    20.5    30.9     2.1 gap
#   {-5, 6} in runs             129.4     5.0      9.8     2.3     6.0    23.4     2.3 gap
#
#   n = 65536                 pairs/n     run  general     gap    pair   naive     rle
#   i.i.d. 0/1                 2032.7   274.8    543.6    19.3   685.1    1208    19.1 gap
#   0/1 density 1/4            1148.2   121.1    239.1    29.6   390.0   767.1    29.8 gap
#   0/1 density 0.15            542.4    83.5    160.0    23.2   194.8   906.9    23.3 gap
#   0/1 density 1/20             70.3    31.3     62.9    26.3    33.8   968.8    26.9 gap
#   0/1 period 8               4608.2   525.2     1024   360.1    1771    1244   353.6 gap
#   0/1 runs of 8               125.0    49.1     97.4    21.0    56.3    1362    22.7 gap
#   0/1 runs of 32                8.1    11.3     22.4    23.2     5.3    1160     5.5 pair
#   0/1 runs of 64                1.9     5.2     10.3    11.8     2.6    1276     2.7 pair
#   0/1 runs of 128               0.5     2.9      5.7     6.6     1.9    1289     2.0 pair
#   Fibonacci word             4780.8   277.8    542.4     2.5    1673    1218     2.3 gap
#   i.i.d. {-5, 6}             2075.2   163.1    318.8     9.6   399.6   665.0     9.6 gap
#   {-5, 6} in runs             508.4    40.6     80.8    10.0    90.2   586.7    10.1 gap
#
# Bits in runs of mean m take runs of 1 .. 2m - 1 cells, alternating 0 and 1;
# {-5, 6} in runs alternates its values in runs of 1-7. Runs of 128 at 16384
# have 63 runs of each value, one short of the pair sweep's floor. The
# two-valued rule of the run sweep halves its general rule's time on the
# rows it takes (runs of 128 at 16384). Density 1/20 and runs of 8 at 65536
# are re-taken (best of 5 rounds, naive of 1) since rows past the pair
# sweep's share take the gap sweep: they took the run sweep, 30.1 and 72.4
# ms, while the run sweep's count rule picked for two-valued rows too.
# Period 8 repeats 11010010. The gap rows of i.i.d. bits and of period 8 take
# the bound sweep; those of the Fibonacci word are two-valued, and nest
# several gap sweeps deep.
#
# Labels of more values, taken before the pair sweep, which none of them
# reaches (bound: a block pass that never gives up):
#
#                                 n = 16384                  n = 65536
#   input (rho/n)              run bound naive   rle    run  bound  naive   rle
#   weights in runs (0.21)     8.4   3.2  47.4   3.3   75.3   20.0  739.0  19.9 reads
#   weights, runs of 10 (0.09) 3.5   3.0  47.5   3.1   34.8   19.0  742.5  19.2 reads
#   i.i.d. weights (0.95)     37.1   3.9  48.6   4.0  349.2   22.5  754.3  22.5 reads
#   1, -1, 0 repeated (1.00)  38.9  89.1  45.2  38.5  345.0 1442.4  658.6 364.1 gives up
#   zigzag 9..-9..9 (1.00)    36.8  88.2  48.2  37.2  423.4 1771.1  834.6 446.1 gives up
#
# Unprunable labels around the floor of 288 groups (n >= 4593), best of 21
# interleaved rounds:
#
#   labels        n    run  reads  gives up  naive   rle
#   1, -1, 0    4096    7.5    7.6       7.9    4.1   7.4 reads
#   1, -1, 0    5120    9.5   11.2       9.9    6.0  10.1 gives up
#   1, -1, 0    6000   11.4   14.9      11.6    7.9  12.0 gives up
#   1, -1, 0    8192   16.8   28.5      18.0   12.7  17.6 gives up
#   zigzag      4096    7.7    7.3       8.2    4.2   7.5 reads
#   zigzag      5120    9.6   10.4      10.0    6.3  10.0 gives up
#   zigzag      6000   11.3   14.6      11.7    8.1  11.7 gives up
#   zigzag      8192   16.5   26.7      17.6   13.8  17.6 gives up
#
# Weights in runs take runs of 1-8, or of 1-19 (mean 10), each of one weight
# in -9..9.


def _rle_sweep(pref: np.ndarray, labels: np.ndarray, ring: Ring) -> np.ndarray:
    """_window_extremes for ``ring`` over the single row ``pref``, the
    prefix sums of ``labels``, in the narrow dtype of their range. Two-valued
    labels with at least _PAIR_FLOOR runs of the ring's value take the pair
    sweep up to about sqrt(2 _PAIR_SHARE n) runs and the gap sweep past it,
    whose gap row picks the same way; fewer runs take the run sweep. Labels
    of more values take the run sweep on at most n / _RUN_SHARE + _RUN_FLOOR
    candidates, else the bound sweep, or the run sweep if it gives up."""
    two_valued = _two_valued(labels)
    starts, ends = _candidates(labels, ring, two_valued)
    if two_valued and _PAIR_FLOOR <= starts.size:   # the two-valued rule's starts open the runs of v
        if starts.size * (starts.size + 1) <= 2 * _PAIR_SHARE * labels.size:
            return _pair_sweep(pref, labels, ring)
        del starts, ends   # up to n int64 positions, freed before the other sweeps' buffers
        return _gap_sweep(pref, labels, ring)
    if two_valued or _RUN_SHARE * (starts.size + ends.size - _RUN_FLOOR) <= labels.size:
        return _run_sweep(pref, ring, starts, ends)
    del starts, ends
    best = _bound_sweep(pref, labels, ring)
    return _run_sweep(pref, ring, *_candidates(labels, ring, False)) if best is None else best


def _pair_sweep(pref: np.ndarray, labels: np.ndarray, ring: Ring) -> np.ndarray:
    """_window_extremes for ``ring`` over the single row ``pref``, the
    prefix sums of two-valued ``labels``, in the narrow dtype of their
    range, from the pairs of runs of one value v: hi for MAX, lo for MIN
    (Badkobeh, Fici, Kroon and Lipták, IPL 2013).

    For runs a <= b of v, [s_a, e_b) spans e_b - s_a cells, Z_ab of them of
    the other value. A width-w window whose first and last v-cells lie in
    runs a and b holds all Z_ab, so at most min(span, w) - Z_ab cells of v,
    and the span, cut or padded to w, holds at least that many. So the most
    v-cells of width w is F(w) = the running max over u <= w of u - C(u),
    for C(u) the least Z of the spans >= u (F never falls as w grows): one
    scatter-min over the rho_v (rho_v + 1) / 2 pairs, walked in blocks of
    run rows, and two running extremes, O(n + rho_v^2).
    """
    n = labels.size
    value, other = (labels.max(), labels.min()) if ring is MAX else (labels.min(), labels.max())
    dtype = narrow_dtype(0, n + 1)
    at = labels == value
    edges = np.empty(n + 1, dtype=bool)
    edges[0], edges[n] = at[0], at[-1]
    np.not_equal(at[1:], at[:-1], out=edges[1:n])
    bounds = np.flatnonzero(edges).astype(dtype)
    del at, edges
    s, e = bounds[::2], bounds[1::2]
    g = s.copy()   # g[a]: the other cells before run a, so Z_ab = g[b] - g[a]
    g[1:] -= e[:-1]
    np.cumsum(g, out=g)
    # the least Z of each span, n + 1 for none; b < a gives a span < 0,
    # which lands past n, where no span does
    least = np.full(2 * n + 2, n + 1, dtype=dtype)
    # at most a quarter of the rows a block, so that its cells of b < a,
    # half a square, stay an eighth of the pairs
    rows = max(1, min(s.size // 4, _PAIR_BLOCK // s.size))
    for a in range(0, s.size, rows):
        np.minimum.at(least, np.subtract(e[a:], s[a:a + rows, None]).ravel(),
                      np.subtract(g[a:], g[a:a + rows, None]).ravel())
    f = np.arange(n, 0, -1, dtype=dtype)
    f -= np.minimum.accumulate(least[n:0:-1])   # w - C(w), w = n..1
    f = np.maximum.accumulate(f[::-1])
    # other w + (v - other) F(w), in a dtype that holds both terms
    other, step = int(other), int(value) - int(other)
    bound = n * (abs(other) + abs(step))
    out = f.astype(narrow_dtype(-bound, bound))
    out *= step
    if other:
        out += np.arange(1, n + 1, dtype=out.dtype) * other
    return out.astype(narrow_dtype(int(pref.min()), int(pref.max())), copy=False)


def _gap_sweep(pref: np.ndarray, labels: np.ndarray, ring: Ring) -> np.ndarray:
    """_window_extremes for ``ring`` over the single row ``pref``, the
    prefix sums of two-valued ``labels`` {lo, hi}, in the narrow dtype of
    their range, from the gaps between the positions of one value: hi for
    MAX, lo for MIN.

    The least width that holds t of that value is span(1) = 1, and span(t) =
    1 + the least sum of t - 1 consecutive gaps, the MIN of _rle_sweep over
    the gap row. The extreme of width w is the sum of w steps: that value at
    the widths span(t), the other value elsewhere. Each partial sum is a
    real extreme, so it fits the narrow dtype of ``pref``. The gap row is
    shorter than the labels; it recurses here only if it is two-valued.
    """
    lo, hi = int(labels.min()), int(labels.max())
    value, other = (hi, lo) if ring is MAX else (lo, hi)
    steps = np.full(labels.size, other, dtype=narrow_dtype(int(pref.min()), int(pref.max())))
    at = np.flatnonzero(labels == value).astype(narrow_dtype(0, labels.size))
    if lo < hi and at.size > 1:
        at -= at[0]
        steps[_rle_sweep(at, np.diff(at), MIN)] = value   # width span(t), t >= 2
    steps[0] = value
    return np.cumsum(steps, dtype=steps.dtype, out=steps)


def rle_profile(s: BinaryString) -> Profile:
    """naive_profile's result, in O(n + rho^2) or O(n rho) for a string of
    rho runs when that costs less, else from the gaps between its 0s and
    between its 1s."""
    s = _as_string(s)
    return Profile(_rle_sweep(s.prefix_ones, s.bits, MIN), _rle_sweep(s.prefix_ones, s.bits, MAX))


def _weight_prefix(weights) -> np.ndarray:
    weights = as_int64(weights, "weights", 1)
    if weights.size < 1:
        raise ValueError("need a non-empty weight sequence")
    # Python ints: np.abs wraps -2**63 to itself
    if max(-int(weights.min()), int(weights.max())) * weights.size > FINITE_BOUND:
        raise ValueError("weight magnitudes too large for exact arithmetic")
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(weights, dtype=np.int64)])


def naive_weighted_max_sums(weights) -> np.ndarray:
    return _window_extremes(_weight_prefix(weights)[None, :], MAX)[0].astype(np.int64)


def rle_weighted_max_sums(weights) -> np.ndarray:
    """naive_weighted_max_sums's result, in O(n rho) for rho runs of equal
    weight when that costs less, else from the gaps between the positions of
    the larger of two weights, or from the windows that can reach their
    width's maximum."""
    weights = as_int64(weights, "weights")
    return _rle_sweep(_weight_prefix(weights), weights, MAX).astype(np.int64)
