"""The window correlation at the edges of its blocks and of its dtypes.

_window_extremes correlates each row of prefix sums with itself on
minplus._conv_tiled, which takes _CONV_SHIFTS entries of a row per block and
fills up to _CONV_CELLS cells per step, in int16, int32 or int64 by the
rows' span (narrow_dtype(-span, span) holds twice it). The inputs of the
tiled window sweep it replaced stay: 16-width tiles of up to 2**16 cells,
and prefix sums kept by their span, not twice it. Every edge between two
blocks, two steps or two dtypes gets an exact case here, checked against
the loop oracles of _support, one numpy pass per width, or a closed form.
"""

import random
import tracemalloc

import numpy as np
import pytest

from jumbled.minplus import (
    _CONV_CELLS, _CONV_SHIFTS, FINITE_BOUND, narrow_dtype,
)
from jumbled.strings import (
    BinaryString, blocked_profile, naive_profile, naive_weighted_max_sums, recursive_profile,
    weighted_max_sums,
)
from _support import random_bits, window_max_sums, window_profile

S = _CONV_SHIFTS
STEP = _CONV_CELLS // S   # the outputs one step of a single row's block fills


def _assert_oracle(bits):
    mins, maxs = window_profile(bits)
    p = naive_profile(bits)
    assert p.min_ones.tolist() == mins
    assert p.max_ones.tolist() == maxs
    return p


# a row of n windows has n + 1 prefix sums, so n = S - 1 fills one block exactly
@pytest.mark.parametrize("n", [1, 15, 16, 17, 33, S - 2, S - 1, S, 2 * S - 1, 2 * S, 2 * S + 1])
def test_naive_at_tile_width_edges(n):
    rng = random.Random(n)
    for bits in (random_bits(rng, n), [0] * n, [1] * n, [i % 2 for i in range(n)]):
        _assert_oracle(bits)


def _width_at_a_time(bits):
    """Window extremes by one numpy pass per width, independent of tiles."""
    pref = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    mins, maxs = [], []
    for w in range(1, len(bits) + 1):
        sums = pref[w:] - pref[:-w]
        mins.append(int(sums.min()))
        maxs.append(int(sums.max()))
    return mins, maxs


@pytest.mark.parametrize("n", [100, 1000, 4097, 16421, STEP - 1, STEP, STEP + 1, 3 * STEP + 5])
def test_naive_across_start_tiles(n):
    # a block's first n outputs split into steps of STEP, so from STEP + 1 on
    # every block of the row is filled in several steps
    bits = np.random.default_rng(n).integers(0, 2, n)
    mins, maxs = _width_at_a_time(bits)
    p = naive_profile(bits)
    assert p.min_ones.tolist() == mins
    assert p.max_ones.tolist() == maxs
    assert naive_weighted_max_sums(bits).tolist() == maxs


@pytest.mark.parametrize("n", [16383, 16384, 32767, 32768, 32769])
def test_uniform_strings_across_the_int16_edge(n):
    # an all-1 string has span n: int16 holds its prefix sums up to n =
    # 32767, and its correlation, +-2n, up to n = 16383
    assert narrow_dtype(0, n) == (np.int16 if n <= 32767 else np.int32)
    assert narrow_dtype(-n, n) == (np.int16 if n <= 16383 else np.int32)
    sizes = np.arange(1, n + 1)
    p = naive_profile(BinaryString(np.ones(n, dtype=np.uint8)))
    assert np.array_equal(p.min_ones, sizes) and np.array_equal(p.max_ones, sizes)
    p = naive_profile(BinaryString(np.zeros(n, dtype=np.uint8)))
    assert not p.min_ones.any() and not p.max_ones.any()


def test_narrow_dtype_edges():
    i16, i32 = 2 ** 15 - 1, 2 ** 31 - 1
    assert narrow_dtype(0, i16) == np.int16
    assert narrow_dtype(0, i16 + 1) == np.int32
    assert narrow_dtype(-1, i16) == np.int32        # the span, not the range
    assert narrow_dtype(-(i16 + 1), 0) == np.int32
    assert narrow_dtype(0, i32) == np.int32
    assert narrow_dtype(0, i32 + 1) == np.int64
    assert narrow_dtype(-FINITE_BOUND, FINITE_BOUND) == np.int64


def _weights_with_span(span, rng, n=40):
    """Small signed weights, then one last weight that lifts the final
    prefix sum to exactly ``span`` above the lowest one."""
    ws = [rng.randint(-9, 9) for _ in range(n)]
    pref = np.concatenate([[0], np.cumsum(ws)])
    ws.append(int(pref.min()) + span - int(pref[-1]))
    return ws


@pytest.mark.parametrize("span", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1,
                                  2 ** 15 - 2, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
                                  2 ** 30 - 1, 2 ** 30, 2 ** 30 + 1,
                                  2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1])
def test_weighted_spans_across_dtype_edges(span):
    # the correlation takes int16 up to a span of 2**14 - 1 and int32 up to
    # 2**30 - 1; the prefix sums themselves, up to 2**15 - 1 and 2**31 - 1
    rng = random.Random(span)
    for sign in (1, -1):
        ws = [sign * w for w in _weights_with_span(span, rng)]
        want = window_max_sums(ws)
        assert naive_weighted_max_sums(ws).tolist() == want
        assert weighted_max_sums(ws, cutoff=1).tolist() == want


@pytest.mark.parametrize("ws", [
    [FINITE_BOUND],
    [-FINITE_BOUND],
    [FINITE_BOUND // 2, -(FINITE_BOUND // 2)],
    [-(FINITE_BOUND // 4)] * 3 + [FINITE_BOUND // 4],
])
def test_weighted_at_the_finite_bound(ws):
    # spans this wide take the int64 path
    want = window_max_sums(ws)
    assert naive_weighted_max_sums(ws).tolist() == want
    assert weighted_max_sums(ws).tolist() == want


@pytest.mark.parametrize("n", [53, 130])
def test_blocked_at_block_edges(n):
    rng = random.Random(n)
    for bits in (random_bits(rng, n), [1] * n, [0] * n):
        want = _assert_oracle(bits)
        for b in (1, 2, 15, 16, 17, n):
            assert blocked_profile(bits, b=b) == want, b


@pytest.mark.parametrize("cutoff", [1, 2, 64])
def test_halving_base_cases(cutoff):
    rng = random.Random(cutoff)
    # at cutoff 64 the base cases of up to 64 windows take two blocks
    for n in (1, 2, 15, 17, 33, S - 1, S, 2 * S, 2 * S + 1, 150):
        bits = random_bits(rng, n, rng.random())
        want = _assert_oracle(bits)
        assert recursive_profile(bits, cutoff=cutoff) == want
        ws = [rng.randint(-9, 9) for _ in range(n)]
        assert weighted_max_sums(ws, cutoff=cutoff).tolist() == window_max_sums(ws)


def test_naive_profile_memory_peak():
    # each ring's narrow row, its reverse and its padded copy, one
    # _CONV_CELLS-cell step buffer and the narrow extremes of both rings stay
    # below the two int64 profile arrays and one int64 row that a
    # width-at-a-time sweep holds (0.377 MiB)
    s = BinaryString(np.random.default_rng(3).integers(0, 2, 16384, dtype=np.uint8))
    naive_profile(s)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        naive_profile(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= 0.36
