"""The tiled window sweep at the edges of its tiles and of its dtypes.

The sweep covers _TILE_WIDTHS widths by up to _TILE_CELLS cells per tile and
keeps prefix sums in int16, int32 or int64 by their span, so every edge
between two tiles or two dtypes gets an exact case here, checked against the
loop oracles of _support, one numpy pass per width, or a closed form.
"""

import random
import tracemalloc

import numpy as np
import pytest

from jumbled.minplus import FINITE_BOUND, narrow_dtype
from jumbled.strings import (
    _TILE_CELLS, _TILE_WIDTHS, BinaryString, blocked_profile,
    naive_profile, naive_weighted_max_sums, recursive_profile, weighted_max_sums,
)
from _support import random_bits, window_max_sums, window_profile

K = _TILE_WIDTHS
FULL_ROW = _TILE_CELLS // 4   # a 0/1 row this long gets the whole tile buffer


def _assert_oracle(bits):
    mins, maxs = window_profile(bits)
    p = naive_profile(bits)
    assert p.min_ones.tolist() == mins
    assert p.max_ones.tolist() == maxs
    return p


@pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 2 * K + 1])
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


@pytest.mark.parametrize("n", [100, 1000, 4097, FULL_ROW + 37])
def test_naive_across_start_tiles(n):
    # short rows get a smaller buffer, so every n here splits the starts of
    # a width into several tiles; the cells past the end of the row must all
    # land in the last one (FULL_ROW + 37 uses the full-size buffer)
    bits = np.random.default_rng(n).integers(0, 2, n)
    mins, maxs = _width_at_a_time(bits)
    p = naive_profile(bits)
    assert p.min_ones.tolist() == mins
    assert p.max_ones.tolist() == maxs
    assert naive_weighted_max_sums(bits).tolist() == maxs


@pytest.mark.parametrize("n", [32767, 32768, 32769])
def test_uniform_strings_across_the_int16_edge(n):
    # an all-1 string has span n, so int16 holds it up to n = 32767
    assert narrow_dtype(0, n) == (np.int16 if n <= 32767 else np.int32)
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


@pytest.mark.parametrize("span", [2 ** 15 - 2, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
                                  2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1])
def test_weighted_spans_across_dtype_edges(span):
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


@pytest.mark.parametrize("n", [3 * K + 5, 130])
def test_blocked_at_block_edges(n):
    rng = random.Random(n)
    for bits in (random_bits(rng, n), [1] * n, [0] * n):
        want = _assert_oracle(bits)
        for b in (1, 2, K - 1, K, K + 1, n):
            assert blocked_profile(bits, b=b) == want, b


@pytest.mark.parametrize("cutoff", [1, 2, 64])
def test_halving_base_cases(cutoff):
    rng = random.Random(cutoff)
    for n in (1, 2, K - 1, K + 1, 2 * K + 1, 150):
        bits = random_bits(rng, n, rng.random())
        want = _assert_oracle(bits)
        assert recursive_profile(bits, cutoff=cutoff) == want
        ws = [rng.randint(-9, 9) for _ in range(n)]
        assert weighted_max_sums(ws, cutoff=cutoff).tolist() == window_max_sums(ws)


def test_naive_profile_memory_peak():
    # the narrow prefix copy, one 2**16-cell tile buffer and the narrow
    # extremes stay below the two int64 profile arrays and one int64 row
    # that a width-at-a-time sweep holds (0.377 MiB)
    s = BinaryString(np.random.default_rng(3).integers(0, 2, 16384, dtype=np.uint8))
    naive_profile(s)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        naive_profile(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= 0.36
