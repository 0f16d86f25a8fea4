"""The pair sweep behind rle's branch for two-valued labels of few runs.

_pair_sweep takes the extremes of {lo, hi} labels from the pairs of runs of
one value: the most cells of that value in a width-w window is the running
max of w - C(w), for C(w) the fewest other cells between two runs that span
at least w. It is called directly here on every bit string up to n = 10,
with its pairs walked all at once and one run row at a time; on rows at
rle's count rule and one pair past it; at the int16 edge of its dtypes; on
one run, all-0 and all-1 rows; and on two-valued weights, small and near the
int64 bound.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import MAX, MIN, narrow_dtype
from jumbled.strings import BinaryString, naive_profile, rle_profile, rle_weighted_max_sums
from _support import window_profile


def _pair_profile(bits):
    s = BinaryString(bits)
    return tuple(strings._pair_sweep(s.prefix_ones, s.bits, ring) for ring in (MIN, MAX))


def _assert_pair_sweep(pref, labels):
    # the naive oracle's extremes and dtype, on both rings
    labels = np.asarray(labels)
    for ring in (MIN, MAX):
        want = strings._window_extremes(pref[None, :], ring)[0]
        got = strings._pair_sweep(pref, labels, ring)
        assert got.dtype == narrow_dtype(int(pref.min()), int(pref.max())), ring
        assert np.array_equal(got, want), ring


def _in_runs(n, runs, first=0):
    """n bits in 2 ``runs`` alternating runs of about equal length, so that
    each value has ``runs`` runs."""
    lengths = np.full(2 * runs, n // (2 * runs))
    lengths[:n - lengths.sum()] += 1
    return np.repeat((np.arange(2 * runs) + first) % 2, lengths).astype(np.uint8)


@pytest.mark.parametrize("block", [1, strings._PAIR_BLOCK])
@pytest.mark.parametrize("n", range(1, 11))
def test_every_bit_string(n, block):
    with mock.patch.object(strings, "_PAIR_BLOCK", block):
        for bits in itertools.product((0, 1), repeat=n):
            got = tuple(x.tolist() for x in _pair_profile(bits))
            assert got == window_profile(bits), bits


@pytest.mark.parametrize("n, runs", [(1000, 64), (322, 160), (326, 161), (723, 240), (729, 241)])
def test_rows_at_the_count_rule(n, runs):
    # the floor of 64 runs of the ring's value; 40 n pairs met exactly (160
    # runs in 322 cells, 240 in 723) and one pair past them (161 in 326, 241
    # in 729), where rle takes the gap sweep
    for first in (0, 1):
        bits = _in_runs(n, runs, first)
        assert [strings._candidates(bits, ring, True)[0].size for ring in (MIN, MAX)] == [runs] * 2
        _assert_pair_sweep(BinaryString(bits).prefix_ones, bits)
        assert rle_profile(bits) == naive_profile(bits)


@pytest.mark.parametrize("n", [32766, 32767, 32768, 32769])
def test_across_the_int16_edge(n):
    # the least Z of each span is held in int16 while n + 1 fits; the
    # prefix 1-counts while n does. Runs of about 64, and two runs
    bits = _in_runs(n, n // 128, first=1)
    _assert_pair_sweep(BinaryString(bits).prefix_ones, bits)
    ones = n // 3
    got = _pair_profile(np.repeat(np.array([1, 0], dtype=np.uint8), [ones, n - ones]))
    sizes = np.arange(1, n + 1)
    assert np.array_equal(got[0], np.maximum(0, sizes - (n - ones)))
    assert np.array_equal(got[1], np.minimum(sizes, ones))


CASES = {
    "n=1, 0": [0],
    "n=1, 1": [1],
    "all-0": [0] * 37,
    "all-1": [1] * 37,
    "one run of 1s": [0] * 10 + [1] * 17 + [0] * 5,
    "one run of 0s": [1] * 3 + [0] * 30,
    "1s at both ends": [1] + [0] * 20 + [1],
    "alternating": [i % 2 for i in range(41)],
}


@pytest.mark.parametrize("bits", CASES.values(), ids=CASES.keys())
def test_edges(bits):
    assert tuple(x.tolist() for x in _pair_profile(bits)) == window_profile(bits)


@pytest.mark.parametrize("lo, hi", [(-5, 6), (-(2 ** 40), 2 ** 40)])
def test_two_valued_weights(lo, hi):
    rng = np.random.default_rng(hi)
    # n up to 4096, where 2^40 n meets minplus.FINITE_BOUND
    for n, runs in ((1, 1), (7, 2), (300, 40), (4096, 1000)):
        weights = np.where(_in_runs(n, runs, int(rng.integers(2))) == 1, hi, lo)
        weights[rng.random(n) < 0.05] = lo   # runs of uneven length
        _assert_pair_sweep(strings._weight_prefix(weights), weights)
    weights = np.full(50, hi)
    _assert_pair_sweep(strings._weight_prefix(weights), weights)
    # 250 runs of each weight in 4096 take the pair sweep through rle
    weights = np.where(_in_runs(4096, 250) == 1, hi, lo)
    want = strings._window_extremes(strings._weight_prefix(weights)[None, :], MAX)[0]
    with mock.patch.object(strings, "_pair_sweep", wraps=strings._pair_sweep) as pair_sweep:
        assert np.array_equal(rle_weighted_max_sums(weights), want)
    assert pair_sweep.call_count == 1
