"""The gap sweep behind rle's branch for two-valued labels of many runs.

_gap_sweep takes the extremes of {lo, hi} labels from the least width that
holds t of one value, 1 plus the MIN of _rle_sweep over the gaps between
that value's positions. It is called directly here on every bit string up to
n = 10 and on two-valued weights, and through rle at the sizes where its
dtypes step: positions past 32767, more than 16383 ones, and weights whose
hi w overflows int16 though every window sum fits. "Past runs" cases send
every two-valued row to the gap sweep and every other row to the bound
sweep, which never gives up, so that rle leaves both sweeps of runs on
every row.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import MAX, MIN, narrow_dtype
from jumbled.strings import (
    BinaryString, naive_profile, naive_weighted_max_sums, rle_profile, rle_weighted_max_sums,
)
from jumbled.trees import LabeledTree, binarize, simple_tree_profile
from _support import PAST_RUNS, window_max_sums, window_profile


@pytest.fixture(params=["past runs", "as called"])
def kernels(request):
    if request.param == "as called":
        yield
    else:
        with mock.patch.multiple(strings, **PAST_RUNS):
            yield


def fibonacci_word(n):
    # 0100101001001...: its gap rows are two-valued at every level
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return np.array(b[:n], dtype=np.uint8)


def _gap_sums(weights, ring):
    pref = strings._weight_prefix(weights)
    return strings._gap_sweep(pref, np.asarray(weights), ring).tolist()


@pytest.mark.parametrize("n", range(1, 11))
def test_every_bit_string(n):
    for bits in itertools.product((0, 1), repeat=n):
        s = BinaryString(bits)
        got = tuple(strings._gap_sweep(s.prefix_ones, s.bits, ring).tolist() for ring in (MIN, MAX))
        assert got == window_profile(bits), bits


def test_two_valued_weights():
    rng = random.Random(19)
    for case in range(2000):
        n = rng.randint(1, 14)
        lo = 0 if case % 3 == 0 else rng.randint(-9, 8)
        hi = rng.randint(lo + 1, 9) if case % 5 else lo   # every fifth one value
        weights = [rng.choice((lo, hi)) for _ in range(n)]
        assert _gap_sums(weights, MAX) == window_max_sums(weights), weights
        assert _gap_sums(weights, MIN) == [-x for x in window_max_sums([-w for w in weights])]


def test_sums_stay_in_the_dtype_of_the_prefix_sums():
    # hi w reaches 6 * 6000 = 36000, past int16, but every partial sum of
    # the steps is a window extreme, inside the prefix sums' int16
    weights = np.where(np.random.default_rng(6000).integers(0, 2, 6000) == 1, 6, -5)
    pref = strings._weight_prefix(weights)
    assert narrow_dtype(int(pref.min()), int(pref.max())) == np.int16
    for ring in (MAX, MIN):
        got = strings._gap_sweep(pref, weights, ring)
        want = strings._window_extremes(pref[None, :], ring)
        assert got.dtype == np.int16
        assert np.array_equal(got, want[0])


def test_weights_of_two_values_past_int16(kernels):
    weights = np.where(np.random.default_rng(6000).integers(0, 2, 6000) == 1, 6, -5)
    assert np.array_equal(rle_weighted_max_sums(weights), naive_weighted_max_sums(weights))


def test_positions_past_int16(kernels):
    bits = np.random.default_rng(40000).integers(0, 2, 40000).astype(np.uint8)
    assert narrow_dtype(0, bits.size) == np.int32
    assert rle_profile(bits) == naive_profile(bits)


def test_more_than_16383_ones(kernels):
    # about 18000 ones, as a string and as a 0/1 path, whose sets are the
    # windows of its labels
    bits = (np.random.default_rng(20000).random(20000) < 0.9).astype(np.uint8)
    assert int(bits.sum()) > 16383
    want = naive_profile(bits)
    assert rle_profile(bits) == want
    path = [-1] + list(range(bits.size - 1))
    assert simple_tree_profile(binarize(LabeledTree(path, bits))) == want


def test_fibonacci_word_nests_a_few_gap_rows(monkeypatch):
    # each gap row of a Fibonacci word is two-valued and about 1/phi as long
    # as the row above it; the rows take the gap sweep until one is short
    # enough for the run sweep
    depth, deepest = [0], [0]

    def nesting(*args, sweep=strings._rle_sweep):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return sweep(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(strings, "_rle_sweep", nesting)
    bits = fibonacci_word(1 << 15)
    assert rle_profile(bits) == naive_profile(bits)
    assert 2 <= deepest[0] <= 8
