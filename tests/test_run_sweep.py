"""The run-boundary sweep behind rle_profile and rle_weighted_max_sums.

_run_sweep is called directly where rle's fallback to the window sweep would
take over (rho/n at or above RLE_CUTOFF), so every edge here reaches it:
n = 1, a single run, a run per position, adjacent runs of equal weight and
weights at the int16 / int32 edges of the sweep's narrow dtype.
"""

import math
import tracemalloc

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import MAX, MIN
from jumbled.strings import (
    RLE_CUTOFF, BinaryString, naive_profile, naive_weighted_max_sums, rle_profile,
    rle_weighted_max_sums,
)
from _support import window_max_sums, window_profile


def _run_profile(bits):
    s = BinaryString(bits)
    mins, maxs = strings._run_sweep(s.prefix_ones, strings._run_bounds(s.bits), (MIN, MAX))
    return mins.tolist(), maxs.tolist()


def _run_sums(weights, bounds=None):
    pref = strings._weight_prefix(weights)
    if bounds is None:
        bounds = strings._run_bounds(np.array(weights))
    return strings._run_sweep(pref, bounds, (MAX,))[0].tolist()


BIT_CASES = {
    "n=1, 0": [0],
    "n=1, 1": [1],
    "all-0": [0] * 37,
    "all-1": [1] * 37,
    "alternating from 0": [i % 2 for i in range(41)],
    "alternating from 1": [1 - i % 2 for i in range(41)],
    "one 1 in the middle": [0] * 20 + [1] + [0] * 20,
    "two long runs": [1] * 30 + [0] * 11,
}


@pytest.mark.parametrize("bits", BIT_CASES.values(), ids=BIT_CASES.keys())
def test_run_sweep_edges(bits):
    assert _run_profile(bits) == window_profile(bits)
    p = rle_profile(bits)
    assert (p.min_ones.tolist(), p.max_ones.tolist()) == window_profile(bits)


WEIGHT_CASES = {
    "n=1": [-3],
    "one run": [4] * 25,
    "a run per position": [(-1) ** i * (i % 7) for i in range(30)],
    "int16 edges": [32767, -32768, 32767],
    "int16 edges in runs": [32767] * 3 + [-32768] * 2 + [32767] * 4,
    "int32 edges": [-(2 ** 31), 2 ** 31 - 1] * 3,
    "int32 edges in runs": [-(2 ** 31)] * 4 + [2 ** 31 - 1] * 5,
}


@pytest.mark.parametrize("weights", WEIGHT_CASES.values(), ids=WEIGHT_CASES.keys())
def test_run_sweep_weight_edges(weights):
    assert _run_sums(weights) == window_max_sums(weights)
    assert rle_weighted_max_sums(weights).tolist() == window_max_sums(weights)


def test_adjacent_runs_of_equal_weight_are_one_run():
    # drawn as three runs, of which the first two share a weight
    weights = [5] * 4 + [5] * 3 + [-2] * 6
    assert strings._run_bounds(np.array(weights)).tolist() == [0, 7, 13]
    want = window_max_sums(weights)
    assert _run_sums(weights) == want
    # extra boundaries inside a run only add candidates
    assert _run_sums(weights, np.array([0, 4, 7, 13])) == want


def test_narrow_dtype_of_the_sweep():
    # the sweep keeps its accumulators in the dtype _narrow_dtype picks
    for weights, dtype in (([32767, -32768, 32767], np.int32), ([3, -4, 3], np.int16),
                           ([-(2 ** 31), 2 ** 31 - 1] * 3, np.int64)):
        pref = strings._weight_prefix(weights)
        (best,) = strings._run_sweep(pref, strings._run_bounds(np.array(weights)), (MAX,))
        assert best.dtype == dtype


def _with_runs(n, runs):
    """n bits in exactly ``runs`` runs, alternating from 0."""
    lengths = [n // runs] * runs
    lengths[-1] += n - sum(lengths)
    return [k % 2 for k, length in enumerate(lengths) for _ in range(length)]


@pytest.fixture
def sweeps(monkeypatch):
    """Names of the sweeps the rle builders call, in order."""
    called = []
    for name in ("_run_sweep", "_window_sweep"):
        def recording(*args, name=name, sweep=getattr(strings, name)):
            called.append(name)
            return sweep(*args)
        monkeypatch.setattr(strings, name, recording)
    return called


@pytest.mark.parametrize("n", [64, 400, 1001])
def test_rle_picks_its_sweep_by_runs_per_position(sweeps, n):
    # below RLE_CUTOFF runs per position the run sweep, from it on the window sweep
    at = math.ceil(RLE_CUTOFF * n)
    for runs, sweep in ((1, "_run_sweep"), (at - 1, "_run_sweep"), (at, "_window_sweep"),
                        (n, "_window_sweep")):
        bits = _with_runs(n, runs)
        weights = [7 * b - 3 for b in bits]
        sweeps.clear()
        p = rle_profile(bits)
        assert sweeps == [sweep], runs
        want = naive_profile(bits)
        assert p == want
        sweeps.clear()
        got = rle_weighted_max_sums(weights)
        assert sweeps == [sweep], runs
        assert got.tolist() == naive_weighted_max_sums(weights).tolist()


def test_naive_references_never_take_the_run_sweep(sweeps):
    bits = _with_runs(500, 4)
    naive_profile(bits)
    naive_weighted_max_sums(bits)
    assert sweeps == ["_window_sweep", "_window_sweep"]


def test_rle_at_benchmark_scale():
    # the shape of a long string of few runs: n = 16384, 256 runs
    rng = np.random.default_rng(256)
    cuts = np.sort(rng.choice(np.arange(1, 16384), 255, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [16384]]))
    bits = np.repeat(np.arange(256) % 2, lengths)
    assert rle_profile(bits) == naive_profile(bits)
    weights = np.repeat(rng.integers(-9, 10, 256), lengths)
    assert np.array_equal(rle_weighted_max_sums(weights), naive_weighted_max_sums(weights))


@pytest.mark.parametrize("n", [32767, 32768, 32769])
def test_two_runs_across_the_int16_edge(n):
    # 1s then 0s, in the closed form: max = min(w, ones), min = max(0, w - zeros)
    ones = n // 3
    p = rle_profile(np.repeat(np.array([1, 0], dtype=np.uint8), [ones, n - ones]))
    sizes = np.arange(1, n + 1)
    assert np.array_equal(p.max_ones, np.minimum(sizes, ones))
    assert np.array_equal(p.min_ones, np.maximum(0, sizes - (n - ones)))
    p = rle_profile(np.ones(n, dtype=np.uint8))
    assert np.array_equal(p.min_ones, sizes) and np.array_equal(p.max_ones, sizes)


def test_rle_profile_memory_peak():
    # the run sweep holds five narrow rows of n (the prefix sums, their
    # reversed copy, one row of differences and the two extremes), freed
    # but for the extremes before the two int64 profile arrays are made; the
    # bound is naive_profile's (see test_naive_profile_memory_peak)
    bits = np.repeat(np.arange(256) % 2, 64).astype(np.uint8)
    s = BinaryString(bits)
    rle_profile(s)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        rle_profile(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= 0.36
