"""The directional run sweep behind rle_profile and rle_weighted_max_sums.

_run_sweep is called directly, under either candidate rule, where rle's
choice of the bound sweep would take over, so every edge here reaches it:
n = 1, a single run, a run per position, adjacent runs of equal weight,
two-valued weights with negative values and weights at the int16 / int32
edges of the sweep's narrow dtype. Both rules are also checked exhaustively
on short inputs.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import MAX, MIN
from jumbled.strings import (
    BinaryString, naive_profile, naive_weighted_max_sums, rle_profile, rle_weighted_max_sums,
)
from _support import window_max_sums, window_profile


def _candidates(labels, rings, two_valued=None):
    labels = np.asarray(labels)
    if two_valued is None:
        two_valued = strings._two_valued(labels)
    return [strings._candidates(labels, ring, two_valued) for ring in rings]


def _run_profile(bits, two_valued=None):
    s = BinaryString(bits)
    rings = (MIN, MAX)
    return tuple(strings._run_sweep(s.prefix_ones, ring, *candidates).tolist()
                 for ring, candidates in zip(rings, _candidates(s.bits, rings, two_valued)))


def _run_sums(weights, ring=MAX, two_valued=None, candidates=None):
    pref = strings._weight_prefix(weights)
    if candidates is None:
        (candidates,) = _candidates(np.array(weights), (ring,), two_valued)
    return strings._run_sweep(pref, ring, *candidates).tolist()


def _window_min_sums(weights):
    return [-x for x in window_max_sums([-w for w in weights])]


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
    for two_valued in (True, False):
        assert _run_profile(bits, two_valued) == window_profile(bits)
    p = rle_profile(bits)
    assert (p.min_ones.tolist(), p.max_ones.tolist()) == window_profile(bits)


WEIGHT_CASES = {
    "n=1": [-3],
    "one run": [4] * 25,
    "a run per position": [(-1) ** i * (i % 7) for i in range(30)],
    "two negative values": [-7, -2, -2, -7, -7, -7, -2, -7, -2, -2],
    "int16 edges": [32767, -32768, 32767],
    "int16 edges in runs": [32767] * 3 + [-32768] * 2 + [32767] * 4,
    "int32 edges": [-(2 ** 31), 2 ** 31 - 1] * 3,
    "int32 edges in runs": [-(2 ** 31)] * 4 + [2 ** 31 - 1] * 5,
}


@pytest.mark.parametrize("weights", WEIGHT_CASES.values(), ids=WEIGHT_CASES.keys())
def test_run_sweep_weight_edges(weights):
    assert _run_sums(weights) == window_max_sums(weights)
    assert _run_sums(weights, MIN) == _window_min_sums(weights)
    assert _run_sums(weights, two_valued=False) == window_max_sums(weights)
    assert rle_weighted_max_sums(weights).tolist() == window_max_sums(weights)


def test_adjacent_runs_of_equal_weight_are_one_run():
    # drawn as three runs, of which the first two share a weight
    weights = [5] * 4 + [5] * 3 + [-2] * 6
    labels = np.array(weights)
    assert strings._two_valued(labels)
    # two values: the start of the one high run; the general rule adds its
    # down-step end
    assert [(s.tolist(), e.tolist()) for s, e in _candidates(labels, (MAX, MIN))] == \
        [([0], []), ([7], [])]
    assert [(s.tolist(), e.tolist()) for s, e in _candidates(labels, (MAX, MIN), False)] == \
        [([0], [7]), ([0, 7], [])]
    want = window_max_sums(weights)
    assert _run_sums(weights) == want
    assert _run_sums(weights, two_valued=False) == want
    # extra candidates inside a run only add windows
    extra = (np.array([0, 4]), np.array([2, 4, 7]))
    assert _run_sums(weights, candidates=extra) == want


def test_two_valued_rule_needs_two_values():
    # [1, 2] ends at the down-step 2, which only the general rule keeps
    weights = [1, 2, 0]
    assert not strings._two_valued(np.array(weights))
    assert window_max_sums(weights) == [2, 3, 3]
    assert _run_sums(weights, two_valued=True) == [2, 2, 3]
    assert _run_sums(weights) == [2, 3, 3]


@pytest.mark.parametrize("n", range(1, 11))
def test_both_rules_on_every_bit_string(n):
    for bits in itertools.product((0, 1), repeat=n):
        want = window_profile(bits)
        for two_valued in (True, False):
            assert _run_profile(bits, two_valued) == want, (bits, two_valued)


def test_both_rules_on_weights_in_runs():
    rng = random.Random(12)
    for case in range(3000):
        n = rng.randint(1, 12)
        two = case % 2 == 1
        values = rng.sample(range(-6, 7), 2) if two else range(-6, 7)
        weights = []
        while len(weights) < n:
            weights += [rng.choice(values)] * rng.randint(1, 4)
        weights = weights[:n]
        for ring, want in ((MAX, window_max_sums(weights)), (MIN, _window_min_sums(weights))):
            assert _run_sums(weights, ring, two_valued=False) == want, (weights, ring)
            if two:
                assert _run_sums(weights, ring, two_valued=True) == want, (weights, ring)


def test_narrow_dtype_of_the_sweep():
    # the sweep keeps its accumulators in the dtype minplus.narrow_dtype picks
    for weights, dtype in (([32767, -32768, 32767], np.int32), ([3, -4, 3], np.int16),
                           ([-(2 ** 31), 2 ** 31 - 1] * 3, np.int64)):
        pref = strings._weight_prefix(weights)
        (candidates,) = _candidates(weights, (MAX,))
        best = strings._run_sweep(pref, MAX, *candidates)
        assert best.dtype == dtype


def _with_runs(n, runs, values=(0, 1)):
    """n labels in ``runs`` runs of about equal length, cycling through
    ``values``."""
    lengths = [n // runs] * runs
    lengths[-1] += n - sum(lengths)
    return [values[k % len(values)] for k, length in enumerate(lengths) for _ in range(length)]


@pytest.fixture
def sweeps(monkeypatch):
    """Names of the sweeps the builders call, in order, with the run sweep
    that runs when a bound sweep gives up; the sweeps of a gap sweep's gap
    row are its own steps, not recorded."""
    called, depth = [], [0]
    for name in ("_pair_sweep", "_run_sweep", "_bound_sweep", "_gap_sweep", "_window_extremes"):
        def recording(*args, name=name, sweep=getattr(strings, name)):
            if not depth[0]:
                called.append(name)
            depth[0] += 1
            try:
                return sweep(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(strings, name, recording)
    return called


def _chosen(labels, rings):
    # per ring, for two-valued labels with at least 64 runs of the ring's
    # value (the starts of their rule), the pair sweep while they make at
    # most 40 n pairs and the gap sweep past that, and the run sweep on
    # fewer runs; for labels of more values, the run sweep while its
    # candidates, starts plus ends, number at most n / 12 + 128, else the
    # bound sweep
    n, two_valued = len(labels), strings._two_valued(labels)

    def pick(starts, ends):
        if two_valued:
            if starts.size < 64:
                return "_run_sweep"
            return "_pair_sweep" if starts.size * (starts.size + 1) <= 80 * n else "_gap_sweep"
        return "_run_sweep" if 12 * (starts.size + ends.size) <= n + 1536 else "_bound_sweep"
    return [pick(*candidates) for candidates in _candidates(labels, rings)]


def _at_threshold(n, candidates, family):
    """n labels with ``candidates`` candidates on every ring: two values in
    that many low runs and high runs, low first, or weights in that many
    runs cycling through 0, 2, 1, whose every step is an up-step or a
    down-step."""
    runs = candidates * (1 if family == "weights" else 2)
    lengths = np.full(runs, n // runs)
    lengths[:n - lengths.sum()] += 1
    values = (0, 1) if family == "0/1" else (-3, 4) if family == "two-valued weights" else (0, 2, 1)
    return np.repeat(np.resize(values, lengths.size), lengths).tolist()


FAMILIES = {
    "0/1": (8, 64, 400, 1001),
    "two-valued weights": (8, 13, 14, 64, 1000),
    "weights": (8, 64, 400),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_rle_picks_its_sweep_by_cell_count(sweeps, family):
    def build(labels):
        if family == "0/1":
            return rle_profile(labels), (MIN, MAX)
        return rle_weighted_max_sums(labels).tolist(), (MAX,)

    def check(labels, what):
        sweeps.clear()
        got, rings = build(labels)
        picked = list(sweeps)
        assert picked == _chosen(np.array(labels), rings), what
        if family == "0/1":
            assert got == naive_profile(labels), what
        else:
            assert got == naive_weighted_max_sums(labels).tolist(), what
        return picked

    chosen = set()
    for n in FAMILIES[family]:
        for runs in sorted({1, 2, n // 4, n // 2, 2 * n // 3, n - 4, n - 1, n} - {0}):
            values = (0, 1) if family == "0/1" else \
                (-3, 4) if family == "two-valued weights" else (0, 5, -2, 3, 1)
            chosen.add(check(_with_runs(n, runs, values), (n, runs))[0])
    other = "_bound_sweep" if family == "weights" else "_gap_sweep"
    assert chosen == {"_run_sweep", other} | ({"_pair_sweep"} if family != "weights" else set())
    if family == "weights":
        # the threshold n / 12 + 128, and one candidate past it, at sizes
        # below the floor from which the bound sweep may give up to the run
        # sweep
        for n in (1000, 2500, 4500):
            top = (n + 1536) // 12
            for candidates, want in ((top, "_run_sweep"), (top + 1, other)):
                labels = _at_threshold(n, candidates, family)
                got = [ends.size + starts.size for starts, ends in _candidates(labels, (MIN, MAX))]
                assert got == [candidates] * 2, (n, got)
                assert set(check(labels, (n, candidates))) == {want}, (n, candidates)
        return
    # the pair sweep's floor of 64 runs of the ring's value, and one run
    # short of it; its share of 40 n pairs, met exactly and one pair past,
    # with more runs than n / 12 + 128 (n = 326, 729) and with fewer (n =
    # 10000, up to 961 runs): that count decides for labels of more values
    # only
    for n, runs, want in ((1000, 64, "_pair_sweep"), (1000, 63, "_run_sweep"),
                          (322, 160, "_pair_sweep"), (326, 161, "_gap_sweep"),
                          (723, 240, "_pair_sweep"), (729, 241, "_gap_sweep"),
                          (10000, 893, "_pair_sweep"), (10000, 894, "_gap_sweep"),
                          (10000, 961, "_gap_sweep")):
        labels = _at_threshold(n, runs, family)
        assert [starts.size for starts, _ in _candidates(labels, (MIN, MAX))] == [runs] * 2
        assert set(check(labels, (n, runs))) == {want}, (n, runs)


def test_iid_labels_at_several_chunks_of_starts(sweeps):
    # i.i.d. bits and two-valued weights, each ring with some 1000 starts,
    # take the gap sweep, and i.i.d. weights of 19 values the bound sweep
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 4096)
    two = np.where(rng.integers(0, 2, 4096) == 1, 6, -5)
    weights = rng.integers(-9, 10, 4096)
    got = [rle_profile(bits), rle_weighted_max_sums(two), rle_weighted_max_sums(weights)]
    assert sweeps == ["_gap_sweep"] * 3 + ["_bound_sweep"]
    assert got[0] == naive_profile(bits)
    assert np.array_equal(got[1], naive_weighted_max_sums(two))
    assert np.array_equal(got[2], naive_weighted_max_sums(weights))


def test_naive_references_never_take_the_run_sweep(sweeps):
    bits = _with_runs(500, 4)
    naive_profile(bits)
    naive_weighted_max_sums(bits)
    assert sweeps == ["_window_extremes"] * 3   # the profile's two rings, the sums' one


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
    # the pair sweep of each ring holds a few narrow rows of n (the least Z
    # of each span, two rows long, the running extremes and its output) and
    # one block of pairs beside the other ring's extremes, freed but for the
    # extremes before the two int64 profile arrays are made; the bound is
    # naive_profile's (see test_naive_profile_memory_peak). 256 runs take
    # the pair sweep; i.i.d. bits with about n / 2 runs the gap sweep, whose
    # gap rows take the bound sweep, and whose buffers are freed but for
    # each ring's extremes before the profile arrays are made
    for bits in (np.repeat(np.arange(256) % 2, 64).astype(np.uint8),
                 np.random.default_rng(16384).integers(0, 2, 16384).astype(np.uint8)):
        s = BinaryString(bits)
        rle_profile(s)   # first call: numpy's own lazy allocations
        tracemalloc.start()
        try:
            rle_profile(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= 0.36
