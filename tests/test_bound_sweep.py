"""The bound-pruned sweep behind rle's branch for labels of many runs.

_bound_sweep centres the prefix sums on the nearest half of the mean label
(0/1 labels of density near 1/2 walk by +-1 at twice the scale), then skips
every block of K starts x K widths whose bound falls short of a real window
at each of its widths. Every case here is checked against _window_extremes
under both rings three ways: through the pruned reads of a block pass that
never gives up; through the run sweep that rle runs when the pass gives up,
after a pass made to give up returns None; and as rle calls it, where
short, few-run or unprunable inputs take the run sweep. The "pruned" cases
rule out the run sweep up front and the give-up in the pass, so that rle
sends every row of more than two values to the bound sweep's reads.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import FINITE_BOUND, MAX, MIN, narrow_dtype
from jumbled.strings import (
    BinaryString, naive_profile, naive_weighted_max_sums, rle_profile, rle_weighted_max_sums,
)
from jumbled.trees import LabeledTree, binarize, simple_tree_profile, weighted_tree_max_sums
from _support import GIVES_UP, NEVER_GIVES_UP, NO_RUN_SWEEP, random_parents

K = strings._BOUND_BLOCK


@pytest.fixture(params=["pruned", "as called"])
def path(request, monkeypatch):
    if request.param == "pruned":
        for name, value in {**NO_RUN_SWEEP, **NEVER_GIVES_UP}.items():
            monkeypatch.setattr(strings, name, value)
    return request.param


def _assert_window_sweep(pref, labels, wants=None):
    labels = np.asarray(labels)
    for ring in (MAX, MIN):
        if wants is None:
            want = strings._window_extremes(pref[None, :], ring)
        else:
            want = wants[ring]
        # the pruned reads; a pass that gives up at its first check, on
        # every row of more than one group, and the run sweep rle then runs
        # on the general rule's candidates; and rle's pick
        with mock.patch.multiple(strings, **NEVER_GIVES_UP):
            reads = strings._bound_sweep(pref, labels, ring)
        with mock.patch.multiple(strings, **GIVES_UP):
            assert (strings._bound_sweep(pref, labels, ring) is None) == (labels.size > K), ring
        gave_up = strings._run_sweep(pref, ring, *strings._candidates(labels, ring, False))
        for how, got in (("reads", reads), ("gives up", gave_up),
                         ("rle", strings._rle_sweep(pref, labels, ring))):
            assert got.dtype == narrow_dtype(int(pref.min()), int(pref.max())), (ring, how)
            assert np.array_equal(got, want[0]), (ring, how)


def _assert_weights(weights):
    weights = np.asarray(weights, dtype=np.int64)
    _assert_window_sweep(strings._weight_prefix(weights), weights)


def test_every_n_up_to_three_blocks(path):
    rng = np.random.default_rng(3)
    for n in range(1, 3 * K + 2):
        _assert_weights(rng.integers(-9, 10, n))
        _assert_weights(rng.integers(0, 10, n))


def test_many_short_rows_of_small_weights(path):
    # rows of two to six tiles, where a bound a little too high shows: on
    # the first, L_2 taken from the group starts one position late would
    # pass the largest window of width 48
    _assert_weights([-2, 3, -1, 1, -2, 3, 0, 0, 0, 3, 1, 0, 2, 1, 0, -2, 0, 2, 3, 3, 3, 2, 1,
                     -1, -2, -2, 1, -1, 3, -2, 2, 2, 0, 3, 1, 1, -3, 0, 0, 2, -1, 0, -1, -2, 3,
                     -3, 3, -2, -2, -2, 0, 0, -1, 1, 2, 3, 0, -2, 0, 3, 2, 2, 0, 2, -3, 1, 2, 0,
                     -2, 3, -1, 2, 0])
    rng = np.random.default_rng(6)
    for _ in range(200):
        _assert_weights(rng.integers(-3, 4, int(rng.integers(2 * K + 1, 6 * K))))


def _two_runs(n):
    return np.repeat([7, -4], [n // 3, n - n // 3])


FAMILIES = {
    "i.i.d. -9..9": lambda rng, n: rng.integers(-9, 10, n),
    "drifted 0..9": lambda rng, n: rng.integers(0, 10, n),
    "drifted 1..9": lambda rng, n: rng.integers(1, 10, n),
    "drifted -9..0": lambda rng, n: rng.integers(-9, 1, n),
    "constant": lambda rng, n: np.full(n, 5),
    "periodic 1, -1, 0": lambda rng, n: np.resize([1, -1, 0], n),
    "two long runs": lambda rng, n: _two_runs(n),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1000, 4099])
def test_weight_families(path, family, n):
    _assert_weights(FAMILIES[family](np.random.default_rng(n), n))


@pytest.mark.parametrize("m", [10921, 10922])
def test_centred_prefix_across_the_int16_edge(path, m):
    # m ones then m minus ones: the centred prefix sums rise to m and fall
    # back, so the sweep's span of 3 m + 2 (its pads on both sides) just
    # fits int16 at m = 10921 and not at 10922
    _assert_weights(np.repeat([1, -1], m))


def test_raw_prefix_past_int16_and_centred_prefix_within(path):
    # prefix sums past 32767, returned as int32; centred, their noise fits int16
    weights = np.random.default_rng(9).integers(6, 13, 6000)
    _assert_weights(weights)


def test_weights_at_the_finite_bound(path):
    n = 300
    edge = FINITE_BOUND // n
    rng = np.random.default_rng(4)
    _assert_weights(rng.choice([-edge, edge], n))
    _assert_weights(np.full(n, edge))
    _assert_weights(rng.integers(-1, 2, n) * edge)


@pytest.mark.parametrize("n", [1, K, 3 * K + 1, 700, 3001])
def test_bits_under_both_rings(path, n):
    rng = np.random.default_rng(n)
    for bits in (rng.integers(0, 2, n), np.repeat(np.arange(8) % 2, -(-n // 8))[:n],
                 np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)):
        s = BinaryString(bits)
        _assert_window_sweep(s.prefix_ones, s.bits)


def _assert_bits(bits, wants=None):
    s = BinaryString(np.asarray(bits, dtype=np.uint8))
    _assert_window_sweep(s.prefix_ones, s.bits, wants)


@pytest.mark.parametrize("density", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("n", [1000, 4099])
def test_iid_bits(path, density, n):
    _assert_bits(np.random.default_rng(n).random(n) < density)


@pytest.mark.parametrize("n", [999, 4099])
def test_odd_n_with_half_the_bits_set(path, n):
    # (n - 1) / 2 or (n + 1) / 2 ones: a mean of 1/2 -+ 1/(2n), centred on the half
    rng = np.random.default_rng(n)
    for ones in ((n - 1) // 2, (n + 1) // 2):
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.choice(n, ones, replace=False)] = 1
        assert strings._centre(BinaryString(bits).prefix_ones) == (2, 1)
        _assert_bits(bits)


def test_alternating_bits(path):
    for n in (1000, 1001, 4099):
        _assert_bits(np.arange(n) % 2)


@pytest.mark.parametrize("quarter", [1, 3])
def test_means_either_side_of_a_parity_change(path, quarter):
    # m = round(2 mean) changes parity at a mean of 1/4 and of 3/4: one
    # 1 fewer centres on an integer, and at the quarter on the half
    n = 4000
    rng = np.random.default_rng(quarter)
    centres = set()
    for ones in (quarter * n // 4 - 1, quarter * n // 4):
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.choice(n, ones, replace=False)] = 1
        centres.add(strings._centre(BinaryString(bits).prefix_ones)[0])
        _assert_bits(bits)
    assert centres == {1, 2}


def test_default_path_reaches_the_half_centre(monkeypatch):
    # bits reach the bound sweep only through their gap rows: at density 0.4
    # the gaps between 1s have mean 2.5 and those between 0s 5/3, both of an
    # odd m; weights in -9..10 have mean 1/2
    centres = []

    def recording(pref, step=strings._centre):
        centres.append(step(pref))
        return centres[-1]

    monkeypatch.setattr(strings, "_centre", recording)
    rng = np.random.default_rng(4096)
    bits = (rng.random(4096) < 0.4).astype(np.uint8)
    assert rle_profile(bits) == naive_profile(bits)
    assert 2 in [d for d, _ in centres]
    centres.clear()
    weights = rng.integers(-9, 11, 4096)
    assert np.array_equal(rle_weighted_max_sums(weights), naive_weighted_max_sums(weights))
    assert 2 in [d for d, _ in centres]


@pytest.fixture(scope="module", params=[32768, 65536])
def big_bits(request):
    """i.i.d. bits of n = 32768 or 65536, and _window_extremes for each
    ring, made once for both paths."""
    bits = np.random.default_rng(7).integers(0, 2, request.param).astype(np.uint8)
    pref = BinaryString(bits).prefix_ones
    return bits, {ring: strings._window_extremes(pref[None, :], ring) for ring in (MAX, MIN)}


def test_iid_bits_at_the_int16_edge(path, big_bits):
    # at n = 65536 the seed draws more than 32767 ones, so the raw prefix
    # sums need int32 while the centred walk stays in int16
    bits, wants = big_bits
    assert narrow_dtype(0, int(bits.sum())) == (np.int32 if bits.size == 65536 else np.int16)
    _assert_bits(bits, wants)


@pytest.fixture
def reads(monkeypatch):
    """How each rle sweep ended, in the bound sweep's pruned reads, in the
    pair sweep or in the run sweep, whether rle took it or the bound sweep
    gave up to it; and any call of the gap sweep, before the sweep of its gap
    row, or of the window sweep."""
    called = []
    for name in ("_read_blocks", "_window_extremes", "_run_sweep", "_gap_sweep", "_pair_sweep"):
        def recording(*args, name=name, step=getattr(strings, name)):
            called.append(name)
            return step(*args)
        monkeypatch.setattr(strings, name, recording)
    return called


@pytest.fixture
def passes(monkeypatch):
    """How each block pass ended: "kept" blocks, or "gave up"."""
    ended = []

    def recording(*args, step=strings._kept_blocks):
        kept = step(*args)
        ended.append("gave up" if kept is None else "kept")
        return kept

    monkeypatch.setattr(strings, "_kept_blocks", recording)
    return ended


def _weights_in_runs(n, mean):
    # runs of 1 .. 2 mean - 1 labels, each of one weight from -9..9
    rng = np.random.default_rng(n)
    lengths = rng.integers(1, 2 * mean, n)
    return np.repeat(rng.integers(-9, 10, n), lengths)[:n]


def test_periodic_weights_fall_back_and_iid_weights_do_not(reads, passes):
    # rle sends both to the bound sweep; on 1, -1, 0 repeated no bound
    # prunes, so the block pass gives up and the run sweep runs
    n = 8192
    for weights, want in ((np.resize([1, -1, 0], n), ("gave up", "_run_sweep")),
                          (np.random.default_rng(n).integers(-9, 10, n), ("kept", "_read_blocks"))):
        passes.clear()
        reads.clear()
        got = rle_weighted_max_sums(weights)
        assert (passes, reads) == ([want[0]], [want[1]])
        assert np.array_equal(got, naive_weighted_max_sums(weights))


@pytest.mark.parametrize("family", ["periodic 1, -1, 0", "zigzag"])
def test_unprunable_labels_give_up_from_the_floor_on(reads, passes, family):
    # no bound prunes these: the block pass reads every block on rows of
    # fewer than 288 groups of K starts, and gives up from 288 groups on
    for n, want in ((4096, ("kept", "_read_blocks")), (287 * K, ("kept", "_read_blocks")),
                    (287 * K + 1, ("gave up", "_run_sweep")), (6000, ("gave up", "_run_sweep")),
                    (16384, ("gave up", "_run_sweep"))):
        weights = np.resize([1, -1, 0], n) if family.startswith("periodic") else _zigzag(n)
        passes.clear()
        reads.clear()
        got = rle_weighted_max_sums(weights)
        assert (passes, reads) == ([want[0]], [want[1]]), n
        assert np.array_equal(got, naive_weighted_max_sums(weights)), n


PRUNABLE_ROWS = {
    "i.i.d. weights": lambda rng, n: rng.integers(-9, 10, n),
    "bits of density 1/4": lambda rng, n: (rng.random(n) < 0.25).astype(np.uint8),
    "bits of density 0.15": lambda rng, n: (rng.random(n) < 0.15).astype(np.uint8),
}


@pytest.mark.parametrize("family", PRUNABLE_ROWS)
@pytest.mark.parametrize("n", [1 << 14, 1 << 16])
def test_rows_that_prune_never_give_up(passes, family, n):
    # i.i.d. weights, and the gap rows of sparse bits, keep few blocks: a
    # limit on the kept blocks of each tile gave up on the gap rows of bits
    # of density 1/4 at n = 16384; checked against naive at 2^14 alone
    labels = PRUNABLE_ROWS[family](np.random.default_rng(n), n)
    if family.startswith("bits"):
        got = rle_profile(labels)
        assert n > 1 << 14 or got == naive_profile(labels)
    else:
        got = rle_weighted_max_sums(labels)
        assert n > 1 << 14 or np.array_equal(got, naive_weighted_max_sums(labels))
    assert passes and set(passes) == {"kept"}


def test_weights_in_runs_of_ten_read_blocks(reads):
    # runs of mean 10: more candidates than the run sweep takes, and few
    # enough kept blocks that the block pass does not give up
    weights = _weights_in_runs(16384, 10)
    got = rle_weighted_max_sums(weights)
    assert reads == ["_read_blocks"]
    assert np.array_equal(got, naive_weighted_max_sums(weights))


def test_string_random_bits_read_blocks_and_few_runs_take_the_pair_sweep(reads):
    # the kernels of the benchmark's builds, on inputs of their shapes: bits
    # of density 1/2 (n = 16384) take the gap sweep on both rings, whose gap
    # rows read blocks, and i.i.d. weights read blocks on one; 256 runs of
    # bits take the pair sweep, as do bits of density 0.05, and 256 runs of
    # weights the run sweep; a
    # 4096-node 0/1 path takes the gap sweep on both rows of its chain and a
    # weighted one reads blocks on its one row, while the chains
    # of a random tree are short enough for the run sweep alone. A path's
    # sets are the windows of its labels, so its profile is the string's.
    n, n_tree = 16384, 4096
    rng = np.random.default_rng(n)
    runs = np.repeat(np.arange(256), n // 256)

    def kernels(build, *args):
        reads.clear()
        return build(*args), list(reads)

    for bits, want in ((rng.integers(0, 2, n), ["_gap_sweep", "_read_blocks"] * 2),
                       (runs % 2, ["_pair_sweep"] * 2),
                       (rng.random(n) < 0.05, ["_pair_sweep"] * 2)):
        bits = bits.astype(np.uint8)
        assert kernels(rle_profile, bits) == (naive_profile(bits), want)
    for weights, want in ((rng.integers(-9, 10, n), ["_read_blocks"]),
                          (rng.integers(-9, 10, 256)[runs], ["_run_sweep"])):
        got, called = kernels(rle_weighted_max_sums, weights)
        assert called == want
        assert np.array_equal(got, naive_weighted_max_sums(weights))
    path = [-1] + list(range(n_tree - 1))
    bits = rng.integers(0, 2, n_tree).astype(np.uint8)
    t = LabeledTree(path, bits)
    assert kernels(simple_tree_profile, binarize(t)) == \
        (naive_profile(bits), ["_gap_sweep", "_read_blocks"] * 2)
    weights = rng.integers(-9, 10, n_tree)
    got, called = kernels(weighted_tree_max_sums, LabeledTree(path, weights))
    assert called == ["_read_blocks"]
    assert np.array_equal(got, naive_weighted_max_sums(weights))
    tree = random_parents(random.Random(n_tree), n_tree)
    for build, labels in ((lambda t: simple_tree_profile(binarize(t)), rng.integers(0, 2, n_tree)),
                          (weighted_tree_max_sums, rng.integers(-9, 10, n_tree))):
        _, called = kernels(build, LabeledTree(tree, labels))
        assert called and set(called) == {"_run_sweep"}


def _zigzag(n):
    # a triangle wave through 9..-9: a run per position, and prefix sums of
    # period 36 that no bound prunes
    return 9 - np.abs(np.arange(n) % 36 - 18)


NO_WINDOW_INPUTS = {
    "period-3 weights": lambda rng, n: np.resize([1, -1, 0], n),
    "zigzag weights": lambda rng, n: _zigzag(n),
    "alternating bits": lambda rng, n: np.arange(n) % 2,
    "bits of density 0.05": lambda rng, n: rng.random(n) < 0.05,
    "bits of density 0.25": lambda rng, n: rng.random(n) < 0.25,
    "bits of density 0.5": lambda rng, n: rng.random(n) < 0.5,
    "bits in runs of 64": lambda rng, n: np.arange(n) // 64 % 2,
}


@pytest.mark.parametrize("family", NO_WINDOW_INPUTS)
def test_rle_never_calls_the_window_sweep(reads, family):
    # _window_extremes is the naive oracle's kernel alone: rle reaches every
    # width through the run sweep or the bound sweep, whichever it picks or
    # the bound sweep gives up to
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, K - 1, K, K + 1, 100, 1000, 1001, 2048, 4099, 8192):
        labels = NO_WINDOW_INPUTS[family](rng, n).astype(np.int64)
        reads.clear()
        got = rle_weighted_max_sums(labels)
        assert "_window_extremes" not in reads, n
        assert np.array_equal(got, naive_weighted_max_sums(labels)), n
        if family.endswith("weights"):
            continue
        bits = labels.astype(np.uint8)
        reads.clear()
        got = rle_profile(bits)
        assert "_window_extremes" not in reads, n
        assert got == naive_profile(bits), n


def test_rle_weighted_memory_peak():
    # the int64 prefix sums and, until they are narrowed, the int64 centred
    # ones; their two narrow copies (ends and starts), one step of the block
    # pass over up to _BOUND_CELLS blocks, the kept blocks, and the buffers
    # of one step of reads, _BOUND_READ blocks wide; i.i.d. weights, and
    # weights in runs of mean 10, which keep more blocks
    for weights in (np.random.default_rng(16384).integers(-9, 10, 16384),
                    _weights_in_runs(16384, 10)):
        rle_weighted_max_sums(weights)   # first call: numpy's own lazy allocations
        tracemalloc.start()
        try:
            rle_weighted_max_sums(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= 0.60
