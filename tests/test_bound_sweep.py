"""The bound-pruned sweep behind rle's branch for labels of many runs.

_bound_sweep centres the prefix sums on the rounded mean label, then skips
every block of K starts x K widths, and every start of a kept block, whose
bound falls short of a real window at each of its widths. Every case here is
checked against _window_sweep under both rings, once through the pruned
reads (with _BOUND_CELL_COST at 0 the block pass never gives up) and once as
rle calls it, where short or unprunable inputs fall back to the window sweep
on the centred prefix sums.
"""

import tracemalloc

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import FINITE_BOUND, MAX, MIN
from jumbled.strings import BinaryString, rle_weighted_max_sums

K = strings._BOUND_BLOCK


@pytest.fixture(params=["pruned", "as called"])
def path(request, monkeypatch):
    if request.param == "pruned":
        monkeypatch.setattr(strings, "_BOUND_CELL_COST", 0)
    return request.param


def _assert_window_sweep(pref, labels):
    for ring in (MAX, MIN):
        (want,) = strings._window_sweep(pref[None, :], (ring,))
        got = strings._bound_sweep(pref, np.asarray(labels), ring)
        assert got.dtype == want.dtype, ring
        assert np.array_equal(got, want[0]), ring


def _assert_weights(weights):
    weights = np.asarray(weights, dtype=np.int64)
    _assert_window_sweep(strings._weight_prefix(weights), weights)


def test_every_n_up_to_three_blocks(path):
    rng = np.random.default_rng(3)
    for n in range(1, 3 * K + 2):
        _assert_weights(rng.integers(-9, 10, n))
        _assert_weights(rng.integers(0, 10, n))


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


@pytest.fixture
def reads(monkeypatch):
    """How each _bound_sweep call ended: its pruned reads or the window sweep."""
    called = []
    for name in ("_read_blocks", "_window_sweep"):
        def recording(*args, name=name, step=getattr(strings, name)):
            called.append(name)
            return step(*args)
        monkeypatch.setattr(strings, name, recording)
    return called


def test_periodic_weights_fall_back_and_iid_weights_do_not(reads):
    n = 8192
    rle_weighted_max_sums(np.resize([1, -1, 0], n))
    assert reads == ["_window_sweep"]
    reads.clear()
    rle_weighted_max_sums(np.random.default_rng(n).integers(-9, 10, n))
    assert reads == ["_read_blocks"]


def test_rle_weighted_memory_peak():
    # the int64 prefix sums, two narrow copies of the centred ones (ends and
    # starts), the kept blocks, the sliding maxima of the ends, and one batch
    # of gathered windows of _BOUND_CELLS cells
    weights = np.random.default_rng(16384).integers(-9, 10, 16384)
    rle_weighted_max_sums(weights)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        rle_weighted_max_sums(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= 0.60
