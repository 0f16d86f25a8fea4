"""The bound-pruned sweep behind rle's branch for labels of many runs.

_bound_sweep centres the prefix sums on the nearest half of the mean label
(0/1 labels of density near 1/2 walk by +-1 at twice the scale), then skips
every block of K starts x K widths whose bound falls short of a real window
at each of its widths. Every case here is checked against _window_sweep
under both rings, once through the pruned reads (with _BOUND_CELL_COST at 0
the block pass never gives up) and once as rle calls it, where short or
unprunable inputs fall back to the window sweep on the centred prefix sums,
and to the run sweep when that is priced lower.
"""

import tracemalloc

import numpy as np
import pytest

from jumbled import strings
from jumbled.minplus import FINITE_BOUND, MAX, MIN
from jumbled.strings import BinaryString, naive_profile, rle_profile, rle_weighted_max_sums

K = strings._BOUND_BLOCK


@pytest.fixture(params=["pruned", "as called"])
def path(request, monkeypatch):
    if request.param == "pruned":
        monkeypatch.setattr(strings, "_BOUND_CELL_COST", 0)
    return request.param


def _assert_window_sweep(pref, labels, wants=None):
    for ring in (MAX, MIN):
        if wants is None:
            (want,) = strings._window_sweep(pref[None, :], (ring,))
        else:
            want = wants[ring]
        # as priced by rle, and with a run sweep priced at nothing, so that
        # the pass gives up at its first check and the run sweep answers
        for run in (None, 0):
            got = strings._bound_sweep(pref, np.asarray(labels), ring, run)
            assert got.dtype == want.dtype, (ring, run)
            assert np.array_equal(got, want[0]), (ring, run)


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


@pytest.fixture(scope="module", params=[32768, 65536])
def big_bits(request):
    """i.i.d. bits of n = 32768 or 65536, and the window sweep's extremes of
    each ring, made once for both paths."""
    bits = np.random.default_rng(7).integers(0, 2, request.param).astype(np.uint8)
    pref = BinaryString(bits).prefix_ones
    return bits, {ring: strings._window_sweep(pref[None, :], (ring,))[0] for ring in (MAX, MIN)}


def test_iid_bits_at_the_int16_edge(path, big_bits):
    # at n = 65536 the seed draws more than 32767 ones, so the raw prefix
    # sums need int32 while the centred walk stays in int16
    bits, wants = big_bits
    assert wants[MAX].dtype == (np.int32 if bits.size == 65536 else np.int16)
    _assert_bits(bits, wants)


@pytest.fixture
def reads(monkeypatch):
    """How each _bound_sweep call ended, its pruned reads or the window
    sweep, or that rle took the run sweep."""
    called = []
    for name in ("_read_blocks", "_window_sweep", "_run_sweep"):
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


def test_string_random_bits_read_blocks_and_few_runs_take_the_run_sweep(reads):
    # bits shaped as string-random (density 1/2, n = 16384) read blocks on
    # both rings; 256 runs and bits of density 0.05 take the run sweep
    n = 16384
    rng = np.random.default_rng(n)
    cases = [(rng.integers(0, 2, n), ["_read_blocks"] * 2),
             (np.repeat(np.arange(256) % 2, n // 256), ["_run_sweep"]),
             (rng.random(n) < 0.05, ["_run_sweep"])]
    for bits, want in cases:
        bits = bits.astype(np.uint8)
        reads.clear()
        got = rle_profile(bits)
        assert reads == want
        assert got == naive_profile(bits)


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
