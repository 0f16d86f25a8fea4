"""String index tests.

The cross-block golden table below was produced by `_brute_cross_entry`,
an enumeration over (suffix, prefix) splits written before the table code,
and is frozen here on purpose: if the implementation and the enumeration
ever drift apart the frozen values break the tie.
"""

import random
import tracemalloc

import numpy as np
import pytest

from jumbled import reference
from jumbled.minplus import INF, MAX, MIN, NEG_INF
from jumbled.reference import _edge_tables
from jumbled.strings import (
    BinaryString, blocked_profile, build_cross_tables, make_block_partition, naive_profile,
    naive_weighted_max_sums, recursive_profile, rle_profile, weighted_max_sums,
)
from _support import random_bits, window_max_sums, window_profile


def test_binary_string_basics():
    s = BinaryString("0110")
    assert len(s) == 4
    assert s.prefix_ones.tolist() == [0, 0, 1, 2, 2]
    assert BinaryString([0, 1, 1, 0]).bits.tolist() == s.bits.tolist()


def test_binary_string_rejects_garbage():
    with pytest.raises(ValueError):
        BinaryString("01x0")
    with pytest.raises(ValueError):
        BinaryString("")
    with pytest.raises(ValueError):
        BinaryString([0, 2])
    # out-of-range values are refused before the uint8 cast could wrap them
    with pytest.raises(ValueError):
        BinaryString(np.array([256, 1, 257]))
    with pytest.raises(ValueError):
        BinaryString([-1])


# The prefix 1-counts take int16 up to n = 32767 and int32 from 32768 on;
# every backend reads them in that dtype, and the string's 1-count reaches
# the int16 limit when all bits are 1
_SWITCH_FILLS = {
    "iid": lambda n: np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8),
    "ones": lambda n: np.ones(n, dtype=np.uint8),
    "zeros": lambda n: np.zeros(n, dtype=np.uint8),
}


@pytest.fixture(scope="module", params=[(n, fill) for n in (32767, 32768) for fill in _SWITCH_FILLS],
                ids=lambda case: f"{case[0]}-{case[1]}")
def switch_case(request):
    n, fill = request.param
    s = BinaryString(_SWITCH_FILLS[fill](n))
    return s, naive_profile(s)


def test_prefix_ones_narrow_at_the_int16_switch(switch_case):
    s, _ = switch_case
    n = len(s)
    assert s.prefix_ones.dtype == (np.int16 if n <= 32767 else np.int32)
    assert np.array_equal(s.prefix_ones, np.cumsum(np.append(0, s.bits), dtype=np.int64))


# blocked at its default b only: --block 1 at this n needs about 8 GB
@pytest.mark.parametrize("backend", [rle_profile, recursive_profile, blocked_profile],
                         ids=lambda f: f.__name__)
def test_backends_equal_naive_at_the_int16_switch(switch_case, backend):
    s, want = switch_case
    assert backend(s) == want


# The blocked sweep runs in int16 up to n = 8190 and int32 from 8191. Its
# cells span [-n, n], and a sentinel plus a left entry must stay beyond n,
# so its dtype holds +-2 (2n + 2); with half that bound, all 1s at
# n = 16382 gave a wrong profile
@pytest.mark.parametrize("n, fill", [(n, fill) for n in (8190, 8191) for fill in _SWITCH_FILLS]
                         + [(16382, "ones")], ids=str)
def test_blocked_equals_naive_at_its_int16_switch(n, fill):
    s = BinaryString(_SWITCH_FILLS[fill](n))
    assert blocked_profile(s) == naive_profile(s)


@pytest.mark.parametrize("ring", [MIN, MAX], ids=["min", "max"])
def test_edge_tables_take_the_sweep_dtype(ring, monkeypatch):
    # the sweep's tables are the int64 tables in its dtype, but for the cells
    # past n in either table, which hold that dtype's sentinel; b = 91 leaves
    # a last block of 90 (n = 8189) and of 1 (n = 8191)
    seen = []

    def recording(p, side, dtype):
        seen.append((p, _edge_tables(p, side, dtype)))
        return seen[-1][1]

    monkeypatch.setattr(reference, "_edge_tables", recording)
    for n, dtype in ((8189, np.int16), (8191, np.int32)):
        reference._blocked_sweep(make_block_partition(_SWITCH_FILLS["iid"](n), 91), ring)
        p, (left, right) = seen.pop()
        at = p.bounds[:-1, None] + np.arange(p.b + 1)   # s_i + k
        wants = _edge_tables(p, ring, np.int64)
        for got, want, past in zip((left, right), wants, (at > n, at.T > n)):
            assert got.dtype == dtype and past.any() and (want[past] == ring.sentinel).all()
            assert (got[past] == ring.sentinel_in(dtype)).all()
            assert np.array_equal(got[~past], want[~past])


# ---------------------------------------------------------------------------
# naive profile

def test_naive_frozen():
    p = naive_profile("0110")
    assert p.min_ones.tolist() == [0, 1, 2, 2]
    assert p.max_ones.tolist() == [1, 2, 2, 2]


def test_naive_all_zero():
    p = naive_profile("0000")
    assert p.min_ones.tolist() == [0, 0, 0, 0]
    assert p.max_ones.tolist() == [0, 0, 0, 0]


def test_naive_single_char():
    p = naive_profile("1")
    assert p.min_ones.tolist() == [1]
    assert p.max_ones.tolist() == [1]


def test_naive_matches_window_oracle():
    rng = random.Random(2)
    for _ in range(40):
        bits = random_bits(rng, rng.randint(1, 40), rng.random())
        mins, maxs = window_profile(bits)
        p = naive_profile(bits)
        assert p.min_ones.tolist() == mins
        assert p.max_ones.tolist() == maxs


# ---------------------------------------------------------------------------
# block partition and cross tables

def test_partition_bounds():
    p = make_block_partition("011010", 4)
    assert p.m == 2
    assert p.bounds.tolist() == [0, 4, 6]


def _brute_cross_entry(bits, bounds, i, j, length, maximize=False):
    """Enumerate suffix-of-block-i + interior + prefix-of-block-j splits."""
    if i >= j:
        return None
    fold = max if maximize else min
    best = None
    bi_lo, bi_hi = bounds[i], bounds[i + 1]
    bj_lo, bj_hi = bounds[j], bounds[j + 1]
    interior = sum(bits[bounds[i + 1]:bounds[j]])
    for q in range(0, min(length, bi_hi - bi_lo) + 1):
        p_len = length - q
        if p_len > bj_hi - bj_lo:
            continue
        ones = sum(bits[bi_hi - q:bi_hi]) + interior + sum(bits[bj_lo:bj_lo + p_len])
        best = ones if best is None else fold(best, ones)
    return best


# frozen output of _brute_cross_entry for T="0110", b=2, entry [0,1]
_GOLDEN_01 = {
    # length: (min, max)
    1: (1, 1),
    2: (1, 2),
    3: (2, 2),
    4: (2, 2),
}


def test_cross_tables_golden_0110():
    bits = [0, 1, 1, 0]
    part = make_block_partition("0110", 2)
    tables = build_cross_tables(part)
    for length, (lo, hi) in _GOLDEN_01.items():
        assert tables.min_table(length)[0, 1] == lo
        assert tables.max_table(length)[0, 1] == hi
        # the frozen value must itself agree with fresh enumeration
        assert _brute_cross_entry(bits, [0, 2, 4], 0, 1, length) == lo
        assert _brute_cross_entry(bits, [0, 2, 4], 0, 1, length, maximize=True) == hi
    # headline entry: min over ""+"10" -> 1, "1"+"1" -> 2, "01"+"" -> 1
    assert tables.min_table(2)[0, 1] == 1


def test_cross_tables_spanning_only():
    part = make_block_partition("011011", 2)
    tables = build_cross_tables(part)
    for length in range(1, 5):
        cmin, cmax = tables.min_table(length), tables.max_table(length)
        iu = np.tril_indices(part.m)   # i >= j never spans
        assert (cmin[iu] == INF).all()
        assert (cmax[iu] == NEG_INF).all()


def _check_cross_tables(bits, b):
    """Every cell of both sides' tables, the sentinels at i >= j included,
    against enumeration."""
    part = make_block_partition(bits, b)
    tables = build_cross_tables(part)
    bounds = part.bounds.tolist()
    for length in range(1, 2 * b + 1):
        cmin, cmax = tables.min_table(length), tables.max_table(length)
        for i in range(part.m):
            for j in range(part.m):
                lo = _brute_cross_entry(bits, bounds, i, j, length)
                hi = _brute_cross_entry(bits, bounds, i, j, length, maximize=True)
                assert cmin[i, j] == (INF if lo is None else lo)
                assert cmax[i, j] == (NEG_INF if hi is None else hi)


def test_cross_tables_match_enumeration():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 30)
        b = rng.randint(1, n)
        bits = random_bits(rng, n)
        if make_block_partition(bits, b).m >= 2:
            _check_cross_tables(bits, b)


# ---------------------------------------------------------------------------
# blocked profile

def test_blocked_frozen():
    p = blocked_profile("0110", b=2)
    assert p.min_ones.tolist() == [0, 1, 2, 2]
    assert p.max_ones.tolist() == [1, 2, 2, 2]


def test_blocked_degenerate_single_block():
    for s in ("0110", "1", "0001110"):
        assert blocked_profile(s, b=len(s) + 3) == naive_profile(s)


def test_blocked_matches_naive():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 150)
        bits = random_bits(rng, n, rng.random())
        b = rng.randint(1, n)
        assert blocked_profile(bits, b=b) == naive_profile(bits), (bits, b)
    # every block length: full last blocks, last blocks of 1, and m = 2
    for n in (13, 40):
        bits = random_bits(rng, n, rng.random())
        for b in range(1, n + 1):
            assert blocked_profile(bits, b=b) == naive_profile(bits), (bits, b)


# (n, b) at the edges of the block layout: one character per block, a last
# block of one character, a full last block, and one more character after it
_EDGE_SHAPES = [(9, 1), (9, 8), (10, 5), (11, 5)]
_EDGE_FILLS = {"mixed": lambda n: random_bits(random.Random(n), n),
               "all-0": lambda n: [0] * n, "all-1": lambda n: [1] * n}


@pytest.mark.parametrize("fill", sorted(_EDGE_FILLS))
@pytest.mark.parametrize("n, b", _EDGE_SHAPES)
def test_blocked_edge_shapes(n, b, fill):
    bits = _EDGE_FILLS[fill](n)
    assert blocked_profile(bits, b=b) == naive_profile(bits)


@pytest.mark.parametrize("fill", sorted(_EDGE_FILLS))
@pytest.mark.parametrize("n, b", _EDGE_SHAPES)
def test_cross_tables_edge_shapes(n, b, fill):
    _check_cross_tables(_EDGE_FILLS[fill](n), b)


def _blocked_peak_mib(n, b=None):
    s = BinaryString(np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))
    blocked_profile(s, b)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        blocked_profile(s, b)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_blocked_profile_memory_peak():
    # the edge tables and the padded buffer each length's product is written
    # into: at the default b = 64, m = 64 blocks in the sweep's int16, the
    # peak is 0.21 MiB
    assert _blocked_peak_mib(4096) <= 1.0


def test_blocked_profile_memory_peak_at_block_1():
    # m = n blocks: each product is written into the left m columns of an
    # m x (2m - 1) buffer, so the peak is two m x m int16 tables, 4.2 MiB at
    # n = 1024 (6.3 MiB with a copy of each product)
    assert _blocked_peak_mib(1024, 1) <= 5.0


# ---------------------------------------------------------------------------
# recursive profile

def test_recursive_frozen():
    p = recursive_profile("0110")
    assert p.min_ones.tolist() == [0, 1, 2, 2]
    assert p.max_ones.tolist() == [1, 2, 2, 2]
    p = recursive_profile("10")
    assert p.min_ones.tolist() == [0, 1]
    assert p.max_ones.tolist() == [1, 1]


def test_recursive_single_char():
    for c in "01":
        p = recursive_profile(c)
        assert p.min_ones.tolist() == [int(c)]
        assert p.max_ones.tolist() == [int(c)]


def test_recursive_matches_naive():
    rng = random.Random(19)
    for _ in range(60):
        bits = random_bits(rng, rng.randint(1, 200), rng.random())
        assert recursive_profile(bits) == naive_profile(bits)


def test_recursive_small_cutoff_forces_splits():
    rng = random.Random(23)
    bits = random_bits(rng, 97)
    assert recursive_profile(bits, cutoff=2) == naive_profile(bits)


@pytest.mark.parametrize("cutoff", [0, -1])
def test_halving_refuses_a_cutoff_below_one(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        recursive_profile("0110", cutoff=cutoff)
    with pytest.raises(ValueError, match="cutoff"):
        weighted_max_sums([1, -2, 3], cutoff=cutoff)


def test_recursive_deep_input_no_recursion_error():
    bits = random_bits(random.Random(29), 3000)
    assert recursive_profile(bits, cutoff=2) == naive_profile(bits)


# ---------------------------------------------------------------------------
# weighted windows

def test_weighted_frozen():
    assert weighted_max_sums([2, -1, 3]).tolist() == [3, 2, 4]
    assert naive_weighted_max_sums([2, -1, 3]).tolist() == [3, 2, 4]


def test_weighted_all_zero():
    assert weighted_max_sums([0] * 6).tolist() == [0] * 6


def test_weighted_all_ones():
    assert weighted_max_sums([1] * 7).tolist() == list(range(1, 8))


def test_weighted_matches_enumeration():
    rng = random.Random(37)
    for _ in range(40):
        ws = [rng.randint(-9, 9) for _ in range(rng.randint(1, 60))]
        want = window_max_sums(ws)
        assert weighted_max_sums(ws).tolist() == want
        assert naive_weighted_max_sums(ws).tolist() == want


def test_weighted_zero_one_reproduces_max_ones():
    rng = random.Random(41)
    for _ in range(20):
        bits = random_bits(rng, rng.randint(1, 80))
        assert weighted_max_sums(bits).tolist() == \
            naive_profile(bits).max_ones.tolist()


def test_weighted_rejects_huge_weights():
    with pytest.raises(ValueError):
        weighted_max_sums([2 ** 60])
    with pytest.raises(ValueError):   # np.abs(-2**63) wraps to itself
        naive_weighted_max_sums([-2 ** 63, 5])
