"""The batched tree sweep at its seams.

simple_tree_profile and weighted_tree_max_sums run one sweep
(trees._tree_sweep): subtrees of at most SMALL real nodes batched by size,
unary chains of larger real nodes through strings._rle_sweep, one label row
at a time, every other large node one convolution, all in a dtype fitted to
the label sums. A 0/1 join of two arrays wider than _WIDE convolves their
inverses instead.
The benchmark takes its tree references from these same two functions, so
only these tests can catch a wrong sweep. Each seam gets exact cases,
checked against the micro-macro backend, the plain DP and enumeration of
_support, and the string sweeps on paths.
"""

import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from jumbled import strings, trees
from jumbled.minplus import (
    _CONV_SHIFTS, FINITE_BOUND, MAX, MIN, _conv_tiled, min_plus_convolution, sum_dtype,
)
from jumbled.inputs import gen_tree, parse_tree_text
from jumbled.profiles import write_profile_csv
from jumbled.reference import enumerate_max_sums
from jumbled.strings import (
    naive_profile, naive_weighted_max_sums, recursive_profile, weighted_max_sums,
)
from jumbled.trees import (
    _WIDE, SMALL, LabeledTree, _combine, _combine_by_counts, _inverse, binarize,
    enumerate_connected_oracle, simple_tree_profile, tree_profile, weighted_tree_max_sums,
)
from _support import (
    NO_PAIR_SWEEP, anchored_arrays, broom_parents, caterpillar_parents, complete_binary_parents,
    path_parents, random_bits, random_parents, star_parents, subtree_max_sums, subtree_profile,
    tree_extremes,
)


def _stack(top, below, attach):
    """Parents of ``below`` hung under node ``attach`` of ``top``."""
    k = len(top)
    return list(top) + [attach if p < 0 else p + k for p in below]


def _check(parents, labels=None, weights=None, seed=0):
    """The sweep against micro-macro and the plain DP, on 0/1 labels and on
    signed weights."""
    rng = random.Random(seed)
    n = len(parents)
    labels = labels if labels is not None else random_bits(rng, n)
    weights = weights if weights is not None else [rng.randint(-9, 9) for _ in range(n)]
    t = LabeledTree(parents, labels)
    got = simple_tree_profile(binarize(t))
    assert got == tree_profile(t)
    assert got.min_ones.tolist() == tree_extremes(parents, labels, min)
    assert got.max_ones.tolist() == tree_extremes(parents, labels, max)
    assert weighted_tree_max_sums(LabeledTree(parents, weights)).tolist() == \
        tree_extremes(parents, weights, max)


# ---------------------------------------------------------------------------
# the small / large boundary

@pytest.mark.parametrize("n", [SMALL - 1, SMALL, SMALL + 1])
@pytest.mark.parametrize("shape", [path_parents, star_parents, caterpillar_parents,
                                   complete_binary_parents])
def test_whole_tree_at_the_small_bound(shape, n):
    _check(shape(n), seed=n)


@pytest.mark.parametrize("n", [SMALL - 1, SMALL, SMALL + 1])
def test_subtrees_at_the_small_bound(n):
    rng = random.Random(n)
    for _ in range(5):
        # a root over subtrees of sizes n, SMALL and a few random ones
        parents = [-1]
        for size in (n, SMALL, rng.randint(1, 3 * SMALL)):
            parents = _stack(parents, random_parents(rng, size), 0)
        _check(parents, seed=rng.random())


def test_small_dummies_and_stars():
    # a star's dummy spine crosses the small bound; leaves are small
    for n in (2 * SMALL, 5 * SMALL + 3):
        _check(star_parents(n), seed=n)
        _check(_stack(path_parents(SMALL + 2), star_parents(n), SMALL + 1), seed=n)


def _comb_parents(n, tooth=3):
    # a spine whose every node carries a path of ``tooth`` nodes
    par = [-1]
    spine = 0
    while len(par) < n:
        par += [spine] + list(range(len(par), len(par) + tooth - 1))
        if len(par) < n:
            par.append(spine)
            spine = len(par) - 1
    return par[:n]


def _small_step_nodes(bt):
    """(size, real, a missing child) of every node the small step computes:
    the nodes of at most SMALL real nodes outside a chain with a large top."""
    def member(v):
        return v < bt.n_real and bt.right[v] < 0
    seen = set()
    for v in range(bt.n_total):
        top = v
        while member(top) and bt.parent[top] >= 0 and member(bt.parent[top]):
            top = int(bt.parent[top])
        if bt.size[v] <= SMALL and not (member(v) and bt.size[top] > SMALL):
            seen.add((int(bt.size[v]), v < bt.n_real, bool(bt.right[v] < 0)))
    return seen


def test_small_step_reads_every_round_from_the_store():
    # every small size, with real nodes of two children and of a missing
    # one and with dummies, alone and hung under a large node beside a
    # sibling (its parent a dummy); 0/1 against micro-macro and enumeration,
    # every sink array against the plain DP, weights against enumeration
    rng = random.Random(29)
    top = complete_binary_parents(3 * SMALL)
    seen = set()
    for shape in (path_parents, star_parents, _comb_parents, caterpillar_parents,
                  complete_binary_parents):
        for n in range(SMALL - 1, SMALL + 3):
            for parents in (shape(n), _stack(top, shape(n), 0)):
                labels = random_bits(rng, len(parents))
                t = LabeledTree(parents, labels)
                bt = binarize(t)
                seen |= _small_step_nodes(bt)
                got = []
                profile = simple_tree_profile(bt, sink=got.append)
                assert profile == tree_profile(t)
                lows = anchored_arrays(parents, labels, min)
                highs = anchored_arrays(parents, labels, max)
                assert all(a.dtype == np.int64 for a in got)
                assert sorted(a.tolist() for a in got) == \
                    sorted([lows[v] for v in lows] + [highs[v] for v in highs])
                weights = [rng.randint(-2, 2) for _ in parents]
                want = tree_extremes(parents, weights, max)
                if len(parents) <= SMALL + 2:
                    assert profile == enumerate_connected_oracle(t, max_n=SMALL + 2)
                    want = enumerate_max_sums(LabeledTree(parents, weights), max_n=SMALL + 2)
                assert weighted_tree_max_sums(LabeledTree(parents, weights)).tolist() == \
                    list(want)
    for s in range(1, SMALL + 1):
        assert (s, True, True) in seen
        assert s < 2 or (s, False, False) in seen
        assert s < 3 or (s, True, False) in seen


# ---------------------------------------------------------------------------
# unary chains

def test_chain_at_the_root():
    rng = random.Random(3)
    for length in (1, 2, 5, 40):
        _check(_stack(path_parents(length), random_parents(rng, 3 * SMALL), length - 1),
               seed=length)


def test_chain_of_length_one():
    # root -> (a, b); a's only child heads a large binary subtree
    big = complete_binary_parents(2 * SMALL)
    parents = _stack(_stack([-1, 0], big, 1), big, 0)
    assert parents.count(1) == 1
    _check(parents, seed=1)


def test_chain_above_a_small_child():
    # the chain's bottom child has exactly SMALL nodes; on a path the chain
    # runs down to the leaf, and over a short path it takes in small nodes
    for below in (complete_binary_parents(SMALL), path_parents(SMALL),
                  star_parents(SMALL),
                  _stack(path_parents(10), complete_binary_parents(10), 9)):
        _check(_stack(path_parents(25), below, 24), seed=25)


def test_chain_above_a_large_child():
    rng = random.Random(5)
    for below in (complete_binary_parents(3 * SMALL), random_parents(rng, 4 * SMALL)):
        _check(_stack(path_parents(30), below, 29), seed=30)


def test_chains_between_binary_nodes():
    # a binary node, a chain, a binary node, a chain, a leaf's path
    mid = _stack(path_parents(20), complete_binary_parents(SMALL + 5), 19)
    parents = _stack(_stack([-1], mid, 0), path_parents(SMALL + 10), 0)
    _check(parents, seed=7)
    _check(_stack(path_parents(15), parents, 14), seed=8)


def test_a_01_chain_starts_once_at_every_run(monkeypatch):
    # under MIN the ones row of a chain starts at its 0-runs and the zeros
    # row at its 1-runs, so the two rows together take each run start once;
    # the pair sweep, which would take both rows, is turned off
    calls = []

    def recording(pref, ring, starts, ends, sweep=strings._run_sweep):
        calls.append(starts.tolist())
        return sweep(pref, ring, starts, ends)

    monkeypatch.setattr(strings, "_run_sweep", recording)
    for name, value in NO_PAIR_SWEEP.items():
        monkeypatch.setattr(strings, name, value)
    n = 700
    bits = random_bits(random.Random(17), n)
    assert simple_tree_profile(binarize(LabeledTree(path_parents(n), bits))) == \
        naive_profile(bits)
    ones_row, zeros_row = calls
    assert sorted(ones_row + zeros_row) == \
        [0] + [b for b in range(1, n) if bits[b] != bits[b - 1]]


def test_paths_against_the_string_sweep():
    # a weighted path of 4096 nodes is a chain long enough for the bound
    # sweep's pruned reads, with i.i.d. and with drifted weights
    rng = random.Random(11)
    for n in (1, 2, SMALL, SMALL + 1, 3 * SMALL, 700, 4096):
        bits = random_bits(rng, n)
        assert simple_tree_profile(binarize(LabeledTree(path_parents(n), bits))) == \
            naive_profile(bits)
        for lo, hi in ((-9, 9), (0, 9)):
            weights = [rng.randint(lo, hi) for _ in range(n)]
            assert weighted_tree_max_sums(LabeledTree(path_parents(n), weights)).tolist() == \
                naive_weighted_max_sums(weights).tolist()


# ---------------------------------------------------------------------------
# joins in the value domain

def _steps(rng, width, density):
    """A row that starts at 0 and steps by 1 with the given density, else 0."""
    return np.concatenate([[0], np.cumsum(rng.random(width - 1) < density)])


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_value_domain_join(dtype):
    rng = np.random.default_rng(7)
    widths = [1, 2, 3, 40, _WIDE, _WIDE + 1, 300]
    pairs = [(a, b) for a in widths for b in widths] + \
        [tuple(rng.integers(1, 400, 2)) for _ in range(20)]
    for lx, ly in pairs:
        # an all-0 row (an inverse of 1 entry) and an all-1 row (of lx)
        # beside mixed ones, so rows of one stack pad to the longest
        for dx, dy in ((0.0, 1.0), (1.0, 0.0), (0.5, 0.2), (rng.random(), rng.random())):
            x = np.stack([_steps(rng, lx, dx), _steps(rng, lx, 1 - dx)]).astype(dtype)
            y = np.stack([_steps(rng, ly, dy), _steps(rng, ly, rng.random())]).astype(dtype)
            gx, gy = _inverse(x), _inverse(y)
            assert gx.dtype == dtype and (np.diff(gx[:, :int(x[:, -1].min()) + 1]) > 0).all()
            got = _combine_by_counts(gx, gy, None, False)
            want = np.empty((2, lx + ly - 1), dtype=dtype)
            _conv_tiled(x, y, MIN, want)
            assert got.dtype == dtype and np.array_equal(got, want), (lx, ly, dx, dy)
            for k in range(2):
                assert got[k].tolist() == min_plus_convolution(x[k], y[k]).tolist()
            lab = np.array([[1], [0]], dtype=dtype)
            assert np.array_equal(_combine_by_counts(gx, gy, lab, True),
                                  _combine(MIN, x, y, lab, True))


def _binary_profile_and_arrays(t):
    arrays = []
    return simple_tree_profile(binarize(t), sink=arrays.append), sorted(a.tolist() for a in arrays)


def test_value_domain_starts_above_wide(monkeypatch):
    # a root over two subtrees of a and b real nodes joins arrays of a + 1
    # and b + 1 entries: in the value domain only if both pass _WIDE
    calls = []

    def recording(gx, gy, lab, real, join=_combine_by_counts):
        calls.append((int(gx[0, -1]) + 1, int(gy[0, -1]) + 1))
        return join(gx, gy, lab, real)

    monkeypatch.setattr(trees, "_combine_by_counts", recording)
    rng = random.Random(19)
    for a, b in ((_WIDE - 1, _WIDE - 1), (_WIDE - 1, _WIDE), (_WIDE, _WIDE), (_WIDE, 3 * _WIDE)):
        parents = _stack(_stack([-1], complete_binary_parents(a), 0), random_parents(rng, b), 0)
        calls.clear()
        _check(parents, seed=a + b)
        assert ((a + 1, b + 1) in calls) == (min(a, b) >= _WIDE), (a, b, calls)


def test_value_domain_joins_keep_every_array(monkeypatch):
    # at _WIDE = 1 every large node with two children joins them in the
    # value domain, small children included; profiles and every sink
    # array stay the same
    rng = random.Random(23)
    shapes = (random_parents(rng, 6 * SMALL), complete_binary_parents(5 * SMALL),
              star_parents(3 * SMALL), caterpillar_parents(4 * SMALL),
              _stack(path_parents(40), complete_binary_parents(3 * SMALL), 39))
    for parents in shapes:
        for density in (0.0, 0.1, 0.5, 1.0):
            t = LabeledTree(parents, random_bits(rng, len(parents), density))
            monkeypatch.setattr(trees, "_WIDE", len(parents) + 1)
            want = _binary_profile_and_arrays(t)
            monkeypatch.setattr(trees, "_WIDE", 1)
            assert _binary_profile_and_arrays(t) == want


@pytest.mark.parametrize("hi", [2 ** 14 - 2, 2 ** 14 - 1])
def test_value_domain_at_the_int16_switch(hi, monkeypatch):
    # Trees of hi ones and hi zeros, hi on both sides of the int16 switch,
    # against the size domain. In a random tree the sums reach 2 hi. In the
    # skewed one, a 1-labelled root joins a path of a 0 over hi - 1 ones and
    # a path of hi - 1 zeros: the first one's zeros row has the inverse
    # [0, hi, hi, ...], the shorter operand by a tie, which meets the
    # padding at output 0, where the true value is 0. There the padded
    # cells hold hi + MAX.sentinel_in(int16), just below 0 in int16. The
    # profile does not show that join's output, so it is also checked on
    # its own.
    rng = random.Random(hi)
    bits = [1] * hi + [0] * hi
    rng.shuffle(bits)
    skewed = _stack(_stack([-1], path_parents(hi), 0), path_parents(hi - 1), 0)
    skewed_bits = [1, 0] + [1] * (hi - 1) + [0] * (hi - 1)
    for parents, labels in ((random_parents(rng, 2 * hi), bits), (skewed, skewed_bits)):
        rows = np.array([labels, [1 - b for b in labels]])
        dtype = sum_dtype(rows)
        assert dtype == (np.int16 if hi < 2 ** 14 - 1 else np.int32)
        bt = binarize(LabeledTree(parents, labels))
        got = simple_tree_profile(bt)
        monkeypatch.setattr(trees, "_WIDE", len(labels) + 1)
        assert simple_tree_profile(bt) == got
        monkeypatch.undo()
    # the root join's operands, the paths' arrays as (ones, zeros) rows
    size = np.arange(hi + 1)
    x = np.stack([np.maximum(size - 1, 0), np.minimum(size, 1)]).astype(dtype)
    y = np.stack([np.zeros(hi, dtype=int), size[:hi]]).astype(dtype)
    lab = np.array([[1], [0]], dtype=dtype)
    assert np.array_equal(_combine_by_counts(_inverse(x), _inverse(y), lab, True),
                          _combine(MIN, x, y, lab, True))


# ---------------------------------------------------------------------------
# small trees against enumeration

def test_small_trees_against_enumeration():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 12)
        parents = random_parents(rng, n)
        labels = random_bits(rng, n, rng.choice((0.1, 0.5, 0.9)))
        weights = [rng.randint(-9, 9) for _ in range(n)]
        mins, maxs = subtree_profile(parents, labels)
        p = simple_tree_profile(binarize(LabeledTree(parents, labels)))
        assert (p.min_ones.tolist(), p.max_ones.tolist()) == (mins, maxs)
        t = LabeledTree(parents, weights)
        want = subtree_max_sums(parents, weights)
        assert weighted_tree_max_sums(t).tolist() == want
        assert enumerate_max_sums(t).tolist() == want


# ---------------------------------------------------------------------------
# dtypes

def test_dtype_switch_points():
    def dtype_of(lo, hi):
        return sum_dtype(np.array([[lo, hi]]))
    # the sweep keeps sums inside half of the dtype's range
    assert dtype_of(0, 2 ** 14 - 2) == np.int16
    assert dtype_of(0, 2 ** 14 - 1) == np.int32
    assert dtype_of(-(2 ** 13), 2 ** 13 - 2) == np.int16
    assert dtype_of(-(2 ** 13), 2 ** 13 - 1) == np.int32
    assert dtype_of(0, 2 ** 30 - 2) == np.int32
    assert dtype_of(0, 2 ** 30 - 1) == np.int64
    assert sum_dtype(np.array([[0, 5]])) == np.int16
    assert sum_dtype(np.array([[0, 2 ** 31]])) == np.int64


@pytest.mark.parametrize("ones", [2 ** 14 - 2, 2 ** 14 - 1])
def test_zero_one_paths_at_the_int16_switch(ones):
    # rows (ones, zeros) span max(#ones, #zeros); 3 zeros spread along
    n = ones + 3
    bits = [1] * n
    for at in (0, n // 3, n - 5):
        bits[at] = 0
    rows = np.array([bits, [1 - b for b in bits]])
    assert sum_dtype(rows) == (np.int16 if ones < 2 ** 14 - 1 else np.int32)
    t = LabeledTree(path_parents(n), bits)
    want = naive_profile(bits)
    assert simple_tree_profile(binarize(t)) == want
    # micro-macro in the same dtype: at r = sqrt(n) a micro tree's path
    # arrays hold the sentinel plus up to r labels, which only their clamp
    # keeps in range where a convolution's padding meets them
    for r in (2, math.isqrt(n - 1) + 1, n):
        assert tree_profile(t, r=r) == want, r
    # the halving reduction takes the same dtype from the labels, a
    # string's and signed weights' alike, and still returns int64
    got = recursive_profile(bits)
    assert got == want and got.min_ones.dtype == got.max_ones.dtype == np.int64
    for ws in (bits, [-b for b in bits]):
        sums = weighted_max_sums(ws)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, naive_weighted_max_sums(ws))


@pytest.mark.parametrize("span", [2 ** 14 - 2, 2 ** 14 - 1, 2 ** 15 - 1, 2 ** 15,
                                  2 ** 30 - 2, 2 ** 30 - 1, 2 ** 31 - 1, 2 ** 31])
def test_weighted_spans_at_the_switches(span):
    rng = random.Random(span)
    n = 64
    # positive weights sum to hi, negative ones to lo, hi - lo = span
    weights = [rng.randint(-9, 9) for _ in range(n)]
    weights[3] = weights[40] = 0
    hi = span // 2
    weights[3] = hi - sum(w for w in weights if w > 0)
    weights[40] = hi - span - sum(w for w in weights if w < 0)
    assert sum(w for w in weights if w > 0) - sum(w for w in weights if w < 0) == span
    for parents in (path_parents(n), random_parents(rng, n)):
        got = weighted_tree_max_sums(LabeledTree(parents, weights)).tolist()
        assert got == tree_extremes(parents, weights, max)
    assert weighted_tree_max_sums(LabeledTree(path_parents(n), weights)).tolist() == \
        naive_weighted_max_sums(weights).tolist()


def test_weighted_at_the_finite_bound_guard():
    n = 8
    edge = FINITE_BOUND // n
    for weights in ([edge] + [-3] * (n - 1), [-edge, 5] + [edge] * (n - 2)):
        for parents in (path_parents(n), star_parents(n), random_parents(random.Random(1), n)):
            got = weighted_tree_max_sums(LabeledTree(parents, weights)).tolist()
            assert got == tree_extremes(parents, weights, max)
    for weights in ([edge + 1] + [0] * (n - 1), [5] * (n - 1) + [-edge - 1]):
        with pytest.raises(ValueError, match="exact arithmetic"):
            weighted_tree_max_sums(LabeledTree(path_parents(n), weights))


# ---------------------------------------------------------------------------
# the sink

def test_sink_receives_every_real_node():
    rng = random.Random(17)
    shapes = (random_parents(rng, 5 * SMALL),
              _stack(path_parents(40), complete_binary_parents(3 * SMALL), 39),
              star_parents(2 * SMALL))
    for parents in shapes:
        labels = random_bits(rng, len(parents))
        got = []
        simple_tree_profile(binarize(LabeledTree(parents, labels)), sink=got.append)
        lows = anchored_arrays(parents, labels, min)
        highs = anchored_arrays(parents, labels, max)
        want = sorted([lows[v] for v in lows] + [highs[v] for v in highs])
        assert all(a.dtype == np.int64 for a in got)
        assert sorted(a.tolist() for a in got) == want


# ---------------------------------------------------------------------------
# the sink's arrays, read after the build returns

def _spine_parents(rng, sides):
    """A spine over a random subtree of 2 * SMALL nodes: the k-th spine node
    from the bottom has the spine below it and, beside it, random subtrees
    of sides[k] nodes, two of them (a dummy join) when sides[k] is a pair."""
    parents = random_parents(rng, 2 * SMALL)
    for side in sides:
        parents = _stack([-1], parents, 0)
        for size in side if isinstance(side, tuple) else (side,):
            parents = _stack(parents, random_parents(rng, size), 0)
    return parents


def _sink_arrays(parents, labels, ring):
    """Every array the sweep hands its sink, read after the sweep returns:
    0/1 labels as the rows (ones, zeros) under MIN, weights as one row
    under MAX."""
    bt = binarize(LabeledTree(parents, labels))
    rows = np.stack([bt.ones_w, bt.size_w - bt.ones_w]) if ring is MIN else bt.ones_w[None, :]
    got = []
    trees._tree_sweep(bt, rows, ring, sink=got.append)
    return sorted(tuple(map(tuple, a.tolist())) for a in got)


def _assert_sink_keeps_the_dp(parents, rng, weights=None):
    """The sink's arrays against the plain DP, 0/1 and weighted."""
    bits = random_bits(rng, len(parents))
    ones = anchored_arrays(parents, bits, min)
    zeros = anchored_arrays(parents, [1 - b for b in bits], min)
    assert _sink_arrays(parents, bits, MIN) == sorted(
        (tuple(ones[v]), tuple(zeros[v])) for v in ones)
    weights = weights or [rng.randint(-9, 9) for _ in parents]
    want = anchored_arrays(parents, weights, max)
    assert _sink_arrays(parents, weights, MAX) == sorted((tuple(a),) for a in want.values())


# a sweep that reused a buffer could hand the sink views that later joins
# overwrite; every array must still be the DP's once the build is done, on
# a caterpillar's and a comb's spine, a broom's dummy spine and the heavy
# paths of the others
@pytest.mark.parametrize("n", [SMALL + 1, SMALL + 2, 3 * SMALL, 7 * SMALL])
@pytest.mark.parametrize("shape", [path_parents, caterpillar_parents, broom_parents,
                                   _comb_parents, complete_binary_parents, "random"])
def test_sink_arrays_outlive_the_build(shape, n):
    rng = random.Random(n)
    parents = random_parents(rng, n) if shape == "random" else shape(n)
    _assert_sink_keeps_the_dp(parents, rng)


# a spine whose side subtrees give arrays of K - 1, K and K + 1 entries
# (K = _CONV_SHIFTS, one kernel block), alone and beside a second subtree
@pytest.mark.parametrize("side", [_CONV_SHIFTS - 2, _CONV_SHIFTS - 1, _CONV_SHIFTS])
def test_sink_arrays_beside_children_of_one_block(side):
    rng = random.Random(side)
    _assert_sink_keeps_the_dp(_spine_parents(rng, [side, 3, (side, 2), 1, side]), rng)


# label sums on both sides of the int16 switch (as in
# test_weighted_spans_at_the_switches) up a spine of small side subtrees
@pytest.mark.parametrize("span", [2 ** 14 - 2, 2 ** 14 - 1])
def test_sink_arrays_at_the_int16_switch(span):
    rng = random.Random(span)
    parents = _spine_parents(rng, [5, (3, 1), 20, 2, 1])
    weights = [rng.randint(-9, 9) for _ in parents]
    weights[1] = weights[2] = 0
    hi = span // 2
    weights[1] = hi - sum(w for w in weights if w > 0)
    weights[2] = hi - span - sum(w for w in weights if w < 0)
    rows = np.array([weights])
    assert sum_dtype(rows) == (np.int16 if span < 2 ** 14 - 1 else np.int32)
    _assert_sink_keeps_the_dp(parents, rng, weights)


# ---------------------------------------------------------------------------
# memory

def _path_text(n, seed):
    rng = random.Random(seed)
    return "\n".join([str(n)] + [f"{i} {rng.randint(0, 1)}" for i in range(n)]) + "\n"


# tracemalloc peaks (bytes) of the pipeline below, measured on the per-node
# sweep this one replaced (CPython 3.11, numpy 2.4)
PARENT_PEAK = {"random": 1_520_364, "path": 1_079_824}


@pytest.mark.parametrize("shape", ["random", "path"])
def test_build_pipeline_memory(shape, tmp_path):
    text = gen_tree(4096, 1) if shape == "random" else _path_text(4096, 1)
    out = os.path.join(tmp_path, "profile.csv")
    tracemalloc.start()
    try:
        parents, labels = parse_tree_text(text)
        write_profile_csv(simple_tree_profile(binarize(LabeledTree(parents, labels))), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_PEAK[shape]


# tracemalloc peaks of the two default builds of one random recursive tree
# of 4096 nodes, with size_w made on read: 657 KiB for the 0/1 build and
# 801 KiB for the weighted one (697 and 841 KiB with size_w stored); the
# bounds leave the margin of the other peak tests
@pytest.mark.parametrize("weighted, bound_kib", [(False, 760), (True, 925)],
                         ids=["zero-one", "weighted"])
def test_tree_build_memory_peak(weighted, bound_kib):
    parents, labels = parse_tree_text(gen_tree(4096, 1, weighted=weighted), weighted=weighted)
    tree = LabeledTree(parents, labels)

    def build():
        return weighted_tree_max_sums(tree) if weighted else simple_tree_profile(binarize(tree))

    build()   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < bound_kib
