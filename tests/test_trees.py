import math
import random

import numpy as np
import pytest

from jumbled import trees
from jumbled.minplus import MIN
from jumbled.trees import (
    CorruptedProfileError, DeltaBits, LabeledTree, MICRO_COUNT_CONSTANT,
    _combine, _macro_sweep, binarize, encode_delta, enumerate_connected_oracle,
    feasible_size_sets, micro_macro, simple_tree_profile, tree_profile,
    weighted_tree_max_sums,
)
from _support import (
    broom_parents, caterpillar_parents, complete_binary_parents, path_parents,
    random_parents, rerooted_parents, star_parents, subtree_max_sums, subtree_profile,
    tree_adj,
)


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree([], [])
    with pytest.raises(ValueError):
        LabeledTree([-1, -1], [0, 0])        # two roots
    with pytest.raises(ValueError):
        LabeledTree([1, 0], [0, 0])          # cycle
    with pytest.raises(ValueError):
        LabeledTree([-1, 5], [0, 0])         # parent out of range
    with pytest.raises(ValueError):
        LabeledTree([-1], [0, 1])            # length mismatch


def test_post_order_parents_last():
    t = LabeledTree(complete_binary_parents(7), [0] * 7)
    order = t.post_order()
    seen = set()
    for v in order:
        for c in t.children[v]:
            assert c in seen
        seen.add(v)
    assert seen == set(range(7))


# ---------------------------------------------------------------------------
# binarization

def _kids(bt, v):
    return [int(c) for c in (bt.left[v], bt.right[v]) if c >= 0]


def _assert_binary_shape(bt):
    # every node but the root hangs from exactly one side of its parent, no
    # other child slot is filled, and a single child sits on the left
    child = np.flatnonzero(bt.parent >= 0)
    assert child.size == bt.n_total - 1
    above = bt.parent[child]
    assert ((bt.left[above] == child) ^ (bt.right[above] == child)).all()
    assert int((bt.left >= 0).sum() + (bt.right >= 0).sum()) == child.size
    assert ((bt.right < 0) | (bt.left >= 0)).all()


def test_binarize_keeps_binary_trees():
    t = LabeledTree(complete_binary_parents(7), [1, 0, 1, 0, 1, 0, 1])
    bt = binarize(t)
    assert bt.n_total - bt.n_real == 0
    assert bt.n_total == 7


def test_binarize_star_adds_one_dummy():
    t = LabeledTree(star_parents(4), [1, 0, 0, 0])
    bt = binarize(t)
    assert bt.n_total - bt.n_real == 1
    assert int(bt.size_w.sum()) == 4       # dummies weigh nothing
    assert int(bt.ones_w.sum()) == 1
    _assert_binary_shape(bt)


def test_binarize_degree_bound_and_weights():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 40)
        labels = [rng.randint(0, 1) for _ in range(n)]
        t = LabeledTree(random_parents(rng, n), labels)
        bt = binarize(t)
        _assert_binary_shape(bt)
        assert int(bt.size_w.sum()) == n
        assert int(bt.ones_w.sum()) == sum(labels)


def test_binarized_profile_equals_enumeration():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 12)
        labels = [rng.randint(0, 1) for _ in range(n)]
        parents = random_parents(rng, n)
        p = simple_tree_profile(binarize(LabeledTree(parents, labels)))
        mins, maxs = subtree_profile(parents, labels)
        assert p.min_ones.tolist() == mins
        assert p.max_ones.tolist() == maxs


# ---------------------------------------------------------------------------
# child merging

def test_combine_hand_example():
    a_u = np.array([0, 0, 1], dtype=np.int64)
    a_w = np.array([0, 1], dtype=np.int64)
    out = _combine(MIN, a_u, a_w, 1, True)
    # sizes 0..4; the size-4 set takes everything: 1 + 1 + 1
    assert out.tolist() == [0, 1, 1, 2, 3]


def test_combine_single_child_shift():
    a_u = np.array([0, 1, 1], dtype=np.int64)
    out = _combine(MIN, a_u, np.array([0], dtype=np.int64), 0, True)
    assert out.tolist() == [0, 0, 1, 1]    # A_v[i] = lab + A_u[i-1]


def test_leaf_base_case():
    t = LabeledTree([-1], [1])
    p = simple_tree_profile(binarize(t))
    assert p.min_ones.tolist() == [1]
    assert p.max_ones.tolist() == [1]


# ---------------------------------------------------------------------------
# full-tree sweep

def test_simple_profile_path_101():
    t = LabeledTree(path_parents(3), [1, 0, 1])
    p = simple_tree_profile(binarize(t))
    assert p.min_ones.tolist() == [0, 1, 2]
    assert p.max_ones.tolist() == [1, 1, 2]


def test_simple_profile_star():
    t = LabeledTree(star_parents(4), [1, 0, 0, 0])
    p = simple_tree_profile(binarize(t))
    assert p.min_ones.tolist() == [0, 1, 1, 1]
    assert p.max_ones.tolist() == [1, 1, 1, 1]


def test_simple_profile_single_zero_node():
    p = simple_tree_profile(binarize(LabeledTree([-1], [0])))
    assert p.min_ones.tolist() == [0]
    assert p.max_ones.tolist() == [0]


def test_simple_profile_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        simple_tree_profile(binarize(LabeledTree([-1, 0], [0, 5])))


def test_simple_profile_shaped_trees():
    rng = random.Random(15)
    for shape in (path_parents, star_parents, complete_binary_parents,
                  caterpillar_parents):
        for n in (1, 2, 3, 8, 13):
            labels = [rng.randint(0, 1) for _ in range(n)]
            parents = shape(n)
            p = simple_tree_profile(binarize(LabeledTree(parents, labels)))
            mins, maxs = subtree_profile(parents, labels)
            assert p.min_ones.tolist() == mins, (shape.__name__, n)
            assert p.max_ones.tolist() == maxs, (shape.__name__, n)


# ---------------------------------------------------------------------------
# delta-encoded retention

def test_delta_hand_examples():
    assert encode_delta([0, 1, 1, 2]).bits.tolist() == [0, 1, 0, 1]
    assert encode_delta([0, 0, 0]).bits.tolist() == [0, 0, 0]
    assert encode_delta([0, 1, 2]).bits.tolist() == [0, 1, 1]


def test_delta_round_trip_and_point_lookups():
    rng = random.Random(21)
    for _ in range(30):
        a = [0]
        for _ in range(rng.randint(0, 120)):
            a.append(a[-1] + rng.randint(0, 1))
        db = encode_delta(a)
        assert db.decode().tolist() == a
        assert len(db) == len(a)
        for i in range(len(a)):
            assert db.value_at(i) == a[i]


def test_delta_rejects_bad_steps():
    with pytest.raises(CorruptedProfileError):
        encode_delta([0, 2])
    with pytest.raises(CorruptedProfileError):
        encode_delta([0, 1, 0])
    with pytest.raises(CorruptedProfileError):
        encode_delta([1, 2])      # must start at zero


def test_macro_sweep_rejects_bad_steps():
    # a label row of 2s gives the bottom micro tree of a path the f array
    # [0, 2, 4], which no 0/1 labelling can produce
    bt = binarize(LabeledTree(path_parents(6), [0] * 6))
    rows = np.full((1, bt.n_total), 2, dtype=np.int64)
    with pytest.raises(CorruptedProfileError, match="steps"):
        _macro_sweep(bt, micro_macro(bt, 2), rows, MIN)


def test_delta_bits_direct():
    db = DeltaBits([0, 1, 0, 1])
    assert db.decode().tolist() == [0, 1, 1, 2]
    assert db.value_at(3) == 2


@pytest.mark.parametrize("bits", [[0, 2, 1], [0, 256, 1], [0, -1, 1], [[0, 1], [1, 0]]])
def test_delta_bits_refuse_non_bits(bits):
    # 256 and -1 are refused before the uint8 cast could wrap them
    with pytest.raises(ValueError):
        DeltaBits(bits)


def test_delta_bits_bounds_and_copies():
    src = np.array([0, 1, 1], dtype=np.uint8)
    db = DeltaBits(src)
    # a plain array read would wrap -1 to the last entry
    for i in (-1, len(db)):
        with pytest.raises(IndexError):
            db.value_at(i)
    out = db.decode()
    out[:] = 7
    src[:] = 0
    assert db.decode().tolist() == [0, 1, 2]
    assert db.bits.tolist() == [0, 1, 1]
    assert db.value_at(2) == 2


# ---------------------------------------------------------------------------
# micro-macro decomposition

def _assert_decomposition_invariants(bt, dec, r):
    total = bt.n_total
    # disjoint cover
    assert sorted(v for nodes in dec.micros for v in nodes) == list(range(total))
    for idx, nodes in enumerate(dec.micros):
        assert 1 <= len(nodes) <= max(r, 1)
        members = set(nodes)
        # connected inside the binarized tree
        inside_edges = sum(1 for v in nodes if bt.parent[v] in members)
        assert inside_edges == len(nodes) - 1
        assert len(dec.boundaries[idx]) <= 2
        # the boundary nodes are the ends of the edges leaving the micro tree
        leaving = [v for v in nodes if (bt.parent[v] >= 0 and bt.parent[v] not in members)
                   or any(c not in members for c in _kids(bt, v))]
        assert dec.boundaries[idx] == tuple(sorted(leaving))
        for v in nodes:
            assert dec.micro_of[v] == idx
        # children before parents: _macro_sweep walks each micro tree in
        # this order and reads its children's arrays
        position = {v: i for i, v in enumerate(nodes)}
        for v in nodes:
            assert all(position[c] < position[v] for c in _kids(bt, v) if c in members)
        # an attach node has a child in another micro tree
        if dec.attaches[idx] is not None:
            assert any(c not in members for c in _kids(bt, dec.attaches[idx]))
        # edges leaving the micro tree only via top (up) or attach (down)
        top = dec.tops[idx]
        for v in nodes:
            if v != top:
                assert bt.parent[v] in members
            for c in _kids(bt, v):
                if c not in members:
                    assert v == dec.attaches[idx]
    assert len(dec.micros) <= max(1, MICRO_COUNT_CONSTANT * total // max(r, 1))


def test_micro_macro_whole_tree_when_r_large():
    t = LabeledTree(random_parents(random.Random(3), 20), [0] * 20)
    bt = binarize(t)
    dec = micro_macro(bt, bt.n_total)
    assert len(dec.micros) == 1
    assert dec.boundaries[0] == ()   # nothing crosses out of a whole-tree micro


def test_micro_macro_path_of_five():
    bt = binarize(LabeledTree(path_parents(5), [0] * 5))
    dec = micro_macro(bt, 2)
    assert len(dec.micros) >= 3
    _assert_decomposition_invariants(bt, dec, 2)


def test_micro_macro_invariants_fuzz():
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(1, 120)
        bt = binarize(LabeledTree(random_parents(rng, n),
                                  [rng.randint(0, 1) for _ in range(n)]))
        for r in (1, 2, 4, 8):
            _assert_decomposition_invariants(bt, micro_macro(bt, r), r)


def test_micro_macro_rejects_bad_r():
    bt = binarize(LabeledTree([-1], [0]))
    with pytest.raises(ValueError):
        micro_macro(bt, 0)


# ---------------------------------------------------------------------------
# decomposed profile

def test_tree_profile_single_micro_matches_simple():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randint(1, 60)
        t = LabeledTree(random_parents(rng, n),
                        [rng.randint(0, 1) for _ in range(n)])
        assert tree_profile(t, r=n + 5) == simple_tree_profile(binarize(t))


def test_tree_profile_path_101_r1():
    t = LabeledTree(path_parents(3), [1, 0, 1])
    p = tree_profile(t, r=1)
    assert p.min_ones.tolist() == [0, 1, 2]
    assert p.max_ones.tolist() == [1, 1, 2]


def test_tree_profile_matches_simple():
    rng = random.Random(39)
    for _ in range(50):
        n = rng.randint(1, 300)
        t = LabeledTree(random_parents(rng, n),
                        [rng.randint(0, 1) for _ in range(n)])
        want = simple_tree_profile(binarize(t))
        for r in (1, 2, math.isqrt(n), n):
            if r < 1:
                continue
            assert tree_profile(t, r=r) == want, (n, r)


def test_tree_profile_shaped_trees():
    rng = random.Random(43)
    for shape in (path_parents, star_parents, complete_binary_parents,
                  caterpillar_parents):
        for n in (1, 2, 3, 9, 25):
            t = LabeledTree(shape(n), [rng.randint(0, 1) for _ in range(n)])
            want = simple_tree_profile(binarize(t))
            for r in (1, 3, n):
                assert tree_profile(t, r=r) == want, (shape.__name__, n, r)


def test_tree_profile_default_r():
    t = LabeledTree(random_parents(random.Random(45), 100),
                    [random.Random(46).randint(0, 1) for _ in range(100)])
    assert tree_profile(t) == simple_tree_profile(binarize(t))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("shape", ["random", "path"])
def test_micro_macro_never_convolves_with_the_empty_set(monkeypatch, shape, r):
    # a one-entry array covers only the empty set, the join's identity
    n = 300
    rng = random.Random(49)
    parents = random_parents(rng, n) if shape == "random" else path_parents(n)
    t = LabeledTree(parents, [rng.randint(0, 1) for _ in range(n)])
    shorter = []
    conv = trees._conv_tiled

    def counting(x, y, ring, out):
        shorter.append(min(x.shape[-1], y.shape[-1]))
        return conv(x, y, ring, out)

    monkeypatch.setattr(trees, "_conv_tiled", counting)
    got = tree_profile(t, r=r)
    monkeypatch.undo()   # the batched sweep convolves through the same kernel
    assert got == simple_tree_profile(binarize(t))
    assert shorter and min(shorter) > 1


@pytest.mark.parametrize("shape", [path_parents, random_parents, star_parents,
                                   caterpillar_parents])
def test_micro_macro_at_r1_makes_one_convolution_per_edge(monkeypatch, shape):
    # each micro tree is one node: a join of two children's arrays per
    # binarized node with two children, one join with the arrays below per
    # real node with a child, together n - 1; a top that is the only real
    # node on its path must not convolve the same pair a second time
    n = 60
    rng = random.Random(53)
    parents = shape(rng, n) if shape is random_parents else shape(n)
    t = LabeledTree(parents, [rng.randint(0, 1) for _ in range(n)])
    calls = []
    conv = trees._conv_tiled

    def counting(x, y, ring, out):
        calls.append(1)
        return conv(x, y, ring, out)

    monkeypatch.setattr(trees, "_conv_tiled", counting)
    got = tree_profile(t, r=1)
    assert len(calls) == n - 1
    monkeypatch.undo()
    assert got == simple_tree_profile(binarize(t))


# ---------------------------------------------------------------------------
# weighted trees

def test_weighted_tree_path_frozen():
    t = LabeledTree(path_parents(3), [2, -1, 3])
    assert weighted_tree_max_sums(t).tolist() == [3, 2, 4]


def test_weighted_tree_all_zero():
    t = LabeledTree(star_parents(5), [0] * 5)
    assert weighted_tree_max_sums(t).tolist() == [0] * 5


def test_weighted_tree_matches_enumeration():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 12)
        parents = random_parents(rng, n)
        weights = [rng.randint(-9, 9) for _ in range(n)]
        got = weighted_tree_max_sums(LabeledTree(parents, weights))
        assert got.tolist() == subtree_max_sums(parents, weights)


def test_weighted_tree_zero_one_matches_max_ones():
    rng = random.Random(49)
    for _ in range(15):
        n = rng.randint(1, 40)
        parents = random_parents(rng, n)
        labels = [rng.randint(0, 1) for _ in range(n)]
        t = LabeledTree(parents, labels)
        assert weighted_tree_max_sums(t).tolist() == \
            simple_tree_profile(binarize(t)).max_ones.tolist()


def test_weighted_tree_rejects_huge_weights():
    with pytest.raises(ValueError):
        weighted_tree_max_sums(LabeledTree([-1, 0], [2 ** 60, 1]))
    with pytest.raises(ValueError):   # np.abs(-2**63) wraps to itself
        weighted_tree_max_sums(LabeledTree([-1, 0], [-2 ** 63, 5]))


# ---------------------------------------------------------------------------
# enumeration oracle

def test_oracle_single_node():
    for lab in (0, 1):
        p = enumerate_connected_oracle(LabeledTree([-1], [lab]))
        assert p.min_ones.tolist() == [lab]
        assert p.max_ones.tolist() == [lab]


def test_oracle_frozen_shapes():
    p = enumerate_connected_oracle(LabeledTree(path_parents(3), [1, 0, 1]))
    assert p.min_ones.tolist() == [0, 1, 2]
    assert p.max_ones.tolist() == [1, 1, 2]
    p = enumerate_connected_oracle(LabeledTree(star_parents(4), [1, 0, 0, 0]))
    assert p.min_ones.tolist() == [0, 1, 1, 1]
    assert p.max_ones.tolist() == [1, 1, 1, 1]


def test_oracle_refuses_large_inputs():
    t = LabeledTree(path_parents(19), [0] * 19)
    with pytest.raises(ValueError):
        enumerate_connected_oracle(t)


def test_feasible_size_sets_match_bitmask():
    rng = random.Random(51)
    from _support import subtree_feasible_sets
    for _ in range(20):
        n = rng.randint(1, 10)
        parents = random_parents(rng, n)
        labels = [rng.randint(0, 1) for _ in range(n)]
        got = feasible_size_sets(LabeledTree(parents, labels))
        want = subtree_feasible_sets(parents, labels)
        assert {k: set(v) for k, v in got.items()} == want


@pytest.mark.parametrize("n", [1, 2, 3, 33, 4096])
@pytest.mark.parametrize("shape", [path_parents, star_parents, caterpillar_parents,
                                   broom_parents, complete_binary_parents])
def test_rerooted_matches_search(shape, n):
    parents = shape(n)
    t = LabeledTree(parents, [0] * n)
    for r in (0, n - 1, n // 2, random.Random(n).randrange(n)):
        assert t.rerooted(r).parents.tolist() == rerooted_parents(parents, r), r


def test_rerooted_matches_search_on_random_trees():
    # ids are shuffled, so the old root is seldom 0 and parents may follow
    # their children
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 60)
        ids = list(range(n))
        rng.shuffle(ids)
        parents = [-1] * n
        for v, p in enumerate(random_parents(rng, n)):
            if p >= 0:
                parents[ids[v]] = ids[p]
        r = rng.randrange(n)
        got = LabeledTree(parents, [0] * n).rerooted(r)
        assert got.root == r
        assert got.parents.tolist() == rerooted_parents(parents, r)


def test_rerooted_profile_is_invariant():
    # the profile is a property of the unrooted tree
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 30)
        t = LabeledTree(random_parents(rng, n),
                        [rng.randint(0, 1) for _ in range(n)])
        base = simple_tree_profile(binarize(t))
        other = t.rerooted(rng.randrange(n))
        assert simple_tree_profile(binarize(other)) == base
