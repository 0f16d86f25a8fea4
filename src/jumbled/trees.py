"""Profiles over connected subgraphs of {0,1}-labeled trees.

Pipeline: binarize the tree with size-free dummy nodes, then run a
bottom-up DP whose per-node arrays A_v give, for every subgraph size, the
extreme 1-count over connected sets anchored at v. Two backends fold those
arrays into a global profile:

* simple_tree_profile   one combine per node, O(n^2) total
* tree_profile          micro-macro decomposition; inside each micro tree
                        the simple DP, across micro trees chunked
                        convolutions through the boundary nodes

Global folds only take arrays of *real* (non-dummy) topmost nodes: a set
whose topmost node is a dummy joins two sibling branches without their
shared original parent, which is disconnected in the original tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitvec import RankBitvector
from .minplus import FINITE_BOUND, MAX, MIN, NAIVE_CONV_CUTOFF, Ring, _as_vectors
from .profiles import Profile

_TRIVIAL = np.zeros(1, dtype=np.int64)


def _post_order(children, root: int) -> list:
    # reversed preorder: every node appears after all of its descendants
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    order.reverse()
    return order


class LabeledTree:
    """Rooted tree; parents[v] = -1 marks the root. Labels are {0,1} for
    profile queries, arbitrary integers in weighted mode."""

    __slots__ = ("parents", "labels", "children", "root")

    def __init__(self, parents, labels):
        parents = np.asarray(parents, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        n = int(parents.size)
        if n < 1 or parents.ndim != 1:
            raise ValueError("need at least one node")
        if labels.shape != parents.shape:
            raise ValueError("labels and parents must have equal length")
        roots = np.flatnonzero(parents == -1)
        if roots.size != 1:
            raise ValueError(f"exactly one root required, found {roots.size}")
        if np.logical_or(parents < -1, parents >= n).any():
            raise ValueError("parent reference out of range")
        self.parents = parents
        self.labels = labels
        self.root = int(roots[0])
        children = [[] for _ in range(n)]
        for v in range(n):
            p = int(parents[v])
            if p >= 0:
                children[p].append(v)
        self.children = children
        if len(_post_order(children, self.root)) != n:
            raise ValueError("nodes unreachable from the root (cycle or forest)")

    @property
    def n(self) -> int:
        return int(self.parents.size)

    def post_order(self) -> list:
        return _post_order(self.children, self.root)

    def rerooted(self, new_root: int) -> "LabeledTree":
        n = self.n
        if not 0 <= new_root < n:
            raise ValueError("root out of range")
        adj = [list(c) for c in self.children]
        for v in range(n):
            p = int(self.parents[v])
            if p >= 0:
                adj[v].append(p)
        parents = np.full(n, -2, dtype=np.int64)
        parents[new_root] = -1
        stack = [new_root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if parents[w] == -2:
                    parents[w] = v
                    stack.append(w)
        return LabeledTree(parents, self.labels)


class BinarizedTree:
    """Every node has <= 2 children; original high-degree nodes are expanded
    into chains of dummy nodes with size_w = ones_w = 0, so subgraph sizes
    and 1-counts are preserved. Original ids are kept, dummies appended."""

    __slots__ = ("parent", "children", "size_w", "ones_w", "orig",
                 "root", "post_order", "n_real")

    def __init__(self, parent, children, size_w, ones_w, orig, root, n_real):
        self.parent = parent
        self.children = children
        self.size_w = size_w
        self.ones_w = ones_w
        self.orig = orig
        self.root = root
        self.n_real = n_real
        self.post_order = _post_order(children, root)

    @property
    def n_total(self) -> int:
        return len(self.children)

    def dummy_count(self) -> int:
        return self.n_total - self.n_real


def binarize(t: LabeledTree) -> BinarizedTree:
    n = t.n
    extra = sum(max(0, len(c) - 2) for c in t.children)
    total = n + extra
    parent = np.full(total, -1, dtype=np.int64)
    size_w = np.zeros(total, dtype=np.int64)
    ones_w = np.zeros(total, dtype=np.int64)
    orig = np.full(total, -1, dtype=np.int64)
    children = [[] for _ in range(total)]
    size_w[:n] = 1
    ones_w[:n] = t.labels
    orig[:n] = np.arange(n)
    nxt = n
    for v in range(n):
        kids = t.children[v]
        if len(kids) <= 2:
            children[v] = list(kids)
            for c in kids:
                parent[c] = v
            continue
        holder = v
        for i, c in enumerate(kids[:-2]):
            d = nxt
            nxt += 1
            children[holder] = [c, d]
            parent[c] = holder
            parent[d] = holder
            holder = d
        children[holder] = list(kids[-2:])
        for c in kids[-2:]:
            parent[c] = holder
    return BinarizedTree(parent, children, size_w, ones_w, orig, t.root, n)


class CorruptedProfileError(ValueError):
    """An A_v array violated the {0,1}-step invariant."""


class DeltaBits:
    """A_v stored as its difference bits; entries come back via rank."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = bits if isinstance(bits, RankBitvector) else RankBitvector(bits)

    def __len__(self) -> int:
        return len(self.bits)

    def value_at(self, i: int) -> int:
        # A[i] is the number of 1-steps in positions 0..i
        return self.bits.rank1(i + 1)

    def decode(self) -> np.ndarray:
        return np.cumsum(self.bits.to_array(), dtype=np.int64)


def encode_delta(a_v) -> DeltaBits:
    arr = np.asarray(a_v, dtype=np.int64)
    if arr.size < 1 or arr[0] != 0:
        raise CorruptedProfileError("profile array must start at 0")
    steps = np.diff(arr)
    if steps.size and (steps.min() < 0 or steps.max() > 1):
        raise CorruptedProfileError("profile array has steps outside {0,1}")
    bits = np.concatenate([np.zeros(1, dtype=np.uint8), steps.astype(np.uint8)])
    return DeltaBits(RankBitvector(bits))


def _combine(ring: Ring, a_u, a_w, lab: int, size_w: int, forced: bool = False):
    """One DP step: join two child arrays below a node.

    A real node consumes one unit of size and contributes its label; a dummy
    node consumes nothing. With forced=True the node cannot stand for the
    empty selection (used for arrays required to contain the cut node)."""
    core = ring.conv(a_u, a_w)
    if size_w:
        out = np.empty(core.size + 1, dtype=np.int64)
        out[0] = ring.sentinel if forced else 0
        out[1:] = core + lab
        return ring.snap(out)
    return core


def combine_children(a_u, a_w, lab: int, size_w: int = 1) -> np.ndarray:
    """Minimum-1s combine; a missing child is the trivial array [0]."""
    a_u, a_w = _as_vectors(a_u, a_w)
    return _combine(MIN, a_u, a_w, int(lab), int(size_w))


def _check_binary_labels(values: np.ndarray) -> None:
    if np.logical_or(values < 0, values > 1).any():
        raise ValueError("profile computation requires {0,1} labels")


def _simple_sweep(bt: BinarizedTree, ring: Ring, sink=None) -> np.ndarray:
    best = np.full(bt.n_real, ring.sentinel, dtype=np.int64)
    store = {}  # a child's array, kept only until its parent consumes it
    for v in bt.post_order:
        kids = bt.children[v]
        a_u = store.pop(kids[0]) if kids else _TRIVIAL
        a_w = store.pop(kids[1]) if len(kids) == 2 else _TRIVIAL
        a_v = _combine(ring, a_u, a_w, int(bt.ones_w[v]), int(bt.size_w[v]))
        if bt.size_w[v]:
            span = a_v.size - 1
            ring.fold(best[:span], a_v[1:], out=best[:span])
        if sink is not None:
            sink(a_v)
        store[v] = a_v
    return best


def simple_tree_profile(bt: BinarizedTree, sink=None) -> Profile:
    _check_binary_labels(bt.ones_w)
    return Profile(_simple_sweep(bt, MIN, sink), _simple_sweep(bt, MAX, sink))


MICRO_COUNT_CONSTANT = 8


@dataclass(frozen=True)
class MicroMacroDecomposition:
    """Disjoint connected micro trees of <= r nodes each. All edges leaving
    a micro tree go through its top node (to the parent) or through a single
    attach node (to the tops of child micro trees), so each micro tree has
    at most two boundary nodes. Micro ids are in bottom-up order: children
    precede parents; micro tree count <= max(1, 8 n / r)."""

    r: int
    micro_of: np.ndarray
    micros: list
    tops: list
    attaches: list
    boundaries: list


class _Comp:
    __slots__ = ("root", "nodes", "attach")

    def __init__(self, root, nodes, attach):
        self.root = root
        self.nodes = nodes
        self.attach = attach


def micro_macro(bt: BinarizedTree, r: int) -> MicroMacroDecomposition:
    if r < 1:
        raise ValueError("micro size bound must be >= 1")
    emitted = []
    pending = {}
    for v in bt.post_order:
        kids = [pending.pop(c) for c in bt.children[v]]
        if not kids:
            comp = _Comp(v, [v], None)
        elif len(kids) == 1:
            c = kids[0]
            if 1 + len(c.nodes) <= r:
                c.nodes.append(v)
                comp = _Comp(v, c.nodes, c.attach)
            else:
                emitted.append(c)
                comp = _Comp(v, [v], v)
        else:
            c1, c2 = kids
            if (1 + len(c1.nodes) + len(c2.nodes) <= r
                    and (c1.attach is None or c2.attach is None)):
                big, small = (c1, c2) if len(c1.nodes) >= len(c2.nodes) else (c2, c1)
                big.nodes.extend(small.nodes)
                big.nodes.append(v)
                comp = _Comp(v, big.nodes,
                             c1.attach if c1.attach is not None else c2.attach)
            else:
                # emitting a child makes v the attach node, so whatever merges
                # must itself be attach-free
                fits = [c for c in kids if 1 + len(c.nodes) <= r and c.attach is None]
                if fits:
                    keep = min(fits, key=lambda c: len(c.nodes))
                    emitted.append(c1 if keep is c2 else c2)
                    keep.nodes.append(v)
                    comp = _Comp(v, keep.nodes, v)
                else:
                    emitted.append(c1)
                    emitted.append(c2)
                    comp = _Comp(v, [v], v)
        pending[v] = comp
    emitted.append(pending.pop(bt.root))

    micro_of = np.full(bt.n_total, -1, dtype=np.int64)
    micros, tops, attaches = [], [], []
    for mid, comp in enumerate(emitted):
        micro_of[comp.nodes] = mid
        micros.append(comp.nodes)
        tops.append(comp.root)
        attaches.append(comp.attach)
    boundaries = []
    for mid, comp in enumerate(emitted):
        bset = set()
        for v in comp.nodes:
            p = int(bt.parent[v])
            if (p >= 0 and micro_of[p] != mid) or any(micro_of[c] != mid for c in bt.children[v]):
                bset.add(v)
        if len(bset) > 2:
            raise RuntimeError(f"micro tree {mid} has {len(bset)} boundary nodes")
        boundaries.append(tuple(sorted(bset)))
    return MicroMacroDecomposition(r, micro_of, micros, tops, attaches, boundaries)


def _chunked_conv(ring: Ring, u: np.ndarray, v: np.ndarray, floor: int) -> np.ndarray:
    """Convolution with the long side cut into chunks of the short side's
    span (at least `floor`), so every piece is a balanced product."""
    if u.size > v.size:
        u, v = v, u
    if u.size <= NAIVE_CONV_CUTOFF:
        return ring.conv(u, v)
    span = max(u.size - 1, floor, 1)
    if v.size <= span + 1:
        return ring.conv(u, v)
    out = np.full(u.size + v.size - 1, ring.sentinel, dtype=np.int64)
    for idx, base in enumerate(range(0, int(v.size), span)):
        seg = v[base:base + span + 1]
        if idx:
            # a split landing exactly on the seam belongs to the previous chunk
            seg = seg.copy()
            seg[0] = ring.sentinel
        w = ring.conv(u, seg)
        ring.fold(out[base:base + w.size], w, out=out[base:base + w.size])
    return out


def _macro_sweep(bt: BinarizedTree, dec: MicroMacroDecomposition, ring: Ring,
                 sink=None) -> np.ndarray:
    best = np.full(bt.n_real, ring.sentinel, dtype=np.int64)
    post_index = {v: i for i, v in enumerate(bt.post_order)}
    f_store = {}
    for mid, nodes in enumerate(dec.micros):
        top = dec.tops[mid]
        x = dec.attaches[mid]

        cut_kids = []
        if x is not None:
            cut_kids = [c for c in bt.children[x] if dec.micro_of[c] != mid]
        if cut_kids:
            fs = [f_store.pop(int(dec.micro_of[c])).decode() for c in cut_kids]
            below = fs[0] if len(fs) == 1 else _chunked_conv(ring, fs[0], fs[1], dec.r)
        else:
            below = None

        onpath = []
        if x is not None:
            w = x
            while True:
                onpath.append(w)
                if w == top:
                    break
                w = int(bt.parent[w])
        onset = set(onpath)
        path_child = {onpath[i + 1]: onpath[i] for i in range(len(onpath) - 1)}

        a0, a1 = {}, {}
        for v in sorted(nodes, key=post_index.__getitem__):
            kids = [c for c in bt.children[v] if dec.micro_of[c] == mid]
            u0 = a0[kids[0]] if kids else _TRIVIAL
            w0 = a0[kids[1]] if len(kids) == 2 else _TRIVIAL
            lab, sw = int(bt.ones_w[v]), int(bt.size_w[v])
            a0[v] = _combine(ring, u0, w0, lab, sw)
            if v in onset:
                if v == x:
                    if sw:
                        forced = a0[v].copy()
                        forced[0] = ring.sentinel
                    else:
                        forced = a0[v]  # a dummy cut holder adds no size
                else:
                    pc = path_child[v]
                    others = [c for c in kids if c != pc]
                    o0 = a0[others[0]] if others else _TRIVIAL
                    forced = _combine(ring, a1[pc], o0, lab, sw, forced=True)
                a1[v] = forced

        # sets that stay inside this micro tree, anchored at a real node
        for v in nodes:
            if bt.size_w[v]:
                av = a0[v]
                ring.fold(best[:av.size - 1], av[1:], out=best[:av.size - 1])

        if below is not None:
            # sets anchored at a real node here that continue below the cut
            forced_arrays = [a1[v] for v in onpath if bt.size_w[v]]
            if forced_arrays:
                width = max(a.size for a in forced_arrays)
                ehat = np.full(width, ring.sentinel, dtype=np.int64)
                for a in forced_arrays:
                    ring.fold(ehat[:a.size], a, out=ehat[:a.size])
                g = _chunked_conv(ring, ehat, below, dec.r)
                ring.fold(best[:g.size - 1], g[1:], out=best[:g.size - 1])

        ft = a0[top]
        if below is not None:
            gt = _chunked_conv(ring, a1[top], below, dec.r)
            merged = np.full(gt.size, ring.sentinel, dtype=np.int64)
            merged[:ft.size] = ft
            ring.fold(merged, gt, out=merged)
            ft = merged
        if sink is not None:
            sink(ft)
        f_store[mid] = encode_delta(ft)
    return best


def tree_profile(t: LabeledTree, r=None, sink=None) -> Profile:
    _check_binary_labels(t.labels)
    bt = binarize(t)
    if r is None:
        r = math.isqrt(bt.n_real - 1) + 1 if bt.n_real > 1 else 1
    dec = micro_macro(bt, int(r))
    return Profile(_macro_sweep(bt, dec, MIN, sink), _macro_sweep(bt, dec, MAX, sink))


def weighted_tree_max_sums(t: LabeledTree) -> np.ndarray:
    """result[i-1] = maximum weight sum over connected subgraphs of size i."""
    if max(-int(t.labels.min()), int(t.labels.max())) * t.n > FINITE_BOUND:
        raise ValueError("weight magnitudes too large for exact arithmetic")
    return _simple_sweep(binarize(t), MAX)


def feasible_size_sets(t: LabeledTree, max_n: int = 18) -> dict:
    """Exact {1-counts} per subgraph size by rooted enumeration.

    Exponential in spirit but bounded: per node at most (n+1)^2 distinct
    (size, ones) pairs survive deduplication."""
    if t.n > max_n:
        raise ValueError(f"enumeration refused for n={t.n} > {max_n}")
    _check_binary_labels(t.labels)
    k = t.n + 1
    zero = np.zeros(1, dtype=np.int64)
    codes = [None] * t.n
    collected = []
    for v in t.post_order():
        cur = np.array([k + int(t.labels[v])], dtype=np.int64)
        for c in t.children[v]:
            ext = np.concatenate([zero, codes[c]])
            cur = np.unique(cur[:, None] + ext[None, :])
            codes[c] = None
        codes[v] = cur
        collected.append(cur)
    allcodes = np.unique(np.concatenate(collected))
    sizes = allcodes // k
    ones = allcodes % k
    return {int(s): np.unique(ones[sizes == s]) for s in range(1, t.n + 1)}


def enumerate_connected_oracle(t: LabeledTree, max_n: int = 18) -> Profile:
    sets = feasible_size_sets(t, max_n)
    mins = np.array([sets[s].min() for s in range(1, t.n + 1)], dtype=np.int64)
    maxs = np.array([sets[s].max() for s in range(1, t.n + 1)], dtype=np.int64)
    return Profile(mins, maxs)
