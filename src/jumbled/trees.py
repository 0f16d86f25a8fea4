"""Profiles over connected subgraphs of {0,1}-labeled trees.

Pipeline: binarize the tree with size-free dummy nodes, then run a
bottom-up DP whose per-node arrays A_v give, for every subgraph size, the
extreme 1-count over connected sets anchored at v. Two backends fold those
arrays into a global profile:

* simple_tree_profile   the default: one batched sweep, O(n^2) cells total
* tree_profile          micro-macro decomposition; inside each micro tree
                        the per-node DP step _combine, across micro trees
                        joins through the boundary nodes by the same step

Both sweeps (_tree_sweep, _macro_sweep) run one ring over a matrix of label
rows. For 0/1 labels the rows are (ones, zeros) under MIN: the most 1s in a
set of size i is i minus its fewest 0s (_binary_profile, the front end of
both backends). weighted_tree_max_sums runs the batched sweep over one row
of weights under MAX. In the batched sweep, a chain of real nodes of at
most one child is a string: under a large top it takes one
strings._rle_sweep per row plus one convolution with the array below it
(the tree-to-string reduction in heavy-path form, as in Gagie, Hermelin,
Landau and Weimann, ESA 2013). The other subtrees of at most SMALL real
nodes are computed a size at a time, one padded convolution per size over a
compact store, and every other large node takes one DP step, _combine. A
0/1 step that joins two arrays of more than _WIDE entries runs in the
value domain (_combine_by_counts): each array becomes its inverse, the
largest size for each count, and the inverses take the same convolution
under MAX, about a quarter of the cells. Both sweeps run in
minplus.sum_dtype's narrow dtype and sentinel, no snap.

Global folds only take arrays of *real* (non-dummy) topmost nodes: a set
whose topmost node is a dummy joins two sibling branches without their
shared original parent, which is disconnected in the original tree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .minplus import (FINITE_BOUND, MAX, MIN, Ring, _conv_tiled, as_bits, as_int64,
                      narrow_dtype, positive_int, sqrt_ceil, sum_dtype)
from .profiles import Profile
from .strings import _fold_into, _rle_sweep


class LabeledTree:
    """Rooted tree; parents[v] = -1 marks the root. Labels are {0,1} for
    profile queries, arbitrary integers in weighted mode."""

    __slots__ = ("parents", "labels", "root", "_children")

    def __init__(self, parents, labels):
        parents = as_int64(parents, "parents")
        labels = as_int64(labels, "labels")
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
        self._children = None
        # pointer doubling: after k rounds every node has jumped 2^k steps
        # up, so only a node on a cycle misses the root
        up = parents.copy()
        up[self.root] = self.root
        for _ in range(n.bit_length()):
            up = up[up]
        if (up != self.root).any():
            raise ValueError("nodes unreachable from the root (cycle or forest)")

    @property
    def n(self) -> int:
        return int(self.parents.size)

    @property
    def children(self) -> list:
        """Child lists in increasing id order, made on first use."""
        if self._children is None:
            children = [[] for _ in range(self.n)]
            for v, p in enumerate(self.parents.tolist()):
                if p >= 0:
                    children[p].append(v)
            self._children = children
        return self._children

    def post_order(self) -> list:
        # reversed preorder: every node appears after all of its descendants
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        order.reverse()
        return order

    def rerooted(self, new_root: int) -> "LabeledTree":
        """The same tree rooted at ``new_root``: only the parents on the path
        from ``new_root`` up to the old root turn around."""
        if not 0 <= new_root < self.n:
            raise ValueError("root out of range")
        path = [new_root]
        while path[-1] != self.root:
            path.append(int(self.parents[path[-1]]))
        parents = self.parents.copy()
        parents[path[1:]] = path[:-1]
        parents[new_root] = -1
        return LabeledTree(parents, self.labels)


class BinarizedTree:
    """Every node has <= 2 children; original high-degree nodes are expanded
    into chains of dummy nodes with size_w = ones_w = 0, so subgraph sizes
    and 1-counts are preserved. Original ids are kept, dummies appended.

    The shape is held in int arrays: left[v] and right[v] (-1 for none; a
    single child is the left one), parent[v] (-1 at the root), post_order,
    which lists every node after all of its descendants, and size[v], the
    real nodes in v's subtree (size[-1] = 0 stands for a missing child)."""

    __slots__ = ("parent", "left", "right", "size_w", "ones_w", "root",
                 "post_order", "size", "n_real")

    def __init__(self, parent, left, right, ones_w, root, n_real):
        self.parent = parent
        self.left = left
        self.right = right
        self.size_w = (np.arange(left.size) < n_real).astype(np.int64)
        self.ones_w = ones_w
        self.root = root
        self.n_real = n_real
        self.post_order, self.size = _tour_order(parent, left, right, root, n_real)

    @property
    def n_total(self) -> int:
        return int(self.left.size)


def _machine_ints(a: np.ndarray) -> array:
    """An int64 array as a stdlib array: 8 bytes a node where a list holds
    an int object per node, for the loops that walk the tree in Python."""
    return array("q", a.tobytes())


def _tour_order(parent, left, right, root: int, n_real: int):
    """post_order and the real-node subtree sizes from one list ranking of
    the Euler tour (Tarjan and Vishkin, 1985): event v enters node v, event
    n + v leaves it, and pointer jumping (Wyllie, 1979) gives every event
    its distance to the tour's end in log2(2n) rounds of gathers."""
    n = left.size
    idx = narrow_dtype(0, 2 * n + 1)
    nodes = np.arange(n)
    sib = right[parent]   # leaving a left child enters its right sibling
    nxt = np.concatenate([np.where(left >= 0, left, n + nodes),
                          np.where((sib >= 0) & (sib != nodes), sib, n + parent)]).astype(idx)
    nxt[n + root] = n + root   # the tour ends on leaving the root
    dist = (nxt != np.arange(2 * n)).astype(idx)
    buf = np.empty_like(dist)
    for _ in range((2 * n - 1).bit_length()):
        dist += np.take(dist, nxt, out=buf, mode="clip")   # "raise" would buffer out
        np.take(nxt, nxt, out=buf, mode="clip")
        nxt, buf = buf, nxt
    pos = np.subtract(2 * n - 1, dist, out=dist)
    tour = np.empty(2 * n, dtype=idx)   # the events in tour order
    tour[pos] = np.arange(2 * n, dtype=idx)
    # the real nodes of a subtree are the real exits from its enter to its exit
    exits = tour >= n
    seen = np.cumsum(exits & (tour < n + n_real), dtype=idx)
    size = np.append(seen[pos[n:]] - seen[pos[:n]], idx(0))   # and 0 for a missing child
    return (tour[exits] - n).astype(np.int64), size


def binarize(t: LabeledTree) -> BinarizedTree:
    """Node v with children k_0 < ... < k_{d-1}, d > 2, keeps k_0 on the left
    and gets dummies D_1..D_{d-2} down its right spine: D_i holds k_i on the
    left and D_{i+1} on the right, and D_{d-2} holds k_{d-2} and k_{d-1}."""
    n = t.n
    kids = np.argsort(t.parents, kind="stable")[1:]   # grouped by parent, the root first
    par = t.parents[kids]
    deg = np.bincount(par, minlength=n)
    extra = np.maximum(deg - 2, 0)
    first_dummy = n + np.cumsum(extra) - extra
    total = n + int(extra.sum())
    rank = np.arange(n - 1) - (np.cumsum(deg) - deg)[par]   # position among siblings
    d = deg[par]
    step = np.minimum(rank, d - 2)
    holder = np.where(step <= 0, par, first_dummy[par] + step - 1)
    on_right = (rank == d - 1) & (d >= 2)
    left = np.full(total, -1, dtype=np.int64)
    right = np.full(total, -1, dtype=np.int64)
    parent = np.full(total, -1, dtype=np.int64)
    left[holder[~on_right]] = kids[~on_right]
    right[holder[on_right]] = kids[on_right]
    parent[kids] = holder
    dummies = np.arange(n, total)
    owner = np.repeat(np.arange(n), extra)
    above = np.where(dummies == first_dummy[owner], owner, dummies - 1)
    right[above] = dummies
    parent[dummies] = above
    ones_w = np.zeros(total, dtype=np.int64)
    ones_w[:n] = t.labels
    del kids, par, deg, extra, first_dummy, rank, d, step, holder, on_right, dummies, owner, above
    return BinarizedTree(parent, left, right, ones_w, t.root, n)


class CorruptedProfileError(ValueError):
    """An A_v array violated the {0,1}-step invariant."""


class DeltaBits:
    """A_v stored as its step bits (uint8) beside their running count, so
    an entry is one read."""

    __slots__ = ("bits", "_counts")

    def __init__(self, bits):
        bits = as_bits(bits).copy()   # never a view of the caller's array
        if bits.ndim != 1:
            raise ValueError("bits must be a one-dimensional sequence")
        bits.flags.writeable = False
        self.bits = bits
        # A[i] is the number of 1-steps in positions 0..i
        self._counts = np.cumsum(bits, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.bits.size)

    def value_at(self, i: int) -> int:
        if not 0 <= i < self.bits.size:
            raise IndexError(f"index {i} out of range [0, {self.bits.size})")
        return int(self._counts[i])

    def decode(self) -> np.ndarray:
        return self._counts.copy()


def _check_steps(a: np.ndarray) -> None:
    """Every row of ``a`` must start at 0 and step by 0 or 1."""
    if a.shape[-1] < 1 or (a[..., 0] != 0).any():
        raise CorruptedProfileError("profile array must start at 0")
    steps = a[..., 1:] - a[..., :-1]
    if steps.size and (steps.min() < 0 or steps.max() > 1):
        raise CorruptedProfileError("profile array has steps outside {0,1}")


def encode_delta(a_v) -> DeltaBits:
    arr = np.asarray(a_v, dtype=np.int64)
    _check_steps(arr)
    return DeltaBits(np.concatenate([[0], np.diff(arr)]).astype(np.uint8))


def _combine(ring: Ring, sentinel: int, x, y, lab, real: bool):
    """One DP step: join two child arrays below a node, along the last axis,
    in x's dtype with ``sentinel`` for an infeasible cell, and no snap.

    A real node consumes one unit of size and contributes its label ``lab``
    (a scalar, or a column for stacked rows); a dummy node consumes nothing.
    An array of one entry covers only the empty set and holds 0 in every
    row, the join's identity: the other operand is then taken as it is, and
    under a dummy node returned itself, not a copy."""
    if x.shape[-1] == 1:
        x, y = y, x
    if y.shape[-1] == 1 and not real:
        return x
    out = np.empty(x.shape[:-1] + (x.shape[-1] + y.shape[-1] - 1 + int(real),), dtype=x.dtype)
    core = out[..., 1:] if real else out
    if y.shape[-1] > 1:
        _conv_tiled(x, y, ring, sentinel, core)
        x = core
    if real:
        out[..., 0] = 0
        np.add(x, lab, out=core)
    return out


def _inverse(a: np.ndarray) -> np.ndarray:
    """g[k, c] = the largest i with a[k, i] <= c, for rows that start at 0
    and step by 0 or 1: strictly increasing in c, and L - 1 (L = a's width)
    from c = a[k, -1] on, so rows of other sums pad exactly to the widest.
    No temporary is wider than a's dtype."""
    r, width = a.shape
    sums = a[:, -1]
    g = np.full((r, int(sums.max()) + 1), width - 1, dtype=a.dtype)
    at = np.arange(width - 1, dtype=a.dtype)
    for k, m in enumerate(sums.tolist()):
        # below m, g[k, c] is where row k steps from c to c + 1
        g[k, :m] = at[a[k, 1:] != a[k, :-1]]
    return g


def _combine_by_counts(sentinel: int, gx, gy, lab, real: bool):
    """_combine under MIN in the value domain, for two stacks of rows that
    start at 0 and step by 0 or 1, given as their inverses (_inverse): the
    bounded monotone case of Chan and Lewenstein (STOC 2015). The batched
    sweep's 0/1 rows are such rows, and never hold the sentinel.

    T[k] <= c iff some c1 + c2 = c has gx[c1] + gy[c2] >= k, so the MIN
    convolution T comes from the MAX convolution G of the inverses:
    T[k] = #{c : G[c] < k}. G is strictly increasing until it reaches
    Lx + Ly - 2, so T steps up by one just after each G[c] below that: one
    mark per c and one cumsum. The ones and the zeros row split the sizes
    between them, so the inverses convolve in about a quarter of the cells
    of the rows.

    The MAX pass keeps the ring's sentinel, negated, which _conv_tiled pads
    only its longer operand with. Say the shorter inverse is x's: the larger
    of x's row sums, mx, is at most y's, my, and x's values are at most its
    size, ones_x + zeros_x. If my is y's ones, zeros_x <= mx <= ones_y, so
    that size is at most ones_x + ones_y <= hi, the tree's larger row sum;
    likewise if it is y's zeros. sum_dtype's dtype holds 2 hi + 2, so hi is
    below the half-range sentinel: a padded cell stays below 0, the least
    value of every output, and no sum leaves the dtype."""
    width = int(gx[0, -1]) + int(gy[0, -1]) + 1   # T's, Lx + Ly - 1
    g = np.empty((gx.shape[0], gx.shape[1] + gy.shape[1] - 1), dtype=gx.dtype)
    _conv_tiled(gx, gy, MAX, -sentinel, g)
    counts = np.count_nonzero(g < width - 1, axis=1).tolist()
    # out[0] = 0 and out[i] = lab + T[i - 1] for a real node: lab marks
    # out[1], and T's steps land one further on
    out = np.zeros((g.shape[0], width + int(real)), dtype=g.dtype)
    if real:
        out[:, 1] = lab[:, 0]
    g += 1 + int(real)
    for k, c in enumerate(counts):
        out[k, g[k, :c]] = 1
    return np.cumsum(out, axis=-1, dtype=out.dtype, out=out)


def _check_binary_labels(values: np.ndarray) -> None:
    if np.logical_or(values < 0, values > 1).any():
        raise ValueError("profile computation requires {0,1} labels")


# Subtrees of at most SMALL real nodes are batched by size; larger nodes are
# taken one at a time. On a random tree (n=4096), 95.3 / 96.7 / 97.6% of the
# 5127 binarized nodes are small at SMALL = 32 / 48 / 64; 16 and 24 built it
# slower. With the smaller child as block operand, 48 / 64 swept it in 0.94 /
# 0.96 of 32's time (0/1) and 0.97 / 0.95 (weighted), and perfbench
# tree-random build_s went 0.0388 -> 0.0370 s at 48 (10/10 pairs), but the
# build peak rose 7 / 13 KiB, and at 48 no chain of that tree is large.
SMALL = 32

# A 0/1 join of two arrays of more than _WIDE entries each convolves their
# inverses (_combine_by_counts): below it, two inverses, the marks and the
# cumsum (~60 us) cost more than the cells they save. Against size-domain
# joins only, interleaved in one process, a random 0/1 tree (n = 4096) built
# in 0.84 of the time at 128..256, 0.89 at 96, 0.92 at 48 and 64 (0.90 at
# 512 in another run); one of 16384 in 0.60 at 128 and 192, 0.66-0.69 at 64
# and 256.
_WIDE = 128


def _stored(store, off, size, nodes):
    """The arrays of ``nodes`` from _tree_sweep's store, one row of cells per
    node, padded to the widest with the sentinel in the store's last cell."""
    j = np.arange(int(size[nodes].max()) + 1)
    pad = store.shape[1] - 1
    return store[:, np.where(j <= size[nodes][:, None], off[nodes][:, None] + j, pad)]


def _tree_sweep(bt: BinarizedTree, rows: np.ndarray, ring: Ring, sink=None) -> np.ndarray:
    """best[k, i-1] = the ring's extreme sum of row k's labels over connected
    sets of i real nodes, for every row of ``rows`` (r x n_total labels).

    A_v[k, i] is the extreme over sets of i real nodes anchored at v. Three
    steps build every A_v, in a dtype fitted to the label sums:

    * chains under a large top: a run of real nodes of at most one child is
      a string, so its sets are windows of its label prefix sums (one
      strings._rle_sweep per row), or a suffix of it joined to a set
      anchored below it (one convolution). A 0/1 chain's rows are two-valued,
      so under MIN the ones row takes its windows from the starts of its
      0-runs and the zeros row from the starts of its 1-runs: one pass over
      the run starts between them. Rows of many runs take the gap sweep
      instead, the ones row over the gaps between its 0s and the zeros row
      over the gaps between its 1s.
    * other small nodes (subtree size <= SMALL), a size at a time: children
      are smaller than their parent, so every node of size s has its
      children ready; one padded convolution covers them all. Their arrays
      sit in one flat store, each exactly size + 1 cells wide.
    * other large nodes: one DP step (_combine) of their children's arrays.
      Under MIN (the 0/1 rows) a join of two arrays of more than _WIDE
      entries takes their inverses instead, and convolves them under MAX
      (_combine_by_counts): about a quarter of the cells.

    ``sink``, when given, receives A_v of every real node as an (r, .) array.
    """
    n_total, n_real = bt.n_total, bt.n_real
    r = rows.shape[0]
    dtype, sentinel = sum_dtype(rows, ring)
    labels = rows.astype(dtype)
    del rows   # the int64 rows are dropped once narrowed, if the caller made them
    best = np.full((r, n_real), sentinel, dtype=dtype)
    size = bt.size
    left, right = bt.left, bt.right
    real = np.arange(n_total) < n_real

    # A chain is a run of real nodes of at most one child, each the child of
    # the next; in post order its nodes are consecutive, bottom first. A
    # chain whose top is large goes whole through the chain step, its small
    # nodes included, so a path makes no small step at all.
    post = bt.post_order
    member = real[post] & (right[post] < 0)
    linked = np.zeros(n_total, dtype=bool)   # post[i + 1] is post[i]'s chain parent
    linked[:-1] = member[:-1] & member[1:] & (bt.parent[post[:-1]] == post[1:])
    ends = np.flatnonzero(~linked)   # chain tops and every node outside a chain
    firsts = np.append(0, ends[:-1] + 1)
    large_end = size[post[ends]] > SMALL
    in_large_chain = np.repeat(member[ends] & large_end, ends - firsts + 1)

    # the other small nodes sorted by size, real before dummy within a size
    small = post[(size[post] <= SMALL) & ~in_large_chain]
    small = small[np.argsort(2 * size[small] + ~real[small], kind="stable")]
    width = size[small] + 1
    off = np.zeros(n_total + 1, dtype=np.int64)   # off[-1] -> the trivial [0] at 0
    off[small] = 1 + np.cumsum(width) - width
    store = np.empty((r, 2 + int(width.sum())), dtype=dtype)
    store[:, 0] = 0
    store[:, -1] = sentinel
    counts = np.bincount(size[small], minlength=SMALL + 1)
    lo = 0
    for s in np.flatnonzero(counts).tolist():
        nodes = small[lo:lo + counts[s]]
        lo += counts[s]
        n_lev = nodes.size
        n_rl = int(real[nodes].sum())
        # each node's smaller child (often a leaf or none) is the block
        # operand; each side is padded only to its own widest child
        lc, rc = left[nodes], right[nodes]
        swap = size[lc] > size[rc]
        x = _stored(store, off, size, np.where(swap, rc, lc))
        y = _stored(store, off, size, np.where(swap, lc, rc))
        core = np.empty((r, n_lev, s + 1), dtype=dtype)
        _conv_tiled(x, y, ring, sentinel, core)
        del x, y
        base = int(off[nodes[0]])
        block = store[:, base:base + n_lev * (s + 1)].reshape(r, n_lev, s + 1)
        block[:, n_rl:] = core[:, n_rl:]
        if n_rl:
            block[:, :n_rl, 0] = 0
            np.add(core[:, :n_rl, :s], labels[:, nodes[:n_rl], None], out=block[:, :n_rl, 1:])
            ring.fold(best[:, :s], ring.reduce(block[:, :n_rl, 1:], axis=1), out=best[:, :s])
            if sink is not None:
                for k in range(n_rl):
                    sink(block[:, k])

    arrays = {}   # a large node's array, kept until its parent consumes it

    def array_of(v):
        if size[v] > SMALL:
            return arrays.pop(v)
        return store[:, off[v]:off[v] + size[v] + 1]

    for first, i in zip(firsts[large_end].tolist(), ends[large_end].tolist()):
        v = int(post[i])
        if member[i]:
            chain = post[first:i + 1][::-1]   # top first
            below = array_of(int(left[chain[-1]]))
            n_ch = chain.size
            prefix = np.zeros((r, n_ch + 1), dtype=dtype)
            np.cumsum(labels[:, chain], axis=1, out=prefix[:, 1:])
            for k in range(r):
                windows = _rle_sweep(prefix[k], labels[k, chain], ring)
                ring.fold(best[k, :n_ch], windows, out=best[k, :n_ch])
            # a suffix of the chain joined to a set anchored below it
            joined = np.empty((r, n_ch + below.shape[1] - 1), dtype=dtype)
            suffixes = prefix[:, n_ch:] - prefix[:, n_ch - 1::-1]
            _conv_tiled(suffixes, below, ring, sentinel, joined)
            ring.fold(best[:, :joined.shape[1]], joined, out=best[:, :joined.shape[1]])
            a_v = np.concatenate([prefix, prefix[:, n_ch:] + below[:, 1:]], axis=1)
            if sink is not None:
                for t in range(n_ch):
                    sink(a_v[:, t:] - prefix[:, t:t + 1])
        else:
            lc, rc = int(left[v]), int(right[v])
            if ring is MIN and min(size[lc], size[rc]) >= _WIDE:
                # the children's rows are freed once inverted, before the
                # convolution's buffers (a lower tracemalloc peak)
                a_v = _combine_by_counts(sentinel, _inverse(array_of(lc)), _inverse(array_of(rc)),
                                         labels[:, v, None], real[v])
            else:
                a_v = _combine(ring, sentinel, array_of(lc), array_of(rc), labels[:, v, None], real[v])
            if real[v]:
                _fold_into(best, ring, a_v[:, 1:])
                if sink is not None:
                    sink(a_v)
        arrays[v] = a_v
    return best


def _binary_profile(bt: BinarizedTree, sink=None, dec=None) -> Profile:
    """The 0/1 front end of both tree backends: one MIN pass over the rows
    (ones, zeros) of the batched sweep, or of the micro-macro sweep over
    ``dec``. ``sink`` receives a min-ones and a max-ones array for every
    real node (batched) or every micro tree's f array (micro-macro)."""
    _check_binary_labels(bt.ones_w)
    row_sink = None
    if sink is not None:
        def row_sink(a_v):
            sink(a_v[0].astype(np.int64))
            sink(np.arange(a_v.shape[1], dtype=np.int64) - a_v[1])
    # the rows are made in the call, so that the batched sweep frees them
    # once it has narrowed them
    if dec is None:
        best = _tree_sweep(bt, np.stack([bt.ones_w, bt.size_w - bt.ones_w]), MIN, row_sink)
    else:
        best = _macro_sweep(bt, dec, np.stack([bt.ones_w, bt.size_w - bt.ones_w]), MIN, row_sink)
    return Profile(best[0], np.arange(1, bt.n_real + 1, dtype=np.int64) - best[1])


def simple_tree_profile(bt: BinarizedTree, sink=None) -> Profile:
    return _binary_profile(bt, sink)


MICRO_COUNT_CONSTANT = 8


@dataclass(frozen=True)
class MicroMacroDecomposition:
    """Disjoint connected micro trees of <= r nodes each. All edges leaving
    a micro tree go through its top node (to the parent) or through a single
    attach node (to the tops of child micro trees), so each micro tree has
    at most two boundary nodes. Micro ids are in bottom-up order: children
    precede parents, as do the nodes listed in each micro tree; micro tree
    count <= max(1, 8 n / r)."""

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
    r = positive_int(r, "micro size bound")
    emitted = []
    pending = {}
    left, right = _machine_ints(bt.left), _machine_ints(bt.right)
    for v in _machine_ints(bt.post_order):
        kids = [pending.pop(c) for c in (left[v], right[v]) if c >= 0]
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
    # a boundary node is an end of an edge between two micro trees
    child = np.flatnonzero(bt.parent >= 0)
    cut = child[micro_of[child] != micro_of[bt.parent[child]]]
    ends = np.unique(np.concatenate([cut, bt.parent[cut]]))
    counts = np.bincount(micro_of[ends], minlength=len(emitted))
    if counts.max(initial=0) > 2:
        mid = int(np.argmax(counts > 2))
        raise RuntimeError(f"micro tree {mid} has {int(counts[mid])} boundary nodes")
    # ends is sorted, so a stable sort by micro tree keeps each tree's sorted
    by_micro = ends[np.argsort(micro_of[ends], kind="stable")].tolist()
    cuts = np.cumsum(counts).tolist()
    boundaries = [tuple(by_micro[lo:hi]) for lo, hi in zip([0] + cuts, cuts)]
    return MicroMacroDecomposition(r, micro_of, micros, tops, attaches, boundaries)


def _macro_sweep(bt: BinarizedTree, dec: MicroMacroDecomposition, rows: np.ndarray,
                 ring: Ring, sink=None) -> np.ndarray:
    """best as _tree_sweep gives it for 0/1 ``rows`` under MIN, micro tree by
    micro tree. In a micro tree, a0[v] holds the sets anchored at v that stay
    inside it, and a1[v] those that contain the path from v down to the
    attach node x, so they can go on below the cut; the f array, which
    ``sink`` receives, holds every set anchored at the top. Joins are
    _combine steps in sum_dtype's dtype. An a1 cell of sentinel plus path
    labels would overflow where a convolution's padding meets it, so a1 is
    clamped to the sentinel: a join with finite sums, at most hi, then stays
    at most sentinel + hi + 1 (a 0/1 label), inside the dtype."""
    n_rows, n_real = rows.shape[0], bt.n_real
    dtype, sentinel = sum_dtype(rows, ring)
    rows = rows.astype(dtype)
    best = np.full((n_rows, n_real), sentinel, dtype=dtype)
    trivial = np.zeros((n_rows, 1), dtype=dtype)
    left, right = _machine_ints(bt.left), _machine_ints(bt.right)
    micro_of = _machine_ints(dec.micro_of)
    f_store = {}
    for mid, nodes in enumerate(dec.micros):
        x, below = dec.attaches[mid], None
        if x is not None:   # an attach node always has a child cut below it
            fs = [f_store.pop(micro_of[c]) for c in (left[x], right[x])
                  if c >= 0 and micro_of[c] != mid]
            below = fs[0] if len(fs) == 1 else _combine(ring, sentinel, *fs, 0, False)
        a0, a1 = {}, {}
        # children come before parents, so the path from x up to the top is
        # x and every node with a child in a1
        for v in nodes:
            kids = [c for c in (left[v], right[v]) if c >= 0 and micro_of[c] == mid]
            pair = [a0[c] for c in kids] + [trivial] * (2 - len(kids))
            lab, real = rows[:, v, None], v < n_real
            a0[v] = av = _combine(ring, sentinel, *pair, lab, real)
            if real:
                _fold_into(best, ring, av[:, 1:])
            on = [i for i, c in enumerate(kids) if c in a1]
            if v == x:
                f = av.copy()
            elif on:
                f = _combine(ring, sentinel, a1[kids[on[0]]], pair[1 - on[0]], lab, real)
            else:
                continue
            if real:   # a real node on the path is in every set through it
                f[:, 0] = sentinel
            a1[v] = ring.fold(f, sentinel, out=f)

        top = dec.tops[mid]
        ft = a0[top]
        if below is not None:
            gt = _combine(ring, sentinel, a1[top], below, 0, False)
            # sets anchored at a real node on the path that continue below the
            # cut; the path's arrays widen upward, so the last is the widest.
            # A top that is the only real node on the path gives gt's join
            forced = [v for v in a1 if v < n_real]
            if forced == [top]:
                _fold_into(best, ring, gt[:, 1:])
            elif forced:
                ehat = a1[forced[-1]].copy()
                for v in forced[:-1]:
                    _fold_into(ehat, ring, a1[v])
                _fold_into(best, ring, _combine(ring, sentinel, ehat, below, 0, False)[:, 1:])
            _fold_into(gt, ring, ft)
            ft = gt
        _check_steps(ft)
        if sink is not None:
            sink(ft)
        f_store[mid] = ft
    return best


def tree_profile(t: LabeledTree, r=None, sink=None) -> Profile:
    bt = binarize(t)
    if r is None:
        r = sqrt_ceil(bt.n_real)
    return _binary_profile(bt, sink, micro_macro(bt, r))


def weighted_tree_max_sums(t: LabeledTree) -> np.ndarray:
    """result[i-1] = maximum weight sum over connected subgraphs of size i."""
    if max(-int(t.labels.min()), int(t.labels.max())) * t.n > FINITE_BOUND:
        raise ValueError("weight magnitudes too large for exact arithmetic")
    bt = binarize(t)
    return _tree_sweep(bt, bt.ones_w[None, :], MAX)[0].astype(np.int64)


def feasible_size_sets(t: LabeledTree, max_n: int = 18) -> dict:
    """Exact {label sums} per subgraph size by rooted enumeration; labels
    may be signed. A set of s nodes with label sum x has the code s*k + x,
    with k one more than the span of possible sums, so codes add like sets
    join and decode after an offset by the least possible sum.

    Exponential in spirit but bounded: per node at most (n+1) * k distinct
    (size, sum) pairs survive deduplication."""
    if t.n > max_n:
        raise ValueError(f"enumeration refused for n={t.n} > {max_n}")
    lo = int(np.minimum(t.labels, 0).sum())
    k = int(np.maximum(t.labels, 0).sum()) - lo + 1
    if (t.n + 1) * k > FINITE_BOUND:
        raise ValueError("label sums too large for exact enumeration")
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
    allcodes = np.unique(np.concatenate(collected)) - lo
    sizes = allcodes // k
    sums = allcodes % k + lo
    return {int(s): np.unique(sums[sizes == s]) for s in range(1, t.n + 1)}


def enumerate_connected_oracle(t: LabeledTree, max_n: int = 18) -> Profile:
    _check_binary_labels(t.labels)
    sets = feasible_size_sets(t, max_n)
    mins = np.array([sets[s].min() for s in range(1, t.n + 1)], dtype=np.int64)
    maxs = np.array([sets[s].max() for s in range(1, t.n + 1)], dtype=np.int64)
    return Profile(mins, maxs)


def enumerate_max_sums(t: LabeledTree, max_n: int = 18) -> np.ndarray:
    """The weighted oracle: result[i-1] = the largest sum in size i's set."""
    sets = feasible_size_sets(t, max_n)
    return np.array([sets[s].max() for s in range(1, t.n + 1)], dtype=np.int64)
