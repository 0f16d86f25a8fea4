"""Profiles over connected subgraphs of {0,1}-labeled trees.

Pipeline: binarize the tree with size-free dummy nodes, then run a
bottom-up DP whose per-node arrays A_v give, for every subgraph size, the
extreme 1-count over connected sets anchored at v. Two backends fold those
arrays into a global profile:

* simple_tree_profile   the default: one batched sweep, O(n^2) cells total
* tree_profile          micro-macro decomposition; inside each micro tree
                        the per-node DP step _combine, across micro trees
                        joins through the boundary nodes by the same step.
                        It is defined in reference.py with encode_delta,
                        feasible_size_sets and enumerate_connected_oracle,
                        each imported when first read from this module

Both sweeps (_tree_sweep, _macro_sweep) run one ring over a matrix of label
rows. For 0/1 labels the rows are (ones, zeros) under MIN: the most 1s in a
set of size i is i minus its fewest 0s (_binary_profile, the front end of
both backends). weighted_tree_max_sums runs the batched sweep over one row
of weights under MAX. In the batched sweep, a chain of real nodes of at
most one child is a string: under a large top it takes one
strings._rle_sweep per row plus one convolution with the array below it
(the tree-to-string reduction in heavy-path form, as in Gagie, Hermelin,
Landau and Weimann, ESA 2013). The other subtrees of at most SMALL real
nodes are computed a size at a time, one padded convolution per size over
windows of a compact store, and every other large node takes one DP step,
_combine. A 0/1 step that joins two arrays of more than _WIDE entries runs
in the value domain (_combine_by_counts): each array becomes its inverse,
the largest size for each count, and the inverses take the same
convolution under MAX, about a quarter of the cells. Both sweeps run in
minplus.sum_dtype's narrow dtype and its Ring.sentinel_in, no snap.

Global folds only take arrays of *real* (non-dummy) topmost nodes: a set
whose topmost node is a dummy joins two sibling branches without their
shared original parent, which is disconnected in the original tree.
"""

from __future__ import annotations

from array import array

import numpy as np

from .minplus import (MAX, MIN, Ring, _check_weights, _conv_tiled, as_int64, lazy_names,
                      narrow_dtype, sum_dtype)
from .profiles import Profile
from .strings import _fold_into, _rle_sweep

__getattr__ = lazy_names(__name__, {".reference": (
    "encode_delta tree_profile feasible_size_sets enumerate_connected_oracle")})


class LabeledTree:
    """Rooted tree; parents[v] = -1 marks the root. Labels are {0,1} for
    profile queries, arbitrary integers in weighted mode."""

    __slots__ = ("parents", "labels", "root", "_children")

    def __init__(self, parents, labels):
        parents = as_int64(parents, "parents", 1)
        labels = as_int64(labels, "labels", 1)
        n = int(parents.size)
        if n < 1:
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

    __slots__ = ("parent", "left", "right", "ones_w", "root", "post_order", "size", "n_real")

    def __init__(self, parent, left, right, ones_w, root, n_real):
        self.parent = parent
        self.left = left
        self.right = right
        self.ones_w = ones_w
        self.root = root
        self.n_real = n_real
        self.post_order, self.size = _tour_order(parent, left, right, root, n_real)

    @property
    def n_total(self) -> int:
        return int(self.left.size)

    @property
    def size_w(self) -> np.ndarray:
        """1 for a real node, 0 for a dummy (int64), made on each read: only
        the 0/1 build reads it, once."""
        return (np.arange(self.left.size) < self.n_real).astype(np.int64)


def _machine_ints(a: np.ndarray) -> array:
    """An int64 array as a stdlib array: 8 bytes a node where a list holds
    an int object per node, for the loops that walk the tree in Python."""
    return array("q", a.tobytes())


def _tour_order(parent, left, right, root: int, n_real: int):
    """post_order and the real-node subtree sizes from one list ranking of
    the Euler tour (Tarjan and Vishkin, 1985): event v enters node v, event
    n + v leaves it, and pointer jumping (Wyllie, 1979) gives every event
    its distance to the tour's end in log2(2n) rounds of gathers. An event
    holds (distance << b) | successor in one int64, so a round is one gather;
    both fields take b bits, 2b <= 62 for every tree that fits in memory."""
    n = left.size
    idx = narrow_dtype(0, 2 * n + 1)
    b = (2 * n).bit_length()
    nodes = np.arange(n)
    sib = right[parent]   # leaving a left child enters its right sibling
    packed = np.concatenate([np.where(left >= 0, left, n + nodes),
                             np.where((sib >= 0) & (sib != nodes), sib, n + parent)])
    del nodes, sib
    packed |= 1 << b   # every event is one step from its successor,
    packed[n + root] = n + root   # but the tour ends on leaving the root
    low = (1 << b) - 1
    nxt, buf = np.empty_like(packed), np.empty_like(packed)
    for _ in range((2 * n - 1).bit_length()):
        np.bitwise_and(packed, low, out=nxt)
        np.take(packed, nxt, out=buf, mode="clip")   # "raise" would buffer out
        packed &= ~low   # the distance plus the successor's (distance, successor)
        packed += buf
    packed >>= b
    pos = np.subtract(2 * n - 1, packed, out=packed)
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


def _combine(ring: Ring, x, y, lab, real: bool):
    """One DP step: join two child arrays below a node, along the last axis,
    in x's dtype with Ring.sentinel_in for an infeasible cell, and no snap.

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
        _conv_tiled(x, y, ring, core)
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


def _combine_by_counts(gx, gy, lab, real: bool):
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

    The MAX pass takes MAX's sentinel, which _conv_tiled pads only its
    longer operand with. Say the shorter inverse is x's: the larger
    of x's row sums, mx, is at most y's, my, and x's values are at most its
    size, ones_x + zeros_x. If my is y's ones, zeros_x <= mx <= ones_y, so
    that size is at most ones_x + ones_y <= hi, the tree's larger row sum;
    likewise if it is y's zeros. sum_dtype's dtype holds 2 hi + 2, so hi is
    below the half-range sentinel: a padded cell stays below 0, the least
    value of every output, and no sum leaves the dtype."""
    width = int(gx[0, -1]) + int(gy[0, -1]) + 1   # T's, Lx + Ly - 1
    g = np.empty((gx.shape[0], gx.shape[1] + gy.shape[1] - 1), dtype=gx.dtype)
    _conv_tiled(gx, gy, MAX, g)
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
      sit in one flat store, each exactly size + 1 cells wide, then a tail of
      SMALL + 1 sentinels, so that a round reads each side as one gather of
      windows of SMALL + 1 cells, masked past each child's size. The early
      rounds are stacks of more rows than cells, which _conv_tiled runs
      rows-innermost; the leaves' round is written as [0, label].
    * other large nodes: one DP step (_combine) of their children's arrays.
      Under MIN (the 0/1 rows) a join of two arrays of more than _WIDE
      entries takes their inverses instead, and convolves them under MAX
      (_combine_by_counts): about a quarter of the cells.

    ``sink``, when given, receives A_v of every real node as an (r, .) array.
    """
    n_total, n_real = bt.n_total, bt.n_real
    r = rows.shape[0]
    dtype = sum_dtype(rows)
    sentinel = ring.sentinel_in(dtype)
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
    store = np.full((r, 2 + int(width.sum()) + SMALL), sentinel, dtype=dtype)   # tail: SMALL + 1
    store[:, 0] = 0
    off = np.zeros(n_total + 1, dtype=narrow_dtype(0, store.shape[1]))   # off[-1] -> [0] at 0
    off[small] = 1 + np.cumsum(width) - width
    # every round's per-node work in one pass: each node's smaller child
    # (often a leaf or none) is the block operand, the other the long one
    sizes, starts, counts = np.unique(size[small], return_index=True, return_counts=True)
    reals = np.add.reduceat(real[small], starts).tolist()
    sides = [(off[kid], size[kid].astype(np.int16)) for kid in (left[small], right[small])]
    swap = sides[0][1] > sides[1][1]
    for a, b in zip(*sides):
        a[swap], b[swap] = b[swap], a[swap]
    widest = [np.maximum.reduceat(kid_size, starts).tolist() for _, kid_size in sides]
    lab = labels[:, small]
    del small, width, swap
    # windows of SMALL + 1 cells: a child's array, then cells of the arrays
    # after it or of the tail, which the gather masks to the sentinel
    windows = np.lib.stride_tricks.sliding_window_view(store, SMALL + 1, axis=-1)
    cell = np.arange(SMALL + 1, dtype=np.int16)

    def gather(side, nodes, w):   # the children's arrays, padded to the side's widest, w
        kid_off, kid_size = side
        a = windows[:, kid_off[nodes], :w + 1]
        np.copyto(a, sentinel, where=cell[:w + 1] > kid_size[nodes, None])
        return a

    base = 1
    for s, lo, n_lev, n_rl, wx, wy in zip(sizes.tolist(), starts.tolist(), counts.tolist(),
                                          reals, *widest):
        block = store[:, base:base + n_lev * (s + 1)].reshape(r, n_lev, s + 1)
        base += n_lev * (s + 1)
        if s == 1:   # the leaves: [0, label]
            core = np.zeros((r, n_lev, 1), dtype=dtype)
        else:
            nodes = slice(lo, lo + n_lev)
            core = np.empty((r, n_lev, s + 1), dtype=dtype)
            _conv_tiled(gather(sides[0], nodes, wx), gather(sides[1], nodes, wy), ring, core)
            block[:, n_rl:] = core[:, n_rl:]
        if n_rl:
            block[:, :n_rl, 0] = 0
            np.add(core[:, :n_rl, :s], lab[:, lo:lo + n_rl, None], out=block[:, :n_rl, 1:])
            ring.fold(best[:, :s], ring.reduce(block[:, :n_rl, 1:], axis=1), out=best[:, :s])
            if sink is not None:
                for k in range(n_rl):
                    sink(block[:, k])
    del sides, lab, windows, sizes, starts, counts
    arrays = {}   # a large node's array, kept until its parent consumes it

    def array_of(v):
        if size[v] > SMALL:
            return arrays.pop(v)
        return store[:, off[v]:off[v] + size[v] + 1]

    # numpy indices, not int lists: a list holds an int object per large
    # node, 14 KiB at the tree-random build's peak
    for first, i in zip(firsts[large_end], ends[large_end]):
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
            _conv_tiled(suffixes, below, ring, joined)
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
                a_v = _combine_by_counts(_inverse(array_of(lc)), _inverse(array_of(rc)),
                                         labels[:, v, None], real[v])
            else:
                a_v = _combine(ring, array_of(lc), array_of(rc), labels[:, v, None], real[v])
            if real[v]:
                _fold_into(best, ring, a_v[:, 1:])
                if sink is not None:
                    sink(a_v)
        arrays[v] = a_v
    return best


def _binary_profile(bt: BinarizedTree, sink=None, sweep=None) -> Profile:
    """The 0/1 front end of both tree backends: one MIN pass over the rows
    (ones, zeros), by the batched sweep or by reference.tree_profile's
    micro-macro sweep, called as _tree_sweep is. ``sink`` receives a
    min-ones and a max-ones array for every real node (batched) or every
    micro tree's f array (micro-macro)."""
    _check_binary_labels(bt.ones_w)
    row_sink = None
    if sink is not None:
        def row_sink(a_v):
            sink(a_v[0].astype(np.int64))
            sink(np.arange(a_v.shape[1], dtype=np.int64) - a_v[1])
    # the rows are made in the call, so that the batched sweep frees them
    # once it has narrowed them
    best = (sweep or _tree_sweep)(bt, np.stack([bt.ones_w, bt.size_w - bt.ones_w]), MIN, row_sink)
    return Profile(best[0], np.arange(1, bt.n_real + 1, dtype=np.int64) - best[1])


def simple_tree_profile(bt: BinarizedTree, sink=None) -> Profile:
    return _binary_profile(bt, sink)


def weighted_tree_max_sums(t: LabeledTree) -> np.ndarray:
    """result[i-1] = maximum weight sum over connected subgraphs of size i."""
    _check_weights(t.labels)
    bt = binarize(t)
    return _tree_sweep(bt, bt.ones_w[None, :], MAX)[0].astype(np.int64)
