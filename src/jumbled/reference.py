"""The reference backends, which no default build or query runs: the
paper's reductions (blocked_profile, a string by ring products in the
sweeps' number model, minplus.Ring.sentinel_in with no snap;
recursive_profile and weighted_max_sums, by midpoint halving; tree_profile,
a tree by micro-macro decomposition), the enumeration oracles, and
minplus's validated int64 products and convolutions, which snap to INF /
NEG_INF where they return. The package, strings, trees, minplus and cli
forward from here only the names their callers read through them (see
their lazy_names tables); every other name is imported from here."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minplus import (FINITE_BOUND, INF, MAX, MIN, NEG_INF, Ring, _conv_tiled, as_bits,
                      as_int64, narrow_dtype, positive_int, snap_min, sqrt_ceil, sum_dtype)
from .profiles import Profile
from .strings import (BinaryString, _as_string, _fold_into, _weight_prefix, _window_extremes,
                      naive_profile)
from .trees import (BinarizedTree, LabeledTree, _binary_profile, _check_binary_labels, _combine,
                    _machine_ints, binarize)


# element budget for broadcast temporaries (512 KiB at int64), in cache: 2^22
# took blocked_profile 1.1-1.2x as long at n = 16384-32768 (2-core x86 VM)
_CHUNK_ELEMS = 1 << 16


def _as_operand(x, ndim: int, what: str) -> np.ndarray:
    a = as_int64(x, what, ndim)
    ok = (np.abs(a) <= FINITE_BOUND) | (a == INF) | (a == NEG_INF)
    if not ok.all():
        raise ValueError(f"{what} has entries outside the finite bound that are not sentinels")
    return a


def _as_matrices(a, b):
    a = _as_operand(a, 2, "left matrix")
    b = _as_operand(b, 2, "right matrix")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a, b


def _product(a: np.ndarray, b: np.ndarray, ring: Ring, out: np.ndarray) -> np.ndarray:
    """The ring product of a and b, unsnapped, reduced into ``out`` chunk by
    chunk: as in the sweeps, a cell with no finite split lies beyond every
    finite sum, and none beyond ring.sentinel_in(out.dtype), which every cell
    of a product over no splits holds."""
    step = max(1, _CHUNK_ELEMS // max(1, a.shape[1] * b.shape[1]))
    for lo in range(0, a.shape[0], step):
        ring.fold.reduce(a[lo:lo + step, :, None] + b, axis=1, out=out[lo:lo + step],
                         initial=ring.sentinel_in(out.dtype))
    return out


def min_plus_product(a, b) -> np.ndarray:
    """C[i,j] = min_k A[i,k] + B[k,j], saturating at INF."""
    a, b = _as_matrices(a, b)
    return snap_min(_product(a, b, MIN, np.empty((a.shape[0], b.shape[1]), dtype=np.int64)))


def min_plus_product_tiled(a, b, tile: int = 64) -> np.ndarray:
    """Cache-tiled variant; bitwise identical to min_plus_product."""
    a, b = _as_matrices(a, b)
    tile = positive_int(tile, "tile")
    (p, q), r = a.shape, b.shape[1]
    out = np.full((p, r), INF, dtype=np.int64)
    for k0 in range(0, q, tile):
        for i0 in range(0, p, tile):
            for j0 in range(0, r, tile):
                dst = out[i0:i0 + tile, j0:j0 + tile]
                sums = a[i0:i0 + tile, k0:k0 + tile, None] + b[None, k0:k0 + tile, j0:j0 + tile]
                np.minimum(dst, sums.min(axis=1), out=dst)
    return snap_min(out)


def _as_vectors(u, v):
    u = _as_operand(u, 1, "left vector")
    v = _as_operand(v, 1, "right vector")
    if u.size == 0 or v.size == 0:
        raise ValueError("convolution operands must be non-empty")
    return u, v


def _conv_direct(u: np.ndarray, v: np.ndarray, ring: Ring) -> np.ndarray:
    u, v = sorted((u, v), key=np.size)
    out = np.full(u.size + v.size - 1, ring.sentinel, dtype=np.int64)
    for k in range(u.size):
        dst = out[k:k + v.size]
        ring.fold(dst, u[k] + v, out=dst)
    return ring.snap(out)


def min_plus_convolution(u, v) -> np.ndarray:
    """w[i] = min over k of u[k] + v[i-k] (0-based, len |u|+|v|-1)."""
    return _conv_direct(*_as_vectors(u, v), MIN)


def _diagonals(a: np.ndarray) -> np.ndarray:
    """The view [i, d] = a[i, i + d] of a C-contiguous (h, w) array, d <= w - h,
    so column d is diagonal d as far as the last row reaches; it writes through."""
    h, w = a.shape
    return np.ndarray((h, w - h + 1), a.dtype, a.data, 0, (a.strides[0] + a.itemsize, a.itemsize))


def _conv_blocked(u: np.ndarray, v: np.ndarray, ring: Ring) -> np.ndarray:
    """The paper's reduction of a convolution to products, unsnapped, as
    _product is. With t = ceil(sqrt(|v|)) and x[p, r] = u[p t + r], residue
    q < t is the product of x and z[r, c] = v[c t - r + q], a copy of a
    Toeplitz view of the padded v. Its cell [p, c] is a split of output cell
    (p + c) t + q, so down the stage's columns its diagonals reduce to out[q::t]."""
    u, v = sorted((u, v), key=np.size)
    t = sqrt_ceil(v.size)
    num_p, num_c = -(-u.size // t), -(-v.size // t) + 1
    x = np.pad(u, (0, num_p * t - u.size), constant_values=ring.sentinel).reshape(num_p, t)
    padded = np.pad(v, (t - 1, num_c * t - v.size), constant_values=ring.sentinel)
    out = np.empty(u.size + v.size - 1, dtype=np.int64)
    stage = np.full((num_p, num_p + num_c - 1), ring.sentinel, dtype=np.int64)
    for q in range(t):
        # z[r, c] = padded[q + c t + t - 1 - r]
        z = np.ascontiguousarray(padded[q:q + num_c * t].reshape(num_c, t).T[::-1])
        _product(x, z, ring, _diagonals(stage))
        dst = out[q::t]
        ring.fold.reduce(stage[:, :dst.size], axis=0, out=dst)
    return out


def min_plus_convolution_blocked(u, v) -> np.ndarray:
    """Same output as min_plus_convolution, evaluated through min-plus products."""
    return snap_min(_conv_blocked(*_as_vectors(u, v), MIN))


RECURSION_CUTOFF = 64


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive blocks T_0..T_{m-1} of length b (the last may be short)."""

    string: BinaryString
    b: int
    bounds: np.ndarray = field(init=False)  # block k spans [bounds[k], bounds[k+1])

    def __post_init__(self):   # b >= n is one block of n: clamped, so its bounds fit int64
        n = len(self.string)
        object.__setattr__(self, "b", min(positive_int(self.b, "block length"), n))
        object.__setattr__(self, "bounds", np.append(np.arange(0, n, self.b, dtype=np.int64), n))

    @property
    def m(self) -> int:
        return int(self.bounds.size - 1)


def make_block_partition(s, b: int) -> BlockPartition:
    return BlockPartition(_as_string(s), b)


def _edge_tables(p: BlockPartition, ring: Ring, dtype):
    """The edge tables of one ring over the prefix 1-counts P, in ``dtype``,
    with every block b cells wide, [s_i, s_i + b): left[i, k] = -P[s_i + k]
    (a suffix of b - k) and right[t, j] = P[s_j + t] (a prefix of t). Every
    entry past n, in either table, is ring.sentinel_in(dtype)."""
    pref = p.string.prefix_ones.astype(dtype, copy=False)
    past = np.full(p.b, ring.sentinel_in(dtype), dtype=dtype)
    at = p.bounds[:-1, None] + np.arange(p.b + 1)   # s_i + k
    return np.append(-pref, past)[at], np.append(pref, past)[np.ascontiguousarray(at.T)]


def _cross_table(left: np.ndarray, right: np.ndarray, length: int, ring: Ring,
                 out: np.ndarray) -> np.ndarray:
    """C_l[i, j] = ext over s + t = l of P[s_j + t] - P[s_i + b - s], one
    ring product of the edge tables' columns and rows for suffix s, prefix
    t, written into ``out``.

    Cell [i, j] is the extreme over windows of length l + (j - i - 1) b:
    across the blocks between when i < j, inside block i when i = j. Cells
    with no split are sentinels; those with i > j, or i = j and l <= b,
    hold no window."""
    b = right.shape[0] - 1
    lo, hi = max(0, length - b), min(length, b) + 1
    return _product(left[:, b - length + lo:b - length + hi], right[lo:hi], ring, out)


@dataclass(frozen=True)
class CrossBlockTables:
    """C_l[i,j]: extreme 1-count of a suffix of block i, the interior blocks,
    and a prefix of block j, with suffix+prefix length l; finite only i < j."""

    partition: BlockPartition
    min_tables: dict
    max_tables: dict

    def min_table(self, length: int) -> np.ndarray:
        return self.min_tables[length]

    def max_table(self, length: int) -> np.ndarray:
        return self.max_tables[length]


def build_cross_tables(p: BlockPartition) -> CrossBlockTables:
    below = np.tril_indices(p.m)

    def tables(ring):
        left, right = _edge_tables(p, ring, np.int64)
        out = {}
        for length in range(1, 2 * p.b + 1):
            table = np.empty((p.m, p.m), dtype=np.int64)
            out[length] = ring.snap(_cross_table(left, right, length, ring, table))
            table[below] = ring.sentinel   # windows inside a block, or none
        return out

    return CrossBlockTables(p, tables(MIN), tables(MAX))


def _blocked_sweep(p: BlockPartition, ring: Ring) -> np.ndarray:
    """Every window's extreme from the upper triangles of C_1..C_2b: a window
    whose first and last characters lie in blocks i <= j is a split of a
    suffix of block i and a prefix of block j, so cell [i, j] of C_l holds it
    at size l + s_j - s_i - b = l + (d - 1) b on diagonal d = j - i, in every
    row, the last block's included, as every block is b cells wide. So C_l,
    written into the left m columns of a buffer that pads its rows with
    sentinels, folds through _diagonals into every b-th size.

    Runs in the sweeps' number model: cells span [-n, n], and a sentinel
    plus an entry of the other table must stay beyond n, so the dtype holds
    +-2 (2n + 2); two sentinels, past n in both, add without overflow."""
    n, b, m = len(p.string), p.b, p.m
    dtype = narrow_dtype(-2 * n - 2, 2 * n + 2)
    out = np.full(n, ring.sentinel_in(dtype), dtype=dtype)
    left, right = _edge_tables(p, ring, dtype)
    table = np.full((m, 2 * m - 1), ring.sentinel_in(dtype), dtype=dtype)
    # block 0's own windows take lengths up to 2b, even when n < 2b
    for length in range(1, 2 * b + 1):
        _cross_table(left, right, length, ring, table[:, :m])
        d0 = 1 - (length - 1) // b   # diagonal 0 holds size length - b: none if length <= b
        dst = out[(length - 1) % b::b][:m - d0]
        ring.fold(dst, ring.reduce(_diagonals(table)[:, d0:d0 + dst.size], axis=0), out=dst)
    return out


def blocked_profile(s: BinaryString, b=None) -> Profile:
    s = _as_string(s)
    if b is None:
        b = sqrt_ceil(len(s))
    p = make_block_partition(s, b)
    if p.m == 1:
        return naive_profile(s)
    return Profile(_blocked_sweep(p, MIN), _blocked_sweep(p, MAX))


def _halving_sweep(pref: np.ndarray, ring: Ring, cutoff: int) -> np.ndarray:
    """Extreme window sums for every width: split at the midpoint, fold the
    windows that cross it with one convolution, recurse on the halves. The
    crossing sums are finite; only the convolution pads with the sentinel."""
    # below 1, a segment of length 1 would split into itself forever
    cutoff = positive_int(cutoff, "recursion cutoff")
    n = pref.size - 1
    dtype = sum_dtype(np.diff(pref))
    pref = pref.astype(dtype)
    out = np.full(n, ring.sentinel_in(dtype), dtype=dtype)
    leaves = {}   # base-case length -> start of each segment of that length
    # explicit stack; deep inputs must not hit the interpreter limit
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= cutoff:
            leaves.setdefault(hi - lo, []).append(lo)
            continue
        mid = (lo + hi) // 2
        stack.append((lo, mid))
        stack.append((mid, hi))
        # windows crossing mid: a characters to the left, c to the right
        u = pref[mid] - pref[mid - np.arange(mid - lo + 1)]
        v = pref[mid + np.arange(hi - mid + 1)] - pref[mid]
        crossing = np.empty(u.size + v.size - 1, dtype=dtype)
        _conv_tiled(u, v, ring, crossing)
        _fold_into(out, ring, crossing[1:])
    # the base cases of one length are the rows of one correlation
    for length, starts in leaves.items():
        rows = pref[np.add.outer(starts, np.arange(length + 1))]
        _fold_into(out, ring, ring.reduce(_window_extremes(rows, ring), axis=0))
    return out


def recursive_profile(s: BinaryString, cutoff: int = RECURSION_CUTOFF) -> Profile:
    pref = _as_string(s).prefix_ones
    return Profile(_halving_sweep(pref, MIN, cutoff), _halving_sweep(pref, MAX, cutoff))


def weighted_max_sums(weights, cutoff: int = RECURSION_CUTOFF) -> np.ndarray:
    """Maximum total weight over length-i windows, i = 1..n."""
    return _halving_sweep(_weight_prefix(weights), MAX, cutoff).astype(np.int64)


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
    dtype = sum_dtype(rows)
    sentinel = ring.sentinel_in(dtype)
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
            below = fs[0] if len(fs) == 1 else _combine(ring, *fs, 0, False)
        a0, a1 = {}, {}
        # children come before parents, so the path from x up to the top is
        # x and every node with a child in a1
        for v in nodes:
            kids = [c for c in (left[v], right[v]) if c >= 0 and micro_of[c] == mid]
            pair = [a0[c] for c in kids] + [trivial] * (2 - len(kids))
            lab, real = rows[:, v, None], v < n_real
            a0[v] = av = _combine(ring, *pair, lab, real)
            if real:
                _fold_into(best, ring, av[:, 1:])
            on = [i for i, c in enumerate(kids) if c in a1]
            if v == x:
                f = av.copy()
            elif on:
                f = _combine(ring, a1[kids[on[0]]], pair[1 - on[0]], lab, real)
            else:
                continue
            if real:   # a real node on the path is in every set through it
                f[:, 0] = sentinel
            a1[v] = ring.fold(f, sentinel, out=f)

        top = dec.tops[mid]
        ft = a0[top]
        if below is not None:
            gt = _combine(ring, a1[top], below, 0, False)
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
                _fold_into(best, ring, _combine(ring, ehat, below, 0, False)[:, 1:])
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
    dec = micro_macro(bt, r)
    return _binary_profile(bt, sink, lambda bt, *rest: _macro_sweep(bt, dec, *rest))


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
