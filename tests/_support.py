"""Brute-force oracles and input builders shared by the test modules.

Everything here is deliberately slow and loop-based so that it cannot share
a bug with the vectorized implementations under test.
"""

import random

import numpy as np


# ---------------------------------------------------------------------------
# string oracles

def window_profile(bits):
    """Per-size (min, max) 1-counts over all contiguous windows, by loops."""
    n = len(bits)
    mins = [None] * (n + 1)
    maxs = [None] * (n + 1)
    for lo in range(n):
        ones = 0
        for hi in range(lo, n):
            ones += bits[hi]
            size = hi - lo + 1
            if mins[size] is None or ones < mins[size]:
                mins[size] = ones
            if maxs[size] is None or ones > maxs[size]:
                maxs[size] = ones
    return mins[1:], maxs[1:]


def window_feasible_sets(bits):
    n = len(bits)
    sets = {i: set() for i in range(1, n + 1)}
    for lo in range(n):
        ones = 0
        for hi in range(lo, n):
            ones += bits[hi]
            sets[hi - lo + 1].add(ones)
    return sets


def window_max_sums(weights):
    n = len(weights)
    best = [None] * (n + 1)
    for lo in range(n):
        tot = 0
        for hi in range(lo, n):
            tot += weights[hi]
            size = hi - lo + 1
            if best[size] is None or tot > best[size]:
                best[size] = tot
    return best[1:]


# ---------------------------------------------------------------------------
# tropical oracles (treat None as the absorbing infinity)

def conv_oracle(u, v, maximize=False):
    pick = max if maximize else min
    out = []
    for k in range(len(u) + len(v) - 1):
        cands = [u[a] + v[k - a]
                 for a in range(len(u))
                 if 0 <= k - a < len(v)
                 and u[a] is not None and v[k - a] is not None]
        out.append(pick(cands) if cands else None)
    return out


def product_oracle(a, b, maximize=False):
    pick = max if maximize else min
    n, m = len(a), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            cands = [a[i][k] + b[k][j]
                     for k in range(len(b))
                     if a[i][k] is not None and b[k][j] is not None]
            row.append(pick(cands) if cands else None)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# index files

def csv_rows_one_at_a_time(header, *columns):
    """The CSV bytes of "%d" formatting, one row at a time: rows
    "size,values..." for size 1..n."""
    lines = [header + "\n"]
    for i in range(columns[0].size):
        lines.append(",".join(["%d" % (i + 1)] + ["%d" % c[i] for c in columns]) + "\n")
    return "".join(lines).encode()


def profile_csv_by_lines(path):
    """A profile CSV read in text mode, one line and one int() per field:
    (mins, maxs) as lists, or ParseError at the first line that breaks a
    rule, with the reader's messages. Trailing blank lines are dropped."""
    from jumbled.inputs import ParseError

    with open(path, "r") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "size,min_ones,max_ones":
        raise ParseError("expected header 'size,min_ones,max_ones'", 1)
    while len(lines) > 1 and not lines[-1].rstrip():
        lines.pop()
    if len(lines) == 1:
        raise ParseError("profile has no rows", 2)
    mins, maxs = [], []
    for ln in range(2, len(lines) + 1):
        line = lines[ln - 1]
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {line!r}", ln)
        try:
            size, lo, hi = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", ln) from None
        if size != ln - 1:
            raise ParseError(f"expected size {ln - 1}, got {size}", ln)
        if not (0 <= lo and lo <= hi and hi <= size):
            raise ParseError(f"requires 0 <= min <= max <= size, got {lo}, {hi}", ln)
        mins.append(lo)
        maxs.append(hi)
    return mins, maxs


# ---------------------------------------------------------------------------
# tree oracles (bitmask connectivity, fine up to n ~ 16)

def tree_adj(parents):
    adj = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    return adj


def rerooted_parents(parents, new_root):
    """The parent list of the same tree rooted at ``new_root``, by a search
    over the undirected adjacency from the new root."""
    adj = tree_adj(parents)
    out = [-2] * len(parents)
    out[new_root] = -1
    stack = [new_root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if out[w] == -2:
                out[w] = v
                stack.append(w)
    return out


def _connected_masks(parents):
    n = len(parents)
    adj = tree_adj(parents)
    for mask in range(1, 1 << n):
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                bit = 1 << w
                if mask & bit and not seen & bit:
                    seen |= bit
                    stack.append(w)
        if seen == mask:
            yield mask


def subtree_profile(parents, labels):
    n = len(parents)
    mins = [None] * (n + 1)
    maxs = [None] * (n + 1)
    for mask in _connected_masks(parents):
        size = mask.bit_count()
        ones = sum(labels[v] for v in range(n) if mask >> v & 1)
        if mins[size] is None or ones < mins[size]:
            mins[size] = ones
        if maxs[size] is None or ones > maxs[size]:
            maxs[size] = ones
    return mins[1:], maxs[1:]


def subtree_feasible_sets(parents, labels):
    n = len(parents)
    sets = {i: set() for i in range(1, n + 1)}
    for mask in _connected_masks(parents):
        ones = sum(labels[v] for v in range(n) if mask >> v & 1)
        sets[mask.bit_count()].add(ones)
    return sets


def subtree_max_sums(parents, weights):
    n = len(parents)
    best = [None] * (n + 1)
    for mask in _connected_masks(parents):
        tot = sum(weights[v] for v in range(n) if mask >> v & 1)
        size = mask.bit_count()
        if best[size] is None or tot > best[size]:
            best[size] = tot
    return best[1:]


# ---------------------------------------------------------------------------
# tree oracle by the plain DP over the original tree (pure Python, O(n^2))

def anchored_arrays(parents, weights, pick):
    """{v: A_v}: A_v[i] is pick (min or max) of the weight sums of the
    connected sets of i nodes that contain v and lie in v's subtree, and
    A_v[0] = 0 stands for the empty set."""
    children = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            children[p].append(v)
    order, stack = [], [parents.index(-1)]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    arrays = {}
    for v in reversed(order):
        cur = [weights[v]]   # cur[i]: sets of i + 1 nodes that contain v
        for c in children[v]:
            below = arrays[c]
            new = [None] * (len(cur) + len(below) - 1)
            for i, x in enumerate(cur):
                for j, y in enumerate(below):
                    k = i + j
                    new[k] = x + y if new[k] is None else pick(new[k], x + y)
            cur = new
        arrays[v] = [0] + cur
    return arrays


def tree_extremes(parents, weights, pick):
    """pick of the weight sums over connected sets of each size 1..n."""
    out = [None] * len(parents)
    for a in anchored_arrays(parents, weights, pick).values():
        for i in range(1, len(a)):
            out[i - 1] = a[i] if out[i - 1] is None else pick(out[i - 1], a[i])
    return out


# ---------------------------------------------------------------------------
# binarized-tree order and sizes

def binary_post_order(left, right, root):
    """Reversed preorder over children [left, right]: every node after all
    of its descendants, a left subtree before its right sibling's."""
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(c for c in (left[v], right[v]) if c >= 0)
    return order[::-1]


def real_descendant_counts(parent, n_real):
    """counts[v] = real nodes (ids below n_real) in v's subtree, with an
    extra 0 at the end, by walking every real node up to the root one step
    at a time (numpy over the nodes, O(n * depth))."""
    parent = np.asarray(parent)
    counts = np.zeros(parent.size + 1, dtype=np.int64)
    up = np.arange(n_real)
    while up.size:
        counts[:-1] += np.bincount(up, minlength=parent.size)
        up = parent[up]
        up = up[up >= 0]
    return counts


# ---------------------------------------------------------------------------
# tree shapes (parents are 0-based, root parent is -1)

def path_parents(n):
    return [-1] + list(range(n - 1))


def star_parents(n):
    return [-1] + [0] * (n - 1)


def complete_binary_parents(n):
    return [-1] + [(i - 1) // 2 for i in range(1, n)]


def caterpillar_parents(n):
    # spine on even indices, a leg hangs off each spine node
    par = [-1]
    for i in range(1, n):
        par.append(i - 1 if i % 2 else max(0, i - 2))
    return par


def broom_parents(n):
    # a handle of about n/2 nodes, the rest leaves on its last node
    handle = max(1, n // 2)
    return [-1] + list(range(handle - 1)) + [handle - 1] * (n - handle)


def random_parents(rng: random.Random, n: int):
    return [-1] + [rng.randrange(i) for i in range(1, n)]


def random_bits(rng: random.Random, n: int, density=0.5):
    return [1 if rng.random() < density else 0 for _ in range(n)]


# ---------------------------------------------------------------------------
# strings' kernel choice, forced through the count constants it reads
# (pass to monkeypatch.setattr or mock.patch.multiple on jumbled.strings)

# _rle_sweep takes the run sweep on every row of two values: none has the
# pair sweep's floor of runs, so neither the pair sweep nor the gap sweep runs
NO_PAIR_SWEEP = dict(_PAIR_FLOOR=1 << 62)
# _rle_sweep takes the pair sweep on every row of two values, whatever its runs
PAIR_SWEEP = dict(_PAIR_FLOOR=0, _PAIR_SHARE=1 << 62)
# _rle_sweep takes the gap sweep on every row of two values: each has the
# floor of runs, and no pairs fit a share below 0
GAP_SWEEP = dict(_PAIR_FLOOR=0, _PAIR_SHARE=-1)
# _rle_sweep never takes the run sweep up front on labels of more values:
# every row has a candidate
NO_RUN_SWEEP = dict(_RUN_SHARE=1 << 62, _RUN_FLOOR=0)
# the bound sweep's block pass never gives up
NEVER_GIVES_UP = dict(_GIVE_UP_GROUPS=1 << 62)
# rle leaves both sweeps of runs on every row: rows of two values take the
# gap sweep, others the bound sweep, whose block pass never gives up
PAST_RUNS = {**GAP_SWEEP, **NO_RUN_SWEEP, **NEVER_GIVES_UP}
# the block pass gives up at its first check past a sixteenth of the pass,
# on every row of more than one group
GIVES_UP = dict(_GIVE_UP_GROUPS=0, _GIVE_UP_SHARE=1 << 62)
