"""Workload inputs, made from the benchmark's seed alone.

The generators live here, not in ``jumbled.inputs``, so that a change to the
package cannot change the inputs it is measured on. Every workload pairs a
0/1 input with a weighted input of the same shape.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("string-random", "string-runs", "tree-random", "tree-path")

N_STRING = 16384
# On a path the default micro size isqrt(n - 1) + 1 reaches 64 at n = 3970,
# where micro arrays outgrow NAIVE_CONV_CUTOFF; n must stay above that.
N_TREE = 4096
STRING_RUNS = 256
N_TINY = 64


@dataclass
class Instance:
    name: str
    n: int
    bits: list                    # 0/1 labels in node or position order
    weights: list                 # signed weights of the same shape
    parents: list | None = None   # 0-based, -1 for the root; None for strings
    properties: dict = field(default_factory=dict)

    @property
    def is_tree(self) -> bool:
        return self.parents is not None

    @property
    def queries(self) -> int:
        """CLI queries per session. A query reads all n rows of the profile,
        so trees (n four times smaller) take twice as many; then a tree
        session still makes its 100 queries, and a string session's query
        phase stays as short as a tree session's."""
        return 100 if self.is_tree else 50

    @property
    def kinds(self) -> tuple:
        return ("tree", "weighted-tree") if self.is_tree else ("string", "weighted-string")

    def texts(self) -> tuple:
        """File contents of the 0/1 input and of the weighted input."""
        if not self.is_tree:
            return ("".join(map(str, self.bits)) + "\n",
                    " ".join(map(str, self.weights)) + "\n")
        return tuple(
            "\n".join([str(self.n)] + [f"{p + 1} {x}" for p, x in zip(self.parents, labels)]) + "\n"
            for labels in (self.bits, self.weights))


def _bits(rng: random.Random, n: int) -> list:
    return [1 if rng.random() < 0.5 else 0 for _ in range(n)]


def _weights(rng: random.Random, n: int) -> list:
    return [rng.randint(-9, 9) for _ in range(n)]


def _string_properties(bits: list) -> dict:
    runs = 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return {"n": len(bits), "runs": runs, "rho_per_n": runs / len(bits)}


def _tree_properties(parents: list) -> dict:
    n = len(parents)
    depth = [0] * n
    degree = [0] * n
    for v in range(1, n):  # both generators give parents[v] < v
        p = parents[v]
        depth[v] = depth[p] + 1
        degree[v] += 1
        degree[p] += 1
    return {"n": n, "depth": max(depth), "max_degree": max(degree),
            "default_micro_r": math.isqrt(n - 1) + 1 if n > 1 else 1}


def make(name: str, seed: int, tiny: bool = False) -> Instance:
    """The input of workload ``name``; the same seed gives the same input."""
    rng = random.Random(f"{name}:{seed}")
    if name == "string-random":
        n = N_TINY if tiny else N_STRING
        bits = _bits(rng, n)
        return Instance(name, n, bits, _weights(rng, n), properties=_string_properties(bits))
    if name == "string-runs":
        n = N_TINY if tiny else N_STRING
        runs = N_TINY // 8 if tiny else STRING_RUNS
        cuts = [0] + sorted(rng.sample(range(1, n), runs - 1)) + [n]
        first = rng.randrange(2)
        bits, weights = [], []
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            bits += [(first + k) % 2] * (hi - lo)
            weights += [rng.randint(-9, 9)] * (hi - lo)
        return Instance(name, n, bits, weights, properties=_string_properties(bits))
    n = N_TINY if tiny else N_TREE
    if name == "tree-random":
        # random recursive tree, as `jumbled gen --kind tree` draws it
        parents = [-1] + [rng.randrange(v) for v in range(1, n)]
    elif name == "tree-path":
        parents = [-1] + list(range(n - 1))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Instance(name, n, _bits(rng, n), _weights(rng, n), parents,
                    _tree_properties(parents))


def pairs(n: int, count: int, rng: random.Random) -> list:
    """(i, j) query pairs with i uniform in [1, n] and j uniform in [0, i]."""
    out = []
    for _ in range(count):
        i = rng.randint(1, n)
        out.append((i, rng.randint(0, i)))
    return out
