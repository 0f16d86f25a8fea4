"""Output gate: reference results per workload and the checks that compare
the files the CLI wrote against them. Nothing here runs in a timed region."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from jumbled.strings import BinaryString, naive_profile, naive_weighted_max_sums
from jumbled.trees import LabeledTree, binarize, simple_tree_profile, weighted_tree_max_sums

FROZEN = Path(__file__).with_name("frozen.json")


def digest(values) -> str:
    return hashlib.sha256(",".join(str(int(x)) for x in values).encode()).hexdigest()


class Reference:
    """Expected 0/1 profile and weighted sums of one workload instance.

    Weighted random trees have a single backend, so their reference is that
    backend run on the tree rerooted at its last node (a different binarized
    shape and DP order; the result is root-invariant), plus a frozen digest
    at the seed recorded in frozen.json."""

    def __init__(self, inst, seed: int):
        self.inst = inst
        if inst.is_tree:
            p = simple_tree_profile(binarize(LabeledTree(inst.parents, inst.bits)))
        else:
            p = naive_profile(BinaryString(np.array(inst.bits, dtype=np.uint8)))
        self.min_ones, self.max_ones = p.min_ones, p.max_ones
        if inst.name == "tree-random":
            tree = LabeledTree(inst.parents, inst.weights).rerooted(inst.n - 1)
            self.sums = weighted_tree_max_sums(tree)
        else:
            # a path's connected subgraphs are exactly the windows of its weights
            self.sums = naive_weighted_max_sums(inst.weights)
        frozen = json.loads(FROZEN.read_text()).get(inst.name)
        self.frozen_digest = None
        if frozen and frozen["seed"] == seed and frozen["n"] == inst.n:
            self.frozen_digest = frozen["sums_sha256"]

    def answer(self, i: int, j: int) -> bool:
        return 1 <= i <= self.inst.n and bool(self.min_ones[i - 1] <= j <= self.max_ones[i - 1])


def read_columns(path, header: str) -> np.ndarray:
    """Rows of a CLI result CSV as an int64 matrix, size column included."""
    lines = Path(path).read_text().split("\n")
    if lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}, got {lines[0]!r}")
    return np.array([[int(x) for x in ln.split(",")] for ln in lines[1:] if ln],
                    dtype=np.int64).reshape(-1, header.count(",") + 1)


def check_profile(path, ref: Reference) -> list:
    """Problems found in a 0/1 profile CSV; empty when it is correct."""
    try:
        rows = read_columns(path, "size,min_ones,max_ones")
    except (OSError, ValueError) as exc:
        return [str(exc)]
    n = ref.inst.n
    if rows.shape[0] != n or not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
        return [f"{path}: expected sizes 1..{n}"]
    problems = []
    for col, want, what in ((1, ref.min_ones, "min_ones"), (2, ref.max_ones, "max_ones")):
        bad = np.flatnonzero(rows[:, col] != want)
        if bad.size:
            k = int(bad[0])
            problems.append(f"{path}: {what} at size {k + 1} is {rows[k, col]}, expected {want[k]}")
        steps = np.diff(rows[:, col])
        if steps.size and (steps.min() < 0 or steps.max() > 1):
            problems.append(f"{path}: {what} has steps outside {{0, 1}}")
    return problems


def check_sums(path, ref: Reference) -> list:
    """Problems found in a weighted CSV; empty when it is correct."""
    try:
        rows = read_columns(path, "size,max_sum")
    except (OSError, ValueError) as exc:
        return [str(exc)]
    got = rows[:, 1]
    if got.size != ref.inst.n:
        return [f"{path}: expected {ref.inst.n} rows, got {got.size}"]
    problems = []
    bad = np.flatnonzero(got != ref.sums)
    if bad.size:
        k = int(bad[0])
        problems.append(f"{path}: max_sum at size {k + 1} is {got[k]}, expected {ref.sums[k]}")
    if got[0] != max(ref.inst.weights) or got[-1] != sum(ref.inst.weights):
        problems.append(f"{path}: size 1 and size n must give the largest weight and the total")
    if ref.frozen_digest is not None and digest(got) != ref.frozen_digest:
        problems.append(f"{path}: differs from the output frozen in {FROZEN.name}")
    return problems
