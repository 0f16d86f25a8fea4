"""The `verify`, `gen` and `bench` commands, imported on their first call.
Each takes its parsed arguments and the `cli` module that dispatched it,
whose backend tables and helpers it uses, so that `python -m jumbled.cli`
never imports a second `jumbled.cli`."""

from __future__ import annotations

import random
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .inputs import gen_string, gen_tree, gen_weights, random_parents
from .minplus import sqrt_ceil
from .profiles import Profile
from .strings import BinaryString
from .trees import SMALL, LabeledTree


def _size_error(flag: str, sizes):
    """The refusal of the first size outside 1..2^20 (1048576), or None.
    2^20 is the ceiling on every input size that `gen` writes, `verify`
    draws and `bench` builds, checked before anything is drawn: `verify` and
    `gen` hold an input as Python lists and strings, tens of bytes a label
    (an unchecked --max-n of 10^11 passed 7 GB), and the O(n^2) references
    would run for hours past it."""
    for n in sizes:
        if not 1 <= n <= 1 << 20:
            return f"{flag} must lie in 1..{1 << 20}, got {n}"
    return None


def _in_runs(n: int, rng: random.Random, draw, mean=None) -> list:
    """n values in runs of random length, of ``mean`` or a drawn mean, one value a run."""
    mean = mean or rng.choice((6, 10, 20, 64, 80))
    values = []
    while len(values) < n:
        values += [draw()] * rng.randint(1, 2 * mean - 1)
    return values[:n]


def _verify_case(kind: str, case: int, max_n: int):
    rng = random.Random(1_000_003 * case + 17)
    n = rng.randint(1, max_n)
    density = rng.choice((0.05, 0.25, 0.5, 0.75, 0.95))
    # every third string case comes in long runs, where rle takes its pair
    # or run sweep; the others draw each value on its own
    in_runs = case % 3 == 2
    if kind == "string":
        def draw():
            return 1 if rng.random() < density else 0
        # every seventh case repeats a short drawn period, so its rows are
        # balanced, and every other one of those has one bit flipped
        if case % 7 == 6:
            bits = np.resize([draw() for _ in range(rng.randint(2, 8))], n).astype(np.uint8)
            if case % 14 == 13:
                bits[rng.randrange(n)] ^= 1
        else:
            bits = np.array(_in_runs(n, rng, draw) if in_runs else [draw() for _ in range(n)],
                            dtype=np.uint8)
        return BinaryString(bits), "".join(map(str, bits)), n, rng
    if kind == "weighted-string":
        # every other case draws from two values, where rle takes the pair,
        # run or gap sweep by its count rules; every fifth from 0..18, whose
        # mean the bound sweep centres away; every seventh repeats a short
        # drawn period, which no bound prunes, so that its block pass gives up.
        # Case 8 takes runs of mean 10: at --max-n 40000 (n = 24213) they pass
        # the run sweep's n / 12 + 128 candidates, and rle takes the bound sweep
        low = 0 if case % 5 == 4 else -9
        values = rng.sample(range(low, low + 19), 2) if case % 2 else range(low, low + 19)

        def draw():
            return rng.choice(values)
        if case % 7 == 6:
            w = np.resize(np.array([draw() for _ in range(rng.randint(2, 8))], dtype=np.int64), n)
        else:
            w = np.array(_in_runs(n, rng, draw, 10 if case == 8 else None) if in_runs
                         else [draw() for _ in range(n)], dtype=np.int64)
        return w, " ".join(map(str, w)), n, rng
    if case % 3 == 2 and n > SMALL + 1:
        # every third tree case: a path of more than SMALL nodes with a
        # random tree hung below it, which the batched sweep takes as a chain
        top = rng.randint(SMALL + 1, n - 1)
        parents = [-1] + list(range(top - 1)) + [rng.randrange(top - 1, v) for v in range(top, n)]
    elif case % 3 == 1:
        # leaves hung on random nodes of a path (a caterpillar), or on its last node (a broom)
        top = rng.randint(1, n)
        low = 0 if case % 2 else top - 1
        parents = [-1] + list(range(top - 1)) + [rng.randrange(low, top) for _ in range(top, n)]
    else:
        parents = random_parents(n, rng)
    if kind == "tree":
        labels = [1 if rng.random() < density else 0 for _ in range(n)]
    else:
        labels = [rng.randint(-9, 9) for _ in range(n)]
    tree = LabeledTree(parents, labels)
    return tree, f"parents={parents} labels={labels}", n, rng


def _draw_param(name: str, n: int, rng: random.Random):
    if name == "blocked":
        return rng.randint(1, n)
    if name == "micro-macro":
        return rng.choice((1, 2, sqrt_ceil(n), n))
    if name == "rerooted":
        return rng.randrange(n)
    return None


def _first_difference(want, got):
    if isinstance(want, Profile):
        bad = np.flatnonzero((want.min_ones != got.min_ones)
                             | (want.max_ones != got.max_ones))
        i = int(bad[0])
        return (i + 1,
                f"min={int(want.min_ones[i])} max={int(want.max_ones[i])}",
                f"min={int(got.min_ones[i])} max={int(got.max_ones[i])}")
    bad = np.flatnonzero(np.asarray(want) != np.asarray(got))
    i = int(bad[0])
    return i + 1, str(int(want[i])), str(int(got[i]))


def cmd_verify(args, cli) -> int:
    backends = cli._BACKEND_MAPS[args.kind]
    for name in (args.algo, args.oracle):
        if name not in backends:
            return cli._fail(f"unknown backend {name!r} for kind {args.kind!r}")
        if name == "enumerate" and args.max_n > 18:
            return cli._fail("the enumerate oracle requires --max-n <= 18")
    if args.seeds < 1:
        return cli._fail("--seeds must be >= 1")
    message = _size_error("--max-n", [args.max_n])
    if message:
        return cli._fail(message)
    for case in range(args.seeds):
        value, rendering, n, rng = _verify_case(args.kind, case, args.max_n)
        p_algo = _draw_param(args.algo, n, rng)
        p_oracle = _draw_param(args.oracle, n, rng)
        got = backends[args.algo](value, p_algo)
        want = backends[args.oracle](value, p_oracle)
        same = want == got if isinstance(want, Profile) else np.array_equal(want, got)
        if not same:
            size, expected, actual = _first_difference(want, got)
            print(f"mismatch: kind={args.kind} algo={args.algo} oracle={args.oracle} "
                  f"case={case} n={n} param={p_algo}")
            print(f"input: {rendering}")
            print(f"size {size}: expected {expected}, got {actual}")
            return 1
    print(f"verify: {args.seeds} cases, 0 mismatches "
          f"({args.kind}: {args.algo} vs {args.oracle}, n <= {args.max_n})")
    return 0


def _gen_text(kind: str, n: int, seed: int, density: float) -> str:
    if kind == "string":
        return gen_string(n, seed, density)
    if kind == "weighted-string":
        return gen_weights(n, seed)
    return gen_tree(n, seed, density, weighted=kind == "weighted-tree")


def cmd_gen(args, cli) -> int:
    message = _size_error("--n", [args.n])
    if message:
        return cli._fail(message)
    if not 0.0 <= args.density <= 1.0:
        return cli._fail("--density must lie in [0, 1]")
    try:
        Path(args.out).write_text(_gen_text(args.kind, args.n, args.seed, args.density))
    except OSError as exc:
        return cli._fail(str(exc))
    return 0


def _split_multi(tokens):
    # accept both space-separated and comma-separated lists
    return [part for tok in tokens for part in tok.split(",") if part]


def cmd_bench(args, cli) -> int:
    kinds = _split_multi(args.kinds)
    algos = _split_multi(args.algos)
    try:
        sizes = [int(tok) for tok in _split_multi(args.sizes)]
    except ValueError as exc:
        return cli._fail(f"--sizes expects integers: {exc}")
    for kind in kinds:
        if kind not in cli.KINDS:
            return cli._fail(f"unknown kind {kind!r}")
    for algo in algos:
        if not any(algo in cli._build_algos(kind) for kind in kinds):
            return cli._fail(f"no requested kind builds algo {algo!r}")
    message = _size_error("--sizes", sizes)
    if message:
        return cli._fail(message)
    rows = []
    for kind in kinds:
        for algo in algos:
            if algo not in cli._build_algos(kind):
                continue
            for n in sizes:
                value = cli._parse_input(kind, _gen_text(kind, n, args.seed, 0.5))
                param = sqrt_ceil(n) if algo in ("blocked", "micro-macro") else None
                fn = cli._BACKEND_MAPS[kind][algo]
                t0 = time.perf_counter()
                fn(value, param)
                elapsed = time.perf_counter() - t0
                # tracemalloc slows a build several times over, so the peak
                # comes from a second, untimed pass
                tracemalloc.start()
                try:
                    fn(value, param)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                rows.append((kind, algo, n, "" if param is None else param,
                             f"{elapsed:.6f}", peak))
    if not rows:
        return cli._fail("no compatible kind/algo combinations requested")
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write("kind,algo,n,param,seconds,peak_bytes\n")
            for row in rows:
                fh.write(",".join(str(f) for f in row) + "\n")
    except OSError as exc:
        return cli._fail(str(exc))
    return 0
