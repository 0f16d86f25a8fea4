"""Command-line front end: build profile indexes, answer queries, verify
backends against each other, generate inputs, and benchmark."""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .inputs import (
    ParseError,
    gen_string,
    gen_tree,
    gen_weights,
    parse_binary_string_text,
    parse_tree_text,
    parse_weights_text,
    random_parents,
)
from .minplus import sqrt_ceil
from .profiles import (
    Profile,
    _occurs_in_csv,
    write_profile_csv,
    write_sums_csv,
)
from .strings import (
    BinaryString,
    blocked_profile,
    naive_profile,
    naive_weighted_max_sums,
    recursive_profile,
    rle_profile,
    rle_weighted_max_sums,
    weighted_max_sums,
)
from .trees import (
    SMALL,
    LabeledTree,
    binarize,
    enumerate_connected_oracle,
    enumerate_max_sums,
    simple_tree_profile,
    tree_profile,
    weighted_tree_max_sums,
)

KINDS = ("string", "tree", "weighted-string", "weighted-tree")

# name -> callable(value, param); param is --block / --micro or None. Each
# table lists first its kind's default, the backend measured fastest; naive
# is the O(n^2) reference, and the others are the paper's reductions, kept as
# references and verify oracles. Two tree oracles are verify-only:
# enumerate, and rerooted, the default build of the tree rerooted at a drawn
# node (param), which binarizes it otherwise and orders the DP otherwise;
# the profile does not depend on the root.
STRING_BACKENDS = {
    "rle": lambda s, param=None: rle_profile(s),
    "naive": lambda s, param=None: naive_profile(s),
    "blocked": lambda s, param=None: blocked_profile(s, b=param),
    "recursive": lambda s, param=None: recursive_profile(s),
}
TREE_BACKENDS = {
    "simple-tree": lambda t, param=None: simple_tree_profile(binarize(t)),
    "micro-macro": lambda t, param=None: tree_profile(t, r=param),
    "enumerate": lambda t, param=None: enumerate_connected_oracle(t),
    "rerooted": lambda t, param=None: simple_tree_profile(binarize(t.rerooted(param))),
}
WEIGHTED_STRING_BACKENDS = {
    "rle": lambda w, param=None: rle_weighted_max_sums(w),
    "naive": lambda w, param=None: naive_weighted_max_sums(w),
    "recursive": lambda w, param=None: weighted_max_sums(w),
}
WEIGHTED_TREE_BACKENDS = {
    "simple-tree": lambda t, param=None: weighted_tree_max_sums(t),
    "enumerate": lambda t, param=None: enumerate_max_sums(t),
    "rerooted": lambda t, param=None: weighted_tree_max_sums(t.rerooted(param)),
}
_BACKEND_MAPS = {
    "string": STRING_BACKENDS,
    "tree": TREE_BACKENDS,
    "weighted-string": WEIGHTED_STRING_BACKENDS,
    "weighted-tree": WEIGHTED_TREE_BACKENDS,
}


def _build_algos(kind: str) -> list:
    """Backends `build` accepts, default first; `enumerate` and `rerooted`
    are verify-only."""
    return [name for name in _BACKEND_MAPS[kind] if name not in ("enumerate", "rerooted")]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


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


def _parse_input(kind: str, text: str):
    if kind == "string":
        return BinaryString(parse_binary_string_text(text))
    if kind == "weighted-string":
        return parse_weights_text(text)
    parents, labels = parse_tree_text(text, weighted=kind == "weighted-tree")
    return LabeledTree(parents, labels)


def cmd_build(args) -> int:
    algos = _build_algos(args.kind)
    algo = args.algo or algos[0]
    if algo not in algos:
        return _fail(f"backend {algo!r} is not applicable to kind {args.kind!r}")
    for name, value, taker in (("--block", args.block, "blocked"),
                               ("--micro", args.micro, "micro-macro")):
        if value is not None and algo != taker:
            return _fail(f"{name} applies only to --algo {taker}")
        if value is not None and value < 1:
            return _fail(f"{name} must be >= 1")
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        return _fail(str(exc))
    except UnicodeDecodeError as exc:
        return _fail(f"{args.input}: {exc}")
    try:
        value = _parse_input(args.kind, text)
        del text   # drop each input once used: less is live during the build and write
        param = args.block if algo == "blocked" else args.micro
        result = _BACKEND_MAPS[args.kind][algo](value, param)
        del value
        if isinstance(result, Profile):
            write_profile_csv(result, args.out)
        else:
            write_sums_csv(result, args.out)
    except (ParseError, ValueError, OSError) as exc:
        return _fail(str(exc))
    return 0


def cmd_query(args) -> int:
    try:
        found = _occurs_in_csv(args.profile, args.i, args.j)
    except (ParseError, OSError) as exc:
        return _fail(str(exc))
    except UnicodeDecodeError as exc:
        return _fail(f"{args.profile}: {exc}")
    print("yes" if found else "no")
    return 0


def _in_runs(n: int, rng: random.Random, draw) -> list:
    """n values in runs of random length, one value drawn per run."""
    mean = rng.choice((6, 10, 20, 64, 80))
    values = []
    while len(values) < n:
        values += [draw()] * rng.randint(1, 2 * mean - 1)
    return values[:n]


def _verify_case(kind: str, case: int, max_n: int):
    rng = random.Random(1_000_003 * case + 17)
    n = rng.randint(1, max_n)
    density = rng.choice((0.05, 0.25, 0.5, 0.75, 0.95))
    # every third string case comes in long runs, where rle takes its run
    # sweep; the others draw each value on its own
    in_runs = case % 3 == 2
    if kind == "string":
        def draw():
            return 1 if rng.random() < density else 0
        bits = np.array(_in_runs(n, rng, draw) if in_runs else [draw() for _ in range(n)],
                        dtype=np.uint8)
        return BinaryString(bits), "".join(map(str, bits)), n, rng
    if kind == "weighted-string":
        # every other case draws from two values, where rle's run sweep
        # takes its two-valued rule; every fifth from 0..18, whose mean the
        # bound sweep centres away; every seventh repeats a short drawn
        # period, which no bound prunes, so that its block pass gives up
        low = 0 if case % 5 == 4 else -9
        values = rng.sample(range(low, low + 19), 2) if case % 2 else range(low, low + 19)

        def draw():
            return rng.choice(values)
        if case % 7 == 6:
            w = np.resize(np.array([draw() for _ in range(rng.randint(2, 8))], dtype=np.int64), n)
        else:
            w = np.array(_in_runs(n, rng, draw) if in_runs else [draw() for _ in range(n)],
                         dtype=np.int64)
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


def cmd_verify(args) -> int:
    backends = _BACKEND_MAPS[args.kind]
    for name in (args.algo, args.oracle):
        if name not in backends:
            return _fail(f"unknown backend {name!r} for kind {args.kind!r}")
        if name == "enumerate" and args.max_n > 18:
            return _fail("the enumerate oracle requires --max-n <= 18")
    if args.seeds < 1:
        return _fail("--seeds must be >= 1")
    message = _size_error("--max-n", [args.max_n])
    if message:
        return _fail(message)
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


def cmd_gen(args) -> int:
    message = _size_error("--n", [args.n])
    if message:
        return _fail(message)
    if not 0.0 <= args.density <= 1.0:
        return _fail("--density must lie in [0, 1]")
    try:
        Path(args.out).write_text(_gen_text(args.kind, args.n, args.seed, args.density))
    except OSError as exc:
        return _fail(str(exc))
    return 0


def _split_multi(tokens):
    # accept both space-separated and comma-separated lists
    return [part for tok in tokens for part in tok.split(",") if part]


def cmd_bench(args) -> int:
    kinds = _split_multi(args.kinds)
    algos = _split_multi(args.algos)
    try:
        sizes = [int(tok) for tok in _split_multi(args.sizes)]
    except ValueError as exc:
        return _fail(f"--sizes expects integers: {exc}")
    for kind in kinds:
        if kind not in KINDS:
            return _fail(f"unknown kind {kind!r}")
    for algo in algos:
        if not any(algo in _build_algos(kind) for kind in kinds):
            return _fail(f"no requested kind builds algo {algo!r}")
    message = _size_error("--sizes", sizes)
    if message:
        return _fail(message)
    rows = []
    for kind in kinds:
        for algo in algos:
            if algo not in _build_algos(kind):
                continue
            for n in sizes:
                value = _parse_input(kind, _gen_text(kind, n, args.seed, 0.5))
                param = sqrt_ceil(n) if algo in ("blocked", "micro-macro") else None
                fn = _BACKEND_MAPS[kind][algo]
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
        return _fail("no compatible kind/algo combinations requested")
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write("kind,algo,n,param,seconds,peak_bytes\n")
            for row in rows:
                fh.write(",".join(str(f) for f in row) + "\n")
    except OSError as exc:
        return _fail(str(exc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumbled",
        description="Jumbled-pattern-matching indexes for binary strings and trees.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build", help="index an input file and write the profile CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=KINDS, default="string")
    defaults = ", ".join(f"{_build_algos(kind)[0]} for {kind}" for kind in KINDS)
    p.add_argument("--algo", choices=sorted({a for kind in KINDS for a in _build_algos(kind)}),
                   help=f"backend (default: the fastest measured, {defaults})")
    p.add_argument("--block", type=int, help="block length for the blocked backend")
    p.add_argument("--micro", type=int, help="micro tree size bound for micro-macro")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer an occurrence query against a profile CSV")
    p.add_argument("--profile", required=True)
    p.add_argument("-i", type=int, required=True, help="subgraph/window size")
    p.add_argument("-j", type=int, required=True, help="number of 1s")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="randomized equivalence check of two backends")
    p.add_argument("--algo", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--max-n", type=int, default=200, help="largest input size, at most 2^20")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--kind", choices=KINDS, default="string")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random input file")
    p.add_argument("--kind", choices=KINDS, default="string")
    p.add_argument("--n", type=int, required=True, help="input size, at most 2^20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5,
                   help="probability of a 1 label (ignored for weighted kinds)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time index construction, write a CSV table")
    p.add_argument("--kinds", nargs="+", default=["string"])
    p.add_argument("--algos", nargs="+", required=True)
    p.add_argument("--sizes", nargs="+", required=True, help="input sizes, each at most 2^20")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    # the parser and its commands' parsers by name, built once per process:
    # parse_args keeps no state between calls, and building takes about a
    # millisecond, a share of a query's cost
    parser = build_parser()
    commands, = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            # the top-level parser would hand the command every later
            # argument; it is needed only to report those left over
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
