"""Command-line front end: build profile indexes, answer queries, verify
backends against each other, generate inputs, and benchmark. `build` and
`query` run here; `verify`, `gen` and `bench` run in tools.py, and the
reference backends in reference.py, each imported on first use."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .inputs import ParseError, parse_binary_string_text, parse_tree_text, parse_weights_text
from .minplus import lazy_names
from .profiles import Profile, _occurs_in_csv, write_profile_csv, write_sums_csv
from .strings import (BinaryString, naive_profile, naive_weighted_max_sums, rle_profile,
                      rle_weighted_max_sums)
from .trees import LabeledTree, binarize, simple_tree_profile, weighted_tree_max_sums

__getattr__ = lazy_names(__name__, {
    ".reference": "blocked_profile recursive_profile weighted_max_sums tree_profile "
                  "enumerate_connected_oracle enumerate_max_sums",
    ".tools": "_size_error _in_runs _verify_case _draw_param _first_difference cmd_verify "
              "_gen_text cmd_gen _split_multi cmd_bench"})
# this module, under `python -m` too: the tables and the parser's commands
# read the names above through it, so that each is imported on its first call
_cli = sys.modules[__name__]

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
    "blocked": lambda s, param=None: _cli.blocked_profile(s, b=param),
    "recursive": lambda s, param=None: _cli.recursive_profile(s),
}
TREE_BACKENDS = {
    "simple-tree": lambda t, param=None: simple_tree_profile(binarize(t)),
    "micro-macro": lambda t, param=None: _cli.tree_profile(t, r=param),
    "enumerate": lambda t, param=None: _cli.enumerate_connected_oracle(t),
    "rerooted": lambda t, param=None: simple_tree_profile(binarize(t.rerooted(param))),
}
WEIGHTED_STRING_BACKENDS = {
    "rle": lambda w, param=None: rle_weighted_max_sums(w),
    "naive": lambda w, param=None: naive_weighted_max_sums(w),
    "recursive": lambda w, param=None: _cli.weighted_max_sums(w),
}
WEIGHTED_TREE_BACKENDS = {
    "simple-tree": lambda t, param=None: weighted_tree_max_sums(t),
    "enumerate": lambda t, param=None: _cli.enumerate_max_sums(t),
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
    except MemoryError as exc:
        return _fail(f"backend {algo!r} ran out of memory" + (f": {exc}" if str(exc) else ""))
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
    p.set_defaults(func=lambda args: _cli.cmd_verify(args, _cli))

    p = sub.add_parser("gen", help="generate a random input file")
    p.add_argument("--kind", choices=KINDS, default="string")
    p.add_argument("--n", type=int, required=True, help="input size, at most 2^20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5,
                   help="probability of a 1 label (ignored for weighted kinds)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda args: _cli.cmd_gen(args, _cli))

    p = sub.add_parser("bench", help="time index construction, write a CSV table")
    p.add_argument("--kinds", nargs="+", default=["string"])
    p.add_argument("--algos", nargs="+", required=True)
    p.add_argument("--sizes", nargs="+", required=True, help="input sizes, each at most 2^20")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda args: _cli.cmd_bench(args, _cli))

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
