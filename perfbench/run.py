#!/usr/bin/env python3
"""End-to-end benchmark of the jumbled CLI: build and query latency.

Run from the repository root:

    python3 perfbench/run.py --workload tree-path --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client drives ``jumbled.cli.main`` in process, in a closed loop, one
session after another while the next one still fits in ``--seconds``, and
until 100 queries have been made. A session builds the 0/1 input, builds the
weighted input of the same shape, then runs the CLI ``query`` on fixed (i, j)
pairs, each followed by one round of ``jumbled.profiles.occurs`` on the built
profile. Outputs are checked against references outside the timed calls.
Timings are reported at a fixed host speed (see ``hostspeed.py``); the raw
wall times are printed beside them. ``--trace 1`` alternates untraced and
traced sessions and reports per-layer self times and work counts instead of
the end-to-end metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import statistics
import sys
import traceback
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# a run makes >= 100 queries, so the 90th percentile has >= 10 beyond it
MIN_QUERIES = 100
# one occurs round follows each query; a session's first round is warm-up
OCCURS_PAIRS = 500
SETUP_REPEATS = 7
# a session repeats each build until the repeats have taken BUILD_MIN_S, or
# BUILD_REPEATS times
BUILD_MIN_S = 2.0
BUILD_REPEATS = 5
PACKAGE = ("cli", "inputs", "minplus", "profiles", "strings", "trees")

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "weighted_build_s": "s",
    "query_s": "s",
    "query_p90_s": "s",
    "occurs_qps": "1/s",
    "build_peak_mib": "MiB",
}
PER_LAYER = {
    "inputs.parse_s": "s",
    "strings.profile_s": "s",
    "strings.weighted_s": "s",
    "trees.profile_s": "s",
    "trees.weighted_s": "s",
    "trees.micro_macro_s": "s",
    "trees.dp_arrays": "count",
    "trees.dp_cells": "count",
    "minplus.product_calls": "count",
    "minplus.product_cells": "count",
    "minplus.product_s": "s",
    "minplus.cells_per_s": "1/s",
    "bitvec.encode_calls": "count",
    "bitvec.encode_s": "s",
    "profiles.write_s": "s",
    "profiles.read_s": "s",
    "profiles.occurs_calls": "count",
    "profiles.occurs_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# per-layer seconds metric -> span it sums the self time of
LAYER_SPANS = {
    "inputs.parse_s": "inputs.parse",
    "strings.profile_s": "strings.profile",
    "strings.weighted_s": "strings.weighted",
    "trees.profile_s": "trees.profile",
    "trees.weighted_s": "trees.weighted",
    "trees.micro_macro_s": "trees.micro_macro",
    "minplus.product_s": "minplus.product",
    "bitvec.encode_s": "bitvec.encode",
    "profiles.write_s": "profiles.write",
    "profiles.read_s": "profiles.read",
    "profiles.occurs_s": "profiles.occurs",
    "cli.self_s": "cli",
}


def import_package() -> dict:
    """A fresh import of the package's modules, as a new process makes it."""
    for name in [m for m in sys.modules if m == "jumbled" or m.startswith("jumbled.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"jumbled.{name}") for name in PACKAGE}


class Tally:
    """Operations attempted and the first problem of each that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(problems[0])


def cli_call(cli, argv):
    """(seconds, problem or None) of one in-process CLI call."""
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        elapsed = perf_counter() - t0
        return elapsed, traceback.format_exc(limit=3)
    elapsed = perf_counter() - t0
    return elapsed, None if rc == 0 else f"{argv[0]} exited with {rc}"


def corrupt_profile(path) -> None:
    """Replace the size-1 row by a different row that still parses."""
    lines = Path(path).read_text().split("\n")
    lo = int(lines[1].split(",")[1])
    lines[1] = f"1,{1 - lo},{1 - lo}"
    Path(path).write_text("\n".join(lines))


def write_inputs(inst, paths) -> None:
    for path, text in zip(paths, inst.texts()):
        Path(path).write_text(text)


def warm_up(cli, inst, work: Path) -> None:
    """Build and query a tiny instance of the same workload."""
    paths = [str(work / f"warm{k}") for k in range(4)]
    write_inputs(inst, paths[:2])
    with redirect_stdout(io.StringIO()):
        for kind, src, out in zip(inst.kinds, paths[:2], paths[2:]):
            cli.main(["build", "--input", src, "--kind", kind, "--out", out])
        cli.main(["query", "--profile", paths[2], "-i", "1", "-j", "0"])


class Workload:
    """One workload at one seed: its input files, reference and argv lists."""

    def __init__(self, name: str, args):
        import gate  # imports the package, so only after main() finds src/

        self.name = name
        self.gate = gate
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.files = [str(self.work / f) for f in ("input01", "inputw", "out01", "outw")]
        # numpy is already imported, so each set-up times the package alone
        setups, raw = [], []
        for _ in range(SETUP_REPEATS):
            with hostspeed.Speed() as speed:
                t0 = perf_counter()
                self.pkg = import_package()
                inst = workloads.make(name, args.seed, args.tiny)
                write_inputs(inst, self.files[:2])
                warm_up(self.pkg["cli"], workloads.make(name, args.seed, tiny=True), self.work)
                elapsed = perf_counter() - t0
            raw.append(speed.own(elapsed))
            setups.append(speed.normalised(elapsed))
        self.setup_s = statistics.median(setups)
        self.raw_setup_s = statistics.median(raw)
        self.inst = inst
        self.ref = gate.Reference(inst, args.seed)
        rng = random.Random(f"{name}:{args.seed}:pairs")
        self.query_pairs = workloads.pairs(inst.n, inst.queries, rng)
        self.occurs_pairs = workloads.pairs(inst.n, OCCURS_PAIRS, rng)
        in01, inw, out01, outw = self.files
        self.build01 = ["build", "--input", in01, "--kind", inst.kinds[0], "--out", out01]
        self.buildw = ["build", "--input", inw, "--kind", inst.kinds[1], "--out", outw]
        self.queries = [["query", "--profile", out01, "-i", str(i), "-j", str(j)]
                        for i, j in self.query_pairs]

    def memory_pass(self, tally: Tally) -> float:
        """tracemalloc peak (MiB) of one 0/1 build, in a pass of its own."""
        cli = self.pkg["cli"]
        tracemalloc.start()
        try:
            _, problem = cli_call(cli, self.build01)  # its time is not used
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tally.record([problem] if problem else self.gate.check_profile(self.files[2], self.ref))
        return peak / 2**20

    def build(self, argv, traced: bool):
        """((seconds at the reference speed, raw seconds), problem) of one
        build: medians over repeats until they have taken BUILD_MIN_S (at
        most BUILD_REPEATS), so that a short build gives as steady a figure
        as a long one. A traced session builds once, so that its counts
        repeat, and samples the host speed around the build only, so that no
        calibration pass lands in a span."""
        norm, raw = [], []
        while not raw or (not traced and sum(raw) < BUILD_MIN_S and len(raw) < BUILD_REPEATS):
            gc.collect()  # each build starts from a collected heap, as in a fresh process
            with hostspeed.Speed(ticks=not traced) as speed:
                elapsed, problem = cli_call(self.pkg["cli"], argv)
            norm.append(speed.normalised(elapsed))
            raw.append(speed.own(elapsed))
            if problem:
                break
        return (statistics.median(norm), statistics.median(raw)), problem

    def session(self, corrupt: bool, traced: bool) -> dict:
        """One timed session; returns its samples, each at the reference
        speed and raw, and the outputs to check."""
        cli = self.pkg["cli"]
        build_s, build_problem = self.build(self.build01, traced)
        if corrupt:
            corrupt_profile(self.files[2])
        wbuild_s, wbuild_problem = self.build(self.buildw, traced)
        try:
            profile = self.pkg["profiles"].read_profile_csv(self.files[2])
        except (OSError, ValueError) as exc:
            profile = exc
        occurs = self.pkg["profiles"].occurs
        query_s, answers, rounds = [], [], []
        buf = io.StringIO()
        # queries and occurs rounds alternate, so that both sample the same
        # stretch of time; this host's speed changes from second to second
        before = hostspeed.calibration()
        for argv in self.queries:
            buf.seek(0)
            buf.truncate()
            with redirect_stdout(buf):
                elapsed, problem = cli_call(cli, argv)
            answers.append(problem or buf.getvalue().strip())
            occurs_s = None
            if not isinstance(profile, Exception):
                t0 = perf_counter()
                for i, j in self.occurs_pairs:
                    occurs(profile, i, j)
                occurs_s = perf_counter() - t0
            after = hostspeed.calibration()
            query_s.append((hostspeed.normalised(elapsed, before, after), elapsed))
            if occurs_s is not None:
                rounds.append((hostspeed.normalised(occurs_s, before, after), occurs_s))
            before = after
        return {"build_s": build_s, "build_problem": build_problem,
                "weighted_build_s": wbuild_s, "wbuild_problem": wbuild_problem,
                "query_s": query_s, "answers": answers, "occurs_s": rounds[1:],
                "profile": profile}

    def check(self, s: dict, tally: Tally) -> None:
        """Gate one session's outputs; runs after the timed calls."""
        g, ref = self.gate, self.ref
        tally.record([s["build_problem"]] if s["build_problem"]
                     else g.check_profile(self.files[2], ref))
        tally.record([s["wbuild_problem"]] if s["wbuild_problem"]
                     else g.check_sums(self.files[3], ref))
        for (i, j), got in zip(self.query_pairs, s["answers"]):
            want = "yes" if ref.answer(i, j) else "no"
            tally.record([] if got == want else [f"query -i {i} -j {j}: {got!r}, expected {want!r}"])
        profile = s["profile"]
        if isinstance(profile, Exception):
            tally.record([f"occurs loop: {profile}"])
            return
        occurs = self.pkg["profiles"].occurs
        wrong = [(i, j) for i, j in self.occurs_pairs if occurs(profile, i, j) != ref.answer(i, j)]
        tally.record([f"occurs wrong on {len(wrong)} pairs, first {wrong[0]}"] if wrong else [])


def describe(inst) -> str:
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in inst.properties.items())


def run_workload(name: str, args):
    """Run one workload; returns (metrics, units, tally)."""
    import tracing  # needs numpy, like gate

    wl = Workload(name, args)
    pkg = wl.pkg
    print(f"# workload {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# input: {describe(wl.inst)}")
    tally = Tally()
    peak_mib = None if args.trace else wl.memory_pass(tally)
    tracer = tracing.Tracer() if args.trace else None
    sessions = []
    t_start = t_last = perf_counter()
    # a new session starts only if one more, as long as the last, still ends
    # within --seconds; the minimum counts are made in any case
    while (len(sessions) < (2 if args.trace else 1)
           or len(sessions) * len(wl.queries) < MIN_QUERIES
           or 2 * perf_counter() - t_last - t_start <= args.seconds):
        t_last = perf_counter()
        k = len(sessions)
        traced = args.trace and k % 2 == 1
        undo = None
        if traced:
            tracer.current_session = k
            undo = tracer.install(pkg)
        try:
            s = wl.session(corrupt=args.corrupt and k == 0, traced=traced)
        finally:
            if undo:
                undo()
        s["traced"] = traced
        wl.check(s, tally)
        sessions.append(s)
    plain = [s for s in sessions if not s["traced"]]
    queries = [q for s in plain for q in s["query_s"]]
    occurs_s = [r for s in plain for r in s["occurs_s"]]
    print(f"# sessions={len(sessions)} (traced {len(sessions) - len(plain)}) "
          f"queries={len(queries)} timed occurs rounds={len(occurs_s)} "
          f"measured {perf_counter() - t_start:.3f} s")

    def median(samples, raw=False):
        return statistics.median(x[raw] for x in samples)

    if args.trace:
        traced = [s for s in sessions if s["traced"]]
        metrics = layer_metrics(tracer, [k for k, s in enumerate(sessions) if s["traced"]])
        metrics["trace.overhead_ratio"] = (median(s["build_s"] for s in traced)
                                           / median(s["build_s"] for s in plain))
        timed = statistics.median(s["build_s"][1] + s["weighted_build_s"][1]
                                  + sum(q[1] for q in s["query_s"]) for s in traced)
        covered = statistics.median(tracer.root_seconds(k, "cli")
                                    for k, s in enumerate(sessions) if s["traced"])
        print(f"# trace: cli spans cover {covered:.6f} s of {timed:.6f} s timed in the "
              f"builds and queries of a traced session ({covered / timed:.2%}); the layer "
              f"self times partition the cli spans")
        path = WORK / f"trace-{name}.csv"
        tracer.write(path, t_start)
        print(f"# spans: {len(tracer.name)} written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        builds = [s["build_s"] for s in plain]
        wbuilds = [s["weighted_build_s"] for s in plain]
        metrics = {
            "setup_s": wl.setup_s,
            "build_s": median(builds),
            "weighted_build_s": median(wbuilds),
            "query_s": median(queries),
            "query_p90_s": statistics.quantiles([q[0] for q in queries], n=10)[8],
            "occurs_qps": len(occurs_s) * OCCURS_PAIRS / sum(r[0] for r in occurs_s),
            "build_peak_mib": peak_mib,
        }
        raw = {
            "setup_s": wl.raw_setup_s,
            "build_s": median(builds, raw=True),
            "weighted_build_s": median(wbuilds, raw=True),
            "query_s": median(queries, raw=True),
            "query_p90_s": statistics.quantiles([q[1] for q in queries], n=10)[8],
            "occurs_qps": len(occurs_s) * OCCURS_PAIRS / sum(r[1] for r in occurs_s),
        }
        print("# raw wall time, not normalised: "
              + " ".join(f"{key}={value:.6g}" for key, value in raw.items()))
        units = END_TO_END
    for key, unit in units.items():
        print(f"{name} {key:<24} {metrics[key]:.9g} {unit}")
    failed = len(tally.problems)
    print(f"{name} {'fail_ratio':<24} {failed / tally.attempted:.9g} ratio "
          f"({failed} of {tally.attempted} operations)")
    for problem in tally.problems[:5]:
        print(f"{name} FAILED: {problem}", file=sys.stderr)
    return metrics, units, tally


def layer_metrics(tracer, sessions) -> dict:
    """Per-layer metrics of one traced session, median over ``sessions``."""
    rows = []
    for k in sessions:
        spans = tracer.session_summary(k)
        row = {metric: spans[span][1] for metric, span in LAYER_SPANS.items()}
        cells = tracer.counts[(k, "minplus.product_cells")]
        row.update({
            "trees.dp_arrays": tracer.counts[(k, "trees.dp_arrays")],
            "trees.dp_cells": tracer.counts[(k, "trees.dp_cells")],
            "minplus.product_calls": spans["minplus.product"][0],
            "minplus.product_cells": cells,
            "minplus.cells_per_s": cells / row["minplus.product_s"] if row["minplus.product_s"] else 0.0,
            "bitvec.encode_calls": spans["bitvec.encode"][0],
            "profiles.occurs_calls": spans["profiles.occurs"][0],
        })
        rows.append(row)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="inputs of a few dozen elements, for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt the first built profile, to check that the gate fails")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "jumbled" / "__init__.py").is_file():
        print(f"error: no jumbled package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result = {}
    for name in names:
        metrics, units, tally = run_workload(name, args)
        attempted += tally.attempted
        failed += len(tally.problems)
        prefix = f"{name}." if len(names) > 1 else ""
        result.update({prefix + key: {"value": metrics[key], "unit": unit}
                       for key, unit in units.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
