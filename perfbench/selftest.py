#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes. Run from the repository
root:

    python3 perfbench/selftest.py

1. Smoke pass: every workload with --trace 0 and --trace 1 exits 0, and
   prints every metric BENCHMARK.json names for that mode, with its unit,
   both in its human-readable lines and in its final JSON line.
2. Mutation check: with the first built profile corrupted, every workload
   reports fail_ratio > 0 and exits non-zero.
3. Without the package: in a directory holding only BENCHMARK.json and the
   benchmark, a run exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench" / "bare"


def run(root: Path, *args):
    """(exit code, human-readable lines split into tokens, final JSON or None)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0", *args],
                          cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, [ln.split() for ln in lines[:-1]], result


def printed(lines, name: str) -> list:
    """Tokens of the 'workload metric value unit ...' line of ``name``."""
    return next((t for t in lines if len(t) >= 4 and t[1] == name), [])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for wl in spec["workloads"]:
            where = f"{wl['name']} --trace {trace}"
            rc, lines, result = run(ROOT, "--workload", wl["name"], "--trace", str(trace))
            if rc != 0 or result is None or not result["correct"]:
                failures.append(f"{where}: exit {rc}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: JSON metrics {got} differ from {want}")
            for name, unit in want.items():
                tokens = printed(lines, name)
                if tokens[3:4] != [unit]:
                    failures.append(f"{where}: no line prints {name} in {unit}")
            if printed(lines, "fail_ratio")[2:4] != ["0", "ratio"]:
                failures.append(f"{where}: fail_ratio is not printed as 0")

    for wl in spec["workloads"]:
        rc, lines, result = run(ROOT, "--workload", wl["name"], "--corrupt")
        ratio = printed(lines, "fail_ratio")[2:3]
        if rc == 0 or not ratio or float(ratio[0]) <= 0 or result is None or result["failed"] < 1:
            failures.append(f"{wl['name']} --corrupt: exit {rc}, fail_ratio {ratio}: gate missed it")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, result = run(BARE, "--workload", spec["workloads"][0]["name"])
    if rc == 0 or result is not None:
        failures.append(f"without the package: exit {rc}, result {result}")
    shutil.rmtree(BARE)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
