"""Randomised backend equivalence through ``jumbled verify``, step by step.

    PYTHONPATH=src python tests/cli_verify.py

Runs each step below as its own ``python -m jumbled.cli verify`` process,
in order, with the environment it was started with (CI sets
PYTHONWARNINGS=error::DeprecationWarning in one job and runs an old numpy
in the other). Prints each step's wall time and exits 1 at the first step
that fails.
"""

import subprocess
import sys
import time

# (what the step checks, the arguments after "verify")
STEPS = [
    ("Tree sweep against the micro-macro reduction",
     "--kind tree --algo simple-tree --oracle micro-macro --max-n 300"),
    ("Micro-macro reduction against exhaustive enumeration",
     "--kind tree --algo micro-macro --oracle enumerate --max-n 18"),
    ("Micro-macro on trees whose arrays outgrow one convolution tile",
     "--kind tree --algo micro-macro --oracle simple-tree --max-n 3000 --seeds 30"),
    ("Tree sweep on 0/1 chains long enough for the bound sweep's reads",
     "--kind tree --algo simple-tree --oracle micro-macro --max-n 3000 --seeds 50"),
    ("Tree sweep on trees large enough for 0/1 joins of two wide arrays in the value domain",
     "--kind tree --algo simple-tree --oracle micro-macro --max-n 8000 --seeds 20"),
    ("Weighted tree sweep against enumeration",
     "--kind weighted-tree --algo simple-tree --oracle enumerate --max-n 14"),
    ("Weighted tree sweep against its build of the tree rerooted at a drawn node",
     "--kind weighted-tree --algo simple-tree --oracle rerooted --max-n 3000"),
    ("Run-boundary string sweep against the naive sweep",
     "--kind string --algo rle --oracle naive"),
    ("Run-boundary string sweep on strings long enough for several start chunks",
     "--kind string --algo rle --oracle naive --max-n 5000 --seeds 40"),
    ("Gap sweep on 0/1 strings long enough for the bound sweep's reads on their gap rows",
     "--kind string --algo rle --oracle naive --max-n 20000 --seeds 12"),
    ("Pair sweep on 0/1 strings in long runs, on both sides of its count rule",
     "--kind string --algo rle --oracle naive --max-n 40000 --seeds 12"),
    ("Run-boundary weighted sweep against the naive sweep",
     "--kind weighted-string --algo rle --oracle naive"),
    ("Bound-pruned weighted sweep on strings long enough for many tiles and bound chunks",
     "--kind weighted-string --algo rle --oracle naive --max-n 5000 --seeds 40"),
    ("Gap sweep on two-valued weights long enough for their gap rows' own block reads",
     "--kind weighted-string --algo rle --oracle naive --max-n 20000 --seeds 12"),
    ("Bound sweep's give-up on periodic weights, and its reads on weights in runs, past its floor",
     "--kind weighted-string --algo rle --oracle naive --max-n 40000 --seeds 14"),
    ("Blocked string reduction against the naive sweep",
     "--kind string --algo blocked --oracle naive"),
    ("Blocked string reduction on strings with more and larger blocks",
     "--kind string --algo blocked --oracle naive --max-n 2000 --seeds 40"),
    ("Recursive string reduction against the naive sweep",
     "--kind string --algo recursive --oracle naive"),
    ("Recursive weighted reduction against the naive sweep",
     "--kind weighted-string --algo recursive --oracle naive"),
    ("Recursive weighted reduction on both sides of its int16 switch",
     "--kind weighted-string --algo recursive --oracle naive --max-n 5000 --seeds 20"),
]


def main() -> int:
    total = time.perf_counter()
    for what, args in STEPS:
        print(f"{what}: verify {args}", flush=True)
        t0 = time.perf_counter()
        argv = [sys.executable, "-m", "jumbled.cli", "verify", *args.split()]
        code = subprocess.run(argv).returncode
        print(f"  {time.perf_counter() - t0:.2f} s", flush=True)
        if code:
            print(f"verify FAILED (exit {code}): {what}")
            return 1
    print(f"{len(STEPS)} verify steps ok in {time.perf_counter() - total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
