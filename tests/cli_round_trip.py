"""Index round trip through the CLI, for every input kind.

    PYTHONPATH=src python tests/cli_round_trip.py

For strings at n = 200000 and trees at n = 20000, 0/1 and weighted:
``jumbled gen`` an input, ``jumbled build`` its index, and check that the
index's bytes equal "%d" formatting, row by row, of the result built in
this process. Then ``jumbled query`` on the string index answers as
``occurs`` does. Prints one line per kind and exits 1 on a mismatch.
"""

import random
import subprocess
import sys
import tempfile
from pathlib import Path

from _support import csv_rows_one_at_a_time
from jumbled import (
    LabeledTree, binarize, occurs, rle_profile, rle_weighted_max_sums, simple_tree_profile,
    weighted_tree_max_sums,
)
from jumbled.inputs import parse_binary_string_text, parse_tree_text, parse_weights_text
from jumbled.profiles import CSV_HEADER, SUMS_CSV_HEADER

SIZES = {"string": 200000, "weighted-string": 200000, "tree": 20000, "weighted-tree": 20000}
BUILDS = {
    "string": lambda text: rle_profile(parse_binary_string_text(text)),
    "weighted-string": lambda text: rle_weighted_max_sums(parse_weights_text(text)),
    "tree": lambda text: simple_tree_profile(binarize(LabeledTree(*parse_tree_text(text)))),
    "weighted-tree": lambda text: weighted_tree_max_sums(
        LabeledTree(*parse_tree_text(text, weighted=True))),
}


def cli(*argv) -> str:
    return subprocess.run([sys.executable, "-m", "jumbled.cli", *argv], capture_output=True,
                          text=True, check=True).stdout


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for kind, n in SIZES.items():
            cli("gen", "--kind", kind, "--n", str(n), "--seed", "5", "--out", str(d / f"{kind}.txt"))
            cli("build", "--kind", kind, "--input", str(d / f"{kind}.txt"),
                "--out", str(d / f"{kind}.csv"))
            result = BUILDS[kind]((d / f"{kind}.txt").read_text())
            if kind.startswith("weighted"):
                want = csv_rows_one_at_a_time(SUMS_CSV_HEADER, result)
            else:
                want = csv_rows_one_at_a_time(CSV_HEADER, result.min_ones, result.max_ones)
            same = (d / f"{kind}.csv").read_bytes() == want
            print(f"{kind}: n = {n}, index bytes {'equal' if same else 'DIFFER from'} \"%d\"")
            ok &= same
        p = BUILDS["string"]((d / "string.txt").read_text())
        rng = random.Random(5)
        for _ in range(6):
            i = rng.randint(1, p.n)
            for j in (int(p.min_ones[i - 1]), int(p.max_ones[i - 1]) + 1, rng.randint(0, i)):
                out = cli("query", "--profile", str(d / "string.csv"), "-i", str(i), "-j", str(j))
                if out.strip() != ("yes" if occurs(p, i, j) else "no"):
                    print(f"query {i} {j}: got {out.strip()!r}")
                    ok = False
    print("round trip ok" if ok else "round trip FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
