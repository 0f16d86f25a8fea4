"""Index round trip through the CLI, for every input kind.

    PYTHONPATH=src python tests/cli_round_trip.py

For strings at n = 200000 and trees at n = 20000, 0/1 and weighted, and
0/1 strings on both sides of the int16 limit of their prefix 1-counts (n =
32767, i.i.d. and all 1s, and n = 32768): ``jumbled gen`` an input,
``jumbled build`` its index, and check that the index's bytes equal "%d"
formatting, row by row, of the result built in this process. Those short
strings' profiles must also equal naive_profile's. The weighted inputs are
built again with CRLF line ends and with tabs between fields, and must
give the same index bytes, so that the parser's whitespace handling and
its int32 offsets run on every numpy the script runs on. On every 0/1 index, ``jumbled query`` answers as
``occurs`` does. At n = 32767 and 32768 it also answers so on a CRLF copy
of the index, and on a copy with one row corrupted far from the queried
size it exits 2 and names that row's line. At n = 200000 it also answers
so at the sizes where a field gains a digit (9/10 up to 99999/100000),
and on a copy with one row past 9999 cut to a 4-digit size it exits 2 and
names that line. Prints one line per input and exits 1 on a mismatch.
"""

import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from _support import csv_rows_one_at_a_time
from jumbled import (
    LabeledTree, binarize, occurs, rle_profile, rle_weighted_max_sums, simple_tree_profile,
    weighted_tree_max_sums,
)
from jumbled.inputs import parse_binary_string_text, parse_tree_text, parse_weights_text
from jumbled.profiles import CSV_HEADER, SUMS_CSV_HEADER
from jumbled.strings import naive_profile

# (kind, n, density of 1s)
INPUTS = [("string", 200000, 0.5), ("weighted-string", 200000, 0.5), ("tree", 20000, 0.5),
          ("weighted-tree", 20000, 0.5), ("string", 32767, 0.5), ("string", 32767, 1.0),
          ("string", 32768, 0.5)]
BUILDS = {
    "string": lambda text: rle_profile(parse_binary_string_text(text)),
    "weighted-string": lambda text: rle_weighted_max_sums(parse_weights_text(text)),
    "tree": lambda text: simple_tree_profile(binarize(LabeledTree(*parse_tree_text(text)))),
    "weighted-tree": lambda text: weighted_tree_max_sums(
        LabeledTree(*parse_tree_text(text, weighted=True))),
}

PARSES = {
    "weighted-string": lambda text: (parse_weights_text(text),),
    "weighted-tree": lambda text: parse_tree_text(text, weighted=True),
}


def cli(*argv, stdin=None) -> str:
    return subprocess.run([sys.executable, "-m", "jumbled.cli", *argv], input=stdin,
                          capture_output=True, text=True, check=True).stdout


def same_answer(p, what: str, i: int, j: int, *argv, stdin=None) -> bool:
    """True if ``jumbled query`` with ``argv`` answers (i, j) as occurs does
    on ``p``; prints a mismatch."""
    out = cli("query", *argv, "-i", str(i), "-j", str(j), stdin=stdin).strip()
    if out != ("yes" if occurs(p, i, j) else "no"):
        print(f"{what} {i} {j}: got {out!r}")
        return False
    return True


def same_index_from_spacing(src: Path, index: Path, kind: str) -> bool:
    """Builds the weighted input ``src`` with CRLF line ends and with tabs
    for spaces; True if both indexes equal ``index`` byte for byte. The CLI
    reads its input with universal newlines, so each copy is also parsed
    here as it is, carriage returns included, against the canonical text."""
    text = src.read_text()
    want = index.read_bytes()
    ok = True
    for name, variant in (("CRLF", text.replace("\n", "\r\n")), ("tabs", text.replace(" ", "\t"))):
        copy, out = src.with_suffix(f".{name}.txt"), src.with_suffix(f".{name}.csv")
        copy.write_bytes(variant.encode("ascii"))
        cli("build", "--kind", kind, "--input", str(copy), "--out", str(out))
        same = out.read_bytes() == want
        same_parse = all(map(np.array_equal, PARSES[kind](variant), PARSES[kind](text)))
        print(f"{kind} with {name}: index bytes {'equal' if same else 'DIFFER from'} the "
              f"canonical; parse {'equal' if same_parse else 'DIFFERS'}")
        ok &= same and same_parse
    return ok


def same_answers(p, index: Path, what: str, rng: random.Random) -> bool:
    """True if ``jumbled query`` on ``index`` answers as occurs does on
    ``p``, at both ends of the interval and at random counts, from the
    file and through a pipe, which the reader can read only once."""
    good = True
    for _ in range(6):
        i = rng.randint(1, p.n)
        for j in (int(p.min_ones[i - 1]), int(p.max_ones[i - 1]) + 1, rng.randint(0, i)):
            good &= same_answer(p, f"{what} query", i, j, "--profile", str(index))
    good &= same_answer(p, f"{what} query through a pipe", i, j, "--profile", "/dev/stdin",
                        stdin=index.read_text())
    print(f"{what}: queries {'answer as occurs does' if good else 'DIFFER from occurs'}")
    return good


def same_answers_on_copies(p, index: Path, what: str, rng: random.Random) -> bool:
    """True if ``jumbled query`` answers as occurs does on ``p`` from a CRLF
    copy of ``index``, and if on a copy whose row r, far from the queried
    size, has max > size it exits 2 naming line r + 1; prints a mismatch."""
    crlf, bad = index.with_suffix(".crlf.csv"), index.with_suffix(".bad.csv")
    data = index.read_bytes()
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    i = rng.randint(1, 100)
    good = same_answer(p, f"{what} query on a CRLF copy", i, int(p.min_ones[i - 1]),
                       "--profile", str(crlf))
    lines = data.split(b"\n")
    r = p.n - rng.randint(0, 100)
    lines[r] = b"%d,%d,%d" % (r, p.min_ones[r - 1], r + 1)
    bad.write_bytes(b"\n".join(lines))
    proc = subprocess.run([sys.executable, "-m", "jumbled.cli", "query", "--profile", str(bad),
                           "-i", str(i), "-j", "0"], capture_output=True, text=True)
    named = proc.returncode == 2 and proc.stderr.startswith(f"error: line {r + 1}: ")
    if not named:
        print(f"{what} query on row {r} corrupted: exit {proc.returncode}, {proc.stderr!r}")
    print(f"{what}: a CRLF copy {'answers' if good else 'DOES NOT answer'} as occurs does; "
          f"a corrupted row {'is' if named else 'is NOT'} named")
    return good and named


def same_answers_at_digit_edges(p, index: Path, what: str, rng: random.Random) -> bool:
    """True if ``jumbled query`` on ``index`` answers as occurs does at the
    sizes where a field gains a digit (9 and 10, 99 and 100, ... up to n),
    at both ends of their intervals, and if on a copy whose row r past 9999
    has its size cut to its last 4 digits it exits 2 naming line r + 1;
    prints a mismatch."""
    good = True
    for digits in range(1, len(str(p.n))):
        for i in (10 ** digits - 1, 10 ** digits):
            for j in (int(p.min_ones[i - 1]), int(p.max_ones[i - 1]) + 1):
                good &= same_answer(p, f"{what} query at a digit edge", i, j,
                                    "--profile", str(index))
    bad = index.with_suffix(".cut.csv")
    lines = index.read_bytes().split(b"\n")
    r = rng.randint(10000, p.n)
    lines[r] = b"%s,%d,%d" % (str(r)[-4:].encode(), p.min_ones[r - 1], p.max_ones[r - 1])
    bad.write_bytes(b"\n".join(lines))
    proc = subprocess.run([sys.executable, "-m", "jumbled.cli", "query", "--profile", str(bad),
                           "-i", "1", "-j", "0"], capture_output=True, text=True)
    named = proc.returncode == 2 and proc.stderr.startswith(f"error: line {r + 1}: ")
    if not named:
        print(f"{what} query on row {r} cut to 4 digits: exit {proc.returncode}, {proc.stderr!r}")
    print(f"{what}: queries at the digit edges {'answer' if good else 'DO NOT answer'} as "
          f"occurs does; a size cut to 4 digits {'is' if named else 'is NOT'} named")
    return good and named


def main() -> int:
    ok = True
    rng = random.Random(5)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for kind, n, density in INPUTS:
            what = f"{kind}, n = {n}" + (f", density {density}" if density != 0.5 else "")
            src, index = d / f"{kind}-{n}-{density}.txt", d / f"{kind}-{n}-{density}.csv"
            cli("gen", "--kind", kind, "--n", str(n), "--seed", "5", "--density", str(density),
                "--out", str(src))
            cli("build", "--kind", kind, "--input", str(src), "--out", str(index))
            result = BUILDS[kind](src.read_text())
            if kind.startswith("weighted"):
                want = csv_rows_one_at_a_time(SUMS_CSV_HEADER, result)
            else:
                want = csv_rows_one_at_a_time(CSV_HEADER, result.min_ones, result.max_ones)
            same = index.read_bytes() == want
            print(f"{what}: index bytes {'equal' if same else 'DIFFER from'} \"%d\"")
            ok &= same
            if kind == "string" and n <= 32768:
                same = result == naive_profile(parse_binary_string_text(src.read_text()))
                print(f"{what}: profile {'equals' if same else 'DIFFERS from'} naive_profile's")
                ok &= same
                ok &= same_answers_on_copies(result, index, what, rng)
            if kind.startswith("weighted"):
                ok &= same_index_from_spacing(src, index, kind)
            else:
                ok &= same_answers(result, index, what, rng)
            if kind == "string" and n >= 100000:
                ok &= same_answers_at_digit_edges(result, index, what, rng)
    print("round trip ok" if ok else "round trip FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
