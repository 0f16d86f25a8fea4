"""End-to-end checks of the command-line surface, driven through main(), and
one query run as a subprocess that reads its profile from a pipe."""

import errno
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from jumbled import cli, tools
from jumbled.inputs import (
    ParseError, _digit_values, gen_string, gen_tree, gen_weights, parse_binary_string_text,
    parse_tree_text, parse_weights_text,
)
from jumbled.profiles import read_profile_csv, write_profile_csv
from jumbled.strings import naive_profile, rle_profile


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# parsers

def test_parse_string_ignores_whitespace():
    assert parse_binary_string_text("01 1\n0\n").tolist() == [0, 1, 1, 0]


def test_parse_string_reports_position():
    with pytest.raises(ParseError) as err:
        parse_binary_string_text("0110\n01x0\n")
    assert "line 2, char 3" in str(err.value)


def test_parse_string_rejects_empty():
    with pytest.raises(ParseError):
        parse_binary_string_text("  \n \n")


def test_parse_weights():
    assert parse_weights_text("3 -4\t5\n9\n").tolist() == [3, -4, 5, 9]


def test_parse_weights_reports_position():
    with pytest.raises(ParseError) as err:
        parse_weights_text("3 4x\n")
    assert "line 1, char 3" in str(err.value)


# the digit loop on each side of int16's 4 digits and int32's 9 and at the
# 18-digit limit, signed: narrow values only if asked for, int16 if every
# run has at most 4 digits, else int32 if at most 9
@pytest.mark.parametrize("narrow", [False, True], ids=["int64", "narrow"])
@pytest.mark.parametrize("tokens", [
    ["9999", "-9999", "1000", "-1", "0", "7"],
    ["99999", "-32769", "32768", "-65536", "5", "-0"],
    ["999999999", "-999999999", "123456789", "-1", "0", "7"],
    ["9999999999", "-1000000000", "2147483648", "-2147483649", "5", "-0"],
    ["999999999999999999", "-999999999999999999", "100000000000000000", "-42"],
], ids=["4-digits", "5-digits", "9-digits", "10-digits", "18-digits"])
def test_digit_values_against_int(tokens, narrow):
    text = " ".join(tokens) + "\n"
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    runs = list(re.finditer(r"-?(\d+)", text))
    stops = np.array([m.end() for m in runs], dtype=np.int32)
    count = np.array([len(m[1]) for m in runs], dtype=np.int32)
    sign = np.array([-1 if m[0][0] == "-" else 1 for m in runs], dtype=np.int8)
    got = _digit_values(data, stops, count, sign, narrow=narrow)
    assert got.tolist() == [int(t) for t in tokens]
    width = count.max()
    assert got.dtype == (np.int64 if not narrow or width > 9 else np.int32 if width > 4 else np.int16)
    assert stops.tolist() == [m.end() for m in runs]   # moved back and forth in place


def test_parse_tree():
    parents, labels = parse_tree_text("3\n0 1\n1 0\n1 1\n")
    assert parents.tolist() == [-1, 0, 0]
    assert labels.tolist() == [1, 0, 1]


def test_parse_tree_rejects_two_roots():
    with pytest.raises(ParseError):
        parse_tree_text("2\n0 1\n0 0\n")


def test_parse_tree_rejects_self_parent():
    with pytest.raises(ParseError) as err:
        parse_tree_text("2\n0 1\n2 0\n")
    assert "line 3" in str(err.value)


def test_parse_tree_rejects_bad_label():
    with pytest.raises(ParseError):
        parse_tree_text("1\n0 7\n")
    parents, labels = parse_tree_text("1\n0 7\n", weighted=True)
    assert labels.tolist() == [7]


# The one-pass parse keeps int32 token offsets and no line number per byte
# or token: 282 KiB for the tree and 424 KiB for the weights (339 and 457
# KiB while each digit gather made its own intp index; a prototype's line
# map from a cumsum over the bytes set 879 KiB on the tree; the pass it
# replaced took 508 and 992 KiB).
@pytest.mark.parametrize("parse, text, bound_kib", [
    (parse_tree_text, gen_tree(4096, 3), 400),
    (parse_weights_text, gen_weights(16384, 3), 540),
], ids=["tree", "weights"])
def test_parse_memory_peak(parse, text, bound_kib):
    parse(text)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < bound_kib


# ---------------------------------------------------------------------------
# gen

def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("gen", "--kind", "string", "--n", "8", "--seed", "1", "--out", str(a)) == 0
    assert run("gen", "--kind", "string", "--n", "8", "--seed", "1", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()
    assert len(a.read_text().strip()) == 8


def test_gen_tree_round_trips_through_build(tmp_path):
    src = tmp_path / "t.txt"
    out = tmp_path / "t.csv"
    assert run("gen", "--kind", "tree", "--n", "5", "--seed", "3", "--out", str(src)) == 0
    parents, _ = parse_tree_text(src.read_text())
    assert len(parents) == 5
    assert (parents == -1).sum() == 1
    assert run("build", "--input", str(src), "--kind", "tree", "--out", str(out)) == 0
    assert read_profile_csv(out).n == 5


def test_gen_density_extremes(tmp_path):
    out = tmp_path / "s.txt"
    assert run("gen", "--kind", "string", "--n", "30", "--density", "0",
               "--out", str(out)) == 0
    assert set(out.read_text().strip()) == {"0"}
    assert run("gen", "--kind", "string", "--n", "30", "--density", "1",
               "--out", str(out)) == 0
    assert set(out.read_text().strip()) == {"1"}


def test_gen_rejects_bad_args(tmp_path):
    out = tmp_path / "s.txt"
    assert run("gen", "--kind", "string", "--n", "0", "--out", str(out)) == 2
    assert run("gen", "--kind", "string", "--n", "5", "--density", "1.5",
               "--out", str(out)) == 2


class _Drawn(Exception):
    """Raised by a stand-in generator: the command got past its size guard."""


def _draws_fail(monkeypatch):
    def drawn(*args, **kwargs):
        raise _Drawn

    for name in ("_verify_case", "_gen_text", "gen_string", "gen_tree", "gen_weights",
                 "random_parents"):
        monkeypatch.setattr(tools, name, drawn)


def test_sizes_past_the_ceiling_are_refused_before_drawing(tmp_path, monkeypatch, capsys):
    # 2^20 is the ceiling on every size gen, verify and bench take; a larger
    # one exits 2 with the flag named, before any input is drawn
    _draws_fail(monkeypatch)
    out = tmp_path / "x"
    for argv, flag in (
            (["gen", "--kind", "tree", "--n", "1048577", "--out", str(out)], "--n"),
            (["verify", "--algo", "rle", "--oracle", "naive", "--max-n", "99999999999"],
             "--max-n"),
            (["verify", "--kind", "weighted-tree", "--algo", "simple-tree", "--oracle",
              "rerooted", "--max-n", "1048577"], "--max-n"),
            (["bench", "--algos", "rle", "--sizes", "16,1048577", "--out", str(out)], "--sizes")):
        assert run(*argv) == 2
        assert f"error: {flag} must lie in 1..1048576, got " in capsys.readouterr().err
    assert not out.exists()
    # the ceiling itself passes the guard: the stand-ins are reached
    for argv in (["gen", "--n", "1048576", "--out", str(out)],
                 ["verify", "--algo", "rle", "--oracle", "naive", "--max-n", "1048576"],
                 ["bench", "--algos", "rle", "--sizes", "1048576", "--out", str(out)]):
        with pytest.raises(_Drawn):
            run(*argv)


# ---------------------------------------------------------------------------
# build

def test_build_naive_golden_csv(tmp_path):
    src = tmp_path / "s.txt"
    src.write_text("0110\n")
    out = tmp_path / "p.csv"
    assert run("build", "--input", str(src), "--kind", "string",
               "--algo", "naive", "--out", str(out)) == 0
    assert out.read_text().splitlines() == [
        "size,min_ones,max_ones", "1,0,1", "2,1,2", "3,2,2", "4,2,2"]


def test_build_blocked_identical_csv(tmp_path):
    src = tmp_path / "s.txt"
    src.write_text("0110\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("build", "--input", str(src), "--algo", "naive", "--out", str(a)) == 0
    assert run("build", "--input", str(src), "--algo", "blocked", "--block", "2",
               "--out", str(b)) == 0
    assert a.read_text() == b.read_text()


def test_build_blocked_past_int64_is_naive(tmp_path):
    # a block longer than any string, past int64 too, builds naive's bytes
    src = tmp_path / "s.txt"
    src.write_text("0110100111\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("build", "--input", str(src), "--algo", "naive", "--out", str(a)) == 0
    assert run("build", "--input", str(src), "--algo", "blocked",
               "--block", "99999999999999999999", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, text, argv, flag, taker", [
    ("string", "0110\n", ["--block", "22"], "--block", "blocked"),
    ("string", "0110\n", ["--algo", "recursive", "--block", "2"], "--block", "blocked"),
    ("string", "0110\n", ["--algo", "blocked", "--micro", "2"], "--micro", "micro-macro"),
    ("tree", "2\n0 1\n1 0\n", ["--micro", "2"], "--micro", "micro-macro"),
    ("tree", "2\n0 1\n1 0\n", ["--algo", "micro-macro", "--block", "2"], "--block", "blocked"),
    ("weighted-tree", "2\n0 4\n1 -3\n", ["--micro", "2"], "--micro", "micro-macro"),
])
def test_build_refuses_a_parameter_its_backend_ignores(tmp_path, capsys, kind, text, argv,
                                                       flag, taker):
    src, out = tmp_path / "in.txt", tmp_path / "p.csv"
    src.write_text(text)
    assert run("build", "--input", str(src), "--kind", kind, *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert flag in err and taker in err
    assert not out.exists()


def test_build_micro_macro_takes_micro(tmp_path):
    src, a, b = tmp_path / "t.txt", tmp_path / "a.csv", tmp_path / "b.csv"
    src.write_text("4\n0 1\n1 0\n1 1\n2 1\n")
    assert run("build", "--input", str(src), "--kind", "tree", "--out", str(a)) == 0
    assert run("build", "--input", str(src), "--kind", "tree", "--algo", "micro-macro",
               "--micro", "1", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()


def test_build_empty_input_fails(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    assert run("build", "--input", str(src), "--out", str(tmp_path / "p.csv")) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


def test_build_missing_input_fails(tmp_path):
    assert run("build", "--input", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "p.csv")) == 2


def test_build_rejects_mismatched_algo(tmp_path):
    src = tmp_path / "s.txt"
    src.write_text("0110\n")
    assert run("build", "--input", str(src), "--kind", "string",
               "--algo", "simple-tree", "--out", str(tmp_path / "p.csv")) == 2


def test_build_weighted_string_sums(tmp_path):
    src = tmp_path / "w.txt"
    src.write_text("2 -1 3\n")
    out = tmp_path / "w.csv"
    assert run("build", "--input", str(src), "--kind", "weighted-string",
               "--out", str(out)) == 0
    assert out.read_text().splitlines() == ["size,max_sum", "1,3", "2,2", "3,4"]


def test_build_weighted_tree_sums(tmp_path):
    src = tmp_path / "t.txt"
    src.write_text("3\n0 2\n1 -1\n2 3\n")   # path with weights 2,-1,3
    out = tmp_path / "t.csv"
    assert run("build", "--input", str(src), "--kind", "weighted-tree",
               "--out", str(out)) == 0
    assert out.read_text().splitlines() == ["size,max_sum", "1,3", "2,2", "3,4"]


@pytest.mark.parametrize("kind, text, where", [
    ("weighted-string", "1 99999999999999999999999\n", "line 1, char 3"),
    ("weighted-tree", "2\n0 1\n1 99999999999999999999999\n", "line 3, char 3"),
], ids=["weighted-string", "weighted-tree"])
def test_build_rejects_weights_beyond_int64(tmp_path, capsys, kind, text, where):
    src = tmp_path / "w.txt"
    src.write_text(text)
    assert run("build", "--input", str(src), "--kind", kind,
               "--out", str(tmp_path / "w.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert where in err


# the default of each kind is the backend measured fastest; the paper's
# reductions stay reachable through --algo
@pytest.mark.parametrize("kind, table, default, text, rows", [
    ("string", "STRING_BACKENDS", "rle", "0110\n",
     ["size,min_ones,max_ones", "1,0,1", "2,1,2", "3,2,2", "4,2,2"]),
    ("weighted-string", "WEIGHTED_STRING_BACKENDS", "rle", "2 -1 3\n",
     ["size,max_sum", "1,3", "2,2", "3,4"]),
    ("tree", "TREE_BACKENDS", "simple-tree", "3\n0 1\n1 0\n2 1\n",
     ["size,min_ones,max_ones", "1,0,1", "2,1,1", "3,2,2"]),
    ("weighted-tree", "WEIGHTED_TREE_BACKENDS", "simple-tree", "3\n0 2\n1 -1\n2 3\n",
     ["size,max_sum", "1,3", "2,2", "3,4"]),
], ids=["string", "weighted-string", "tree", "weighted-tree"])
def test_build_default_backend(tmp_path, monkeypatch, kind, table, default, text, rows):
    backends = getattr(cli, table)
    backend = backends[default]
    calls = []

    def recording(value, param=None):
        calls.append(param)
        return backend(value, param)

    monkeypatch.setitem(backends, default, recording)
    src, out = tmp_path / "in.txt", tmp_path / "out.csv"
    src.write_text(text)
    assert run("build", "--input", str(src), "--kind", kind, "--out", str(out)) == 0
    assert calls == [None]
    assert out.read_text().splitlines() == rows


# tracemalloc peaks of a default build as a user runs it: parse, build and
# write. With the prefix 1-counts in int16 and size_w made on read, 372 KiB
# for a 16384-bit i.i.d. string (468 KiB with int64 prefix 1-counts) and
# 722 KiB for a random recursive 0/1 tree of 4096 nodes (763 KiB with a
# stored size_w); the bounds leave the margin of the other peak tests
@pytest.mark.parametrize("kind, text, bound_kib", [
    ("string", gen_string(16384, 1), 430),
    ("tree", gen_tree(4096, 1), 835),
], ids=["string", "tree"])
def test_build_memory_peak(tmp_path, kind, text, bound_kib):
    src, out = tmp_path / "in.txt", tmp_path / "out.csv"
    src.write_text(text)
    argv = ("build", "--input", str(src), "--kind", kind, "--out", str(out))
    assert run(*argv) == 0   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < bound_kib


# tracemalloc peak of a query on a 16384-row index: the file and one 64 KiB
# chunk's temporaries of the byte pass, which keeps only the queried row,
# 516 KiB (599 KiB while each digit gather made its own intp index, 911 KiB
# while a query kept both columns and read int64 digit values); the bound
# leaves the margin of the other peak tests
def test_query_memory_peak(tmp_path):
    index = tmp_path / "p.csv"
    write_profile_csv(rle_profile(np.random.default_rng(3).integers(0, 2, 16384)), index)
    argv = ("query", "--profile", str(index), "-i", "5000", "-j", "2500")
    assert run(*argv) == 0   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < 692


@pytest.mark.parametrize("links", [{"a": "a"}, {"b": "b1", "b1": "b"}], ids=["self", "pair"])
def test_build_to_a_symlink_loop_fails_at_once(tmp_path, links):
    # open fails with ELOOP; the walk over the links must not spin
    d, src = tmp_path / "out", tmp_path / "s.txt"
    d.mkdir()
    for name, target in links.items():
        os.symlink(target, d / name)
    src.write_text("0110\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "jumbled.cli", "build", "--input", str(src),
                           "--out", str(d / next(iter(links)))],
                          capture_output=True, env=env, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 2 and err.startswith("error: ") and os.strerror(errno.ELOOP) in err
    assert sorted(os.listdir(d)) == sorted(links)   # no .tmp-* file
    assert {name: os.readlink(d / name) for name in links} == links


# ---------------------------------------------------------------------------
# query

def test_query_yes_no(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("0110\n")
    out = tmp_path / "p.csv"
    run("build", "--input", str(src), "--out", str(out))
    assert run("query", "--profile", str(out), "-i", "2", "-j", "1") == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert run("query", "--profile", str(out), "-i", "2", "-j", "0") == 0
    assert capsys.readouterr().out.strip() == "no"
    assert run("query", "--profile", str(out), "-i", "99", "-j", "0") == 0
    assert capsys.readouterr().out.strip() == "no"


def test_query_round_trip_matches_memory(tmp_path, capsys):
    src = tmp_path / "s.txt"
    out = tmp_path / "p.csv"
    run("gen", "--kind", "string", "--n", "48", "--seed", "11", "--out", str(src))
    run("build", "--input", str(src), "--out", str(out))
    p = naive_profile(src.read_text().strip())
    for i in (1, 5, 24, 48, 49):
        for j in (0, 3, 24):
            run("query", "--profile", str(out), "-i", str(i), "-j", str(j))
            shown = capsys.readouterr().out.strip()
            assert (shown == "yes") == p.occurs(i, j)


def test_query_reads_a_piped_profile_once(tmp_path):
    # a pipe can be read only once: a second open of /dev/stdin finds it
    # empty, and a warning about that fails the query under
    # PYTHONWARNINGS=error
    src, out = tmp_path / "s.txt", tmp_path / "p.csv"
    run("gen", "--kind", "string", "--n", "3000", "--seed", "4", "--out", str(src))
    run("build", "--input", str(src), "--out", str(out))
    p = read_profile_csv(out)
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    lo, hi = p.min_ones.tolist(), p.max_ones.tolist()
    for i, j in ((1, 0), (1, 2), (1500, lo[1499]), (1500, hi[1499] + 1), (3000, hi[2999])):
        proc = subprocess.run([sys.executable, "-m", "jumbled.cli", "query", "--profile",
                               "/dev/stdin", "-i", str(i), "-j", str(j)],
                              input=out.read_bytes(), capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().strip() == ("yes" if p.occurs(i, j) else "no")


def test_query_missing_profile(tmp_path):
    assert run("query", "--profile", str(tmp_path / "nope.csv"),
               "-i", "1", "-j", "0") == 2


def test_build_non_utf8_input_fails(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_bytes(b"01\xff0\n")
    assert run("build", "--input", str(src), "--out", str(tmp_path / "p.csv")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_query_non_utf8_profile_fails(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"size,min_ones,max_ones\n1,0,\xff\n")
    assert run("query", "--profile", str(bad), "-i", "1", "-j", "0") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_query_corrupt_profile(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("size,min_ones,max_ones\n1,1,0\n")
    assert run("query", "--profile", str(bad), "-i", "1", "-j", "0") == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_self_comparison(capsys):
    assert run("verify", "--algo", "naive", "--oracle", "naive",
               "--max-n", "40", "--seeds", "5", "--kind", "string") == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_blocked_vs_naive(capsys):
    assert run("verify", "--algo", "blocked", "--oracle", "naive",
               "--max-n", "80", "--seeds", "20", "--kind", "string") == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_tree_backends(capsys):
    assert run("verify", "--algo", "micro-macro", "--oracle", "simple-tree",
               "--max-n", "60", "--seeds", "10", "--kind", "tree") == 0
    assert run("verify", "--algo", "simple-tree", "--oracle", "enumerate",
               "--max-n", "10", "--seeds", "10", "--kind", "tree") == 0
    capsys.readouterr()


def test_verify_weighted_string(capsys):
    assert run("verify", "--algo", "recursive", "--oracle", "naive",
               "--max-n", "60", "--seeds", "10", "--kind", "weighted-string") == 0
    capsys.readouterr()


def test_verify_weighted_tree_against_enumeration(tmp_path, capsys):
    assert run("verify", "--algo", "simple-tree", "--oracle", "enumerate",
               "--max-n", "14", "--seeds", "40", "--kind", "weighted-tree") == 0
    assert "0 mismatches (weighted-tree: simple-tree vs enumerate" in capsys.readouterr().out
    # enumerate is verify-only: build refuses it
    src = tmp_path / "w.txt"
    src.write_text("2\n0 3\n1 -4\n")
    assert run("build", "--input", str(src), "--kind", "weighted-tree", "--algo", "enumerate",
               "--out", str(tmp_path / "o.csv")) == 2


def test_verify_rerooted_oracle(tmp_path, monkeypatch, capsys):
    # the default build of the tree rerooted at a drawn node, verify-only
    for kind in ("tree", "weighted-tree"):
        assert run("verify", "--algo", "simple-tree", "--oracle", "rerooted",
                   "--max-n", "120", "--seeds", "12", "--kind", kind) == 0
        assert f"0 mismatches ({kind}: simple-tree vs rerooted" in capsys.readouterr().out
    src = tmp_path / "w.txt"
    src.write_text("2\n0 3\n1 -4\n")
    assert run("build", "--input", str(src), "--kind", "weighted-tree", "--algo", "rerooted",
               "--out", str(tmp_path / "o.csv")) == 2
    capsys.readouterr()
    roots = []

    def rerooted(t, param=None):
        roots.append(param)
        sums = cli.weighted_tree_max_sums(t.rerooted(param))
        sums[-1] += 1   # the sum of the whole tree
        return sums

    monkeypatch.setitem(cli.WEIGHTED_TREE_BACKENDS, "rerooted", rerooted)
    assert run("verify", "--algo", "simple-tree", "--oracle", "rerooted",
               "--max-n", "40", "--seeds", "3", "--kind", "weighted-tree") == 1
    assert "mismatch" in capsys.readouterr().out
    assert len(roots) == 1 and roots[0] >= 0


def test_verify_enumerate_size_cap():
    assert run("verify", "--algo", "simple-tree", "--oracle", "enumerate",
               "--max-n", "25", "--seeds", "2", "--kind", "tree") == 2


def test_verify_unknown_backend():
    assert run("verify", "--algo", "nonesuch", "--oracle", "naive",
               "--kind", "string") == 2


def test_verify_catches_broken_backend(monkeypatch, capsys):
    def broken(s, param=None):
        p = naive_profile(s)
        bad = p.max_ones.copy()
        bad[0] = min(bad[0] + 1, 1)
        bad[-1] += 1
        return type(p)(p.min_ones, bad)

    monkeypatch.setitem(cli.STRING_BACKENDS, "blocked", broken)
    rc = run("verify", "--algo", "blocked", "--oracle", "naive",
             "--max-n", "30", "--seeds", "10", "--kind", "string")
    assert rc == 1
    out = capsys.readouterr().out
    assert "mismatch" in out
    assert "expected" in out


# ---------------------------------------------------------------------------
# bench

def _bench_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,algo,n,param,seconds,peak_bytes"
    return [ln.split(",") for ln in lines[1:]]


def test_bench_schema(tmp_path):
    out = tmp_path / "b.csv"
    assert run("bench", "--kinds", "string", "--algos", "naive,blocked",
               "--sizes", "32,64,128", "--out", str(out)) == 0
    rows = _bench_rows(out)
    combos = {(r[1], r[2]) for r in rows}
    assert combos == {(a, str(n)) for a in ("naive", "blocked")
                      for n in (32, 64, 128)}
    for row in rows:
        assert len(row) == 6
        float(row[4])          # seconds parse
        assert int(row[5]) > 0


def test_bench_space_separated_lists(tmp_path):
    out = tmp_path / "b.csv"
    assert run("bench", "--kinds", "string", "tree",
               "--algos", "naive", "simple-tree", "--sizes", "16", "32",
               "--out", str(out)) == 0
    rows = _bench_rows(out)
    assert {(r[0], r[1]) for r in rows} == {("string", "naive"),
                                            ("tree", "simple-tree")}


def test_bench_repeat_same_schema(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("bench", "--kinds", "string", "--algos", "naive",
            "--sizes", "16")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert [r[:4] for r in _bench_rows(a)] == [r[:4] for r in _bench_rows(b)]


def test_bench_times_untraced_builds(tmp_path, monkeypatch):
    # tracemalloc slows builds several times over; each row needs one
    # build that runs without it, the one whose time is reported
    tracing = []

    def recording(s, param=None):
        tracing.append(tracemalloc.is_tracing())
        return naive_profile(s)

    monkeypatch.setitem(cli.STRING_BACKENDS, "naive", recording)
    out = tmp_path / "b.csv"
    assert run("bench", "--kinds", "string", "--algos", "naive",
               "--sizes", "16,32", "--out", str(out)) == 0
    rows = _bench_rows(out)
    assert len(rows) == 2
    assert tracing.count(False) == len(rows)
    assert all(int(r[5]) > 0 for r in rows)


def test_bench_rejects_junk(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("bench", "--kinds", "string", "--algos", "naive",
               "--sizes", "12x", "--out", str(out)) == 2
    assert run("bench", "--kinds", "plasma", "--algos", "naive",
               "--sizes", "16", "--out", str(out)) == 2
    assert run("bench", "--kinds", "tree", "--algos", "blocked",
               "--sizes", "16", "--out", str(out)) == 2   # no usable combo
    capsys.readouterr()
    # a misspelt entry is named, not dropped while the others run
    assert run("bench", "--kinds", "string", "--algos", "naive,nave",
               "--sizes", "16", "--out", str(out)) == 2
    assert "'nave'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# top level

def test_successive_calls_share_no_options(tmp_path, monkeypatch, capsys):
    calls = {"rle": [], "naive": [], "blocked": []}
    for name in calls:
        def recording(value, param=None, name=name, backend=cli.STRING_BACKENDS[name]):
            calls[name].append(param)
            return backend(value, param)
        monkeypatch.setitem(cli.STRING_BACKENDS, name, recording)
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    src, out = tmp_path / "s.txt", tmp_path / "p.csv"
    src.write_text("0110\n")
    assert run("build", "--input", str(src), "--algo", "blocked", "--block", "3",
               "--out", str(out)) == 0
    assert run("build", "--input", str(src), "--out", str(out)) == 0
    assert calls == {"blocked": [3], "rle": [None], "naive": []}
    assert out.read_text().splitlines()[1:] == ["1,0,1", "2,1,2", "3,2,2", "4,2,2"]
    capsys.readouterr()
    assert run("query", "--profile", str(out), "-i", "2", "-j", "1") == 0
    assert capsys.readouterr().out == "yes\n"
    assert run("verify", "--algo", "naive", "--oracle", "recursive",
               "--seeds", "2", "--max-n", "8") == 0
    assert capsys.readouterr().out == (
        "verify: 2 cases, 0 mismatches (string: naive vs recursive, n <= 8)\n")
    assert calls == {"blocked": [3], "rle": [None], "naive": [None, None]}
    assert len(builds) <= 1  # the parser is built at most once per process


def _main_parsing_every_argument(argv):
    """main's reference: the top-level parser parses all of argv, then the
    command runs."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


# a known command goes straight to its own parser: help, errors and exit
# codes stay those of the top-level parse, which still reports extra arguments
@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["query", "-h"],
    ["query"],
    ["query", "--profile", "{index}", "-i", "x", "-j", "0"],
    ["query", "--profile", "{index}", "-i", "2", "-j", "1", "extra"],
    ["query", "--profile", "{index}", "-i", "2", "-j", "1"],
    ["frobnicate", "--profile", "{index}"],
    ["build", "--block", "0", "--input", "{src}", "--out", "{index}"],
], ids=["none", "help", "query-help", "query-no-options", "bad-int", "extra-argument",
        "query", "unknown-command", "build-block-0"])
def test_dispatch_matches_the_top_level_parse(tmp_path, capsys, argv):
    src, index = tmp_path / "s.txt", tmp_path / "p.csv"
    src.write_text("0110\n")
    assert run("build", "--input", str(src), "--out", str(index)) == 0
    argv = [a.format(src=src, index=index) for a in argv]
    capsys.readouterr()
    got = (cli.main(argv), *capsys.readouterr())
    assert got == (_main_parsing_every_argument(argv), *capsys.readouterr())


def test_no_subcommand_is_usage_error():
    assert run() == 2


def test_unknown_flag_is_usage_error():
    assert run("build", "--nonsense") == 2


def test_help_exits_zero():
    assert run("--help") == 0
