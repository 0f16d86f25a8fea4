"""End-to-end checks of the command-line surface, driven through main()."""

import tracemalloc

import numpy as np
import pytest

from jumbled import cli
from jumbled.inputs import (
    ParseError, gen_tree, gen_weights, parse_binary_string_text, parse_tree_text,
    parse_weights_text,
)
from jumbled.profiles import read_profile_csv
from jumbled.strings import naive_profile


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
# or token: 339 KiB for the tree and 457 KiB for the weights (a prototype's
# line map from a cumsum over the bytes set 879 KiB on the tree; the pass it
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


def test_no_subcommand_is_usage_error():
    assert run() == 2


def test_unknown_flag_is_usage_error():
    assert run("build", "--nonsense") == 2


def test_help_exits_zero():
    assert run("--help") == 0
