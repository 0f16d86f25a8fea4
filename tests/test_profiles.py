import copy
import dataclasses
import errno
import os
import pickle
import random
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

from jumbled import profiles
from jumbled.inputs import ParseError
from jumbled.minplus import INF, NEG_INF
from jumbled.profiles import (
    CSV_HEADER, SUMS_CSV_HEADER, Profile, occurs,
    read_profile_csv, write_profile_csv, write_sums_csv,
)
from jumbled.inputs import random_parents
from jumbled.strings import naive_profile, rle_profile
from jumbled.trees import LabeledTree, binarize, simple_tree_profile
from _support import csv_rows_one_at_a_time, profile_csv_by_lines


def _p(mins, maxs):
    return Profile(np.asarray(mins, dtype=np.int64), np.asarray(maxs, dtype=np.int64))


def test_occurs_inside_and_outside_the_interval():
    p = naive_profile("0110")
    assert occurs(p, 2, 1) is True
    assert occurs(p, 2, 0) is False
    assert occurs(p, 5, 0) is False   # size exceeds the text
    assert occurs(p, 99, 0) is False
    assert occurs(p, 0, 0) is False
    assert occurs(p, 1, -1) is False


def test_occurs_method_delegates():
    p = naive_profile("0110")
    assert p.occurs(4, 2) is True
    assert p.occurs(4, 1) is False


@pytest.mark.parametrize("mins, maxs", [
    (np.array([0, 0, 1, 1]), np.array([1, 2, 2, 3])),
    (np.array([0, 0, 1, 1], dtype=np.int16), np.array([1, 2, 2, 3], dtype=np.int16)),
    (np.array([0, 0, 1, 1], dtype=bool), np.array([1, 1, 1, 1], dtype=bool)),
    (np.array([0, 9, 0, 9, 1, 9, 1, 9])[::2], np.array([1, 9, 2, 9, 2, 9, 3, 9])[::2]),
], ids=["int64", "int16", "bool", "strided"])
def test_occurs_on_arrays_of_any_integer_dtype(mins, maxs):
    p = Profile(mins, maxs)
    assert p.min_ones.flags.c_contiguous == mins.flags.c_contiguous   # strided stays
    lows, highs = mins.astype(np.int64).tolist(), maxs.astype(np.int64).tolist()
    for i in range(-1, p.n + 2):
        for j in range(-1, p.n + 2):
            want = 1 <= i <= p.n and lows[i - 1] <= j <= highs[i - 1]
            assert occurs(p, i, j) is want
            assert p.occurs(i, j) is want


@pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8, np.intp])
def test_occurs_takes_integers_of_any_type(kind):
    p = naive_profile("0110")   # min 0 0 1 2, max 1 2 2 2
    n = p.n
    for i in range(0, n + 2):
        for j in range(0, n + 2):
            want = 1 <= i <= n and int(p.min_ones[i - 1]) <= j <= int(p.max_ones[i - 1])
            assert occurs(p, kind(i), kind(j)) is want
            assert p.occurs(kind(i), j) is want
    if kind is not np.uint8:
        assert occurs(p, kind(-1), kind(0)) is False
        assert occurs(p, kind(2), kind(-1)) is False
    assert occurs(p, True, True) is True     # size 1 holds a 1
    assert occurs(p, True, False) is True
    assert occurs(p, False, False) is False
    assert occurs(p, 2, np.bool_(True)) is True


@pytest.mark.parametrize("j", [1.5, np.float64(1.5), float("nan")], ids=["1.5", "float64", "nan"])
def test_occurs_answers_false_for_a_count_that_is_not_an_integer(j, tmp_path):
    # n = 4; size 2 holds 0 to 2 ones, so 1.5 lies inside its interval, and
    # size 4 holds 2, so 1.5 lies outside; nan compares inside no interval
    p = naive_profile("0110")
    write_profile_csv(p, tmp_path / "p.csv")
    for i in (2, 4, 1, 0, 5):
        assert occurs(p, i, j) is False, i
        assert p.occurs(i, j) is False, i
        assert profiles._occurs_in_csv(tmp_path / "p.csv", i, j) is False, i
    # an integral float answers as its integer
    assert occurs(p, 2, 1.0) is True
    assert p.occurs(4, np.float64(2.0)) is True
    assert occurs(p, 4, 1.0) is False


@pytest.mark.parametrize("i", [1.5, 2.0, np.float64(3.0), 0.5, "2",
                               4.5, -0.5, np.float64(5.0)])
def test_occurs_refuses_a_size_that_is_not_an_integer(i):
    # inside 1..n and outside it (n = 4: 4.5, -0.5 and n + 1 as a float)
    p = naive_profile("0110")
    with pytest.raises(TypeError):
        occurs(p, i, 1)
    with pytest.raises(TypeError):
        p.occurs(i, 0)


@pytest.mark.parametrize("clone", [
    lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy, dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])
def test_profile_clones_after_a_query(clone):
    p = naive_profile("011010")
    assert p.occurs(3, 2) is True   # makes the cached views
    q = clone(p)
    assert q == p
    assert [q.occurs(i, j) for i in range(8) for j in range(8)] == \
        [p.occurs(i, j) for i in range(8) for j in range(8)]


def test_occurs_reads_the_arrays_it_was_given():
    # the views share the arrays' buffers: a write shows in the next query
    mins, maxs = np.array([0, 1]), np.array([1, 1])
    p = Profile(mins, maxs)
    assert "_views" not in vars(p)   # made on the first query, not by a build
    assert p.occurs(2, 2) is False
    maxs[1] = 2
    assert p.occurs(2, 2) is True


def test_profile_equality_and_n():
    p = _p([0], [1])
    assert p.n == 1
    assert p == _p([0], [1])
    assert p != _p([1], [1])


@pytest.mark.parametrize("mins, maxs", [
    ([0.5, 1.7], [1, 2.9]),
    ([2 ** 70], [1]),
    ([0], [2.0 ** 63]),
])
def test_profile_refuses_values_outside_int64(mins, maxs):
    with pytest.raises(ValueError):
        Profile(mins, maxs)


def test_profile_takes_integral_values_of_any_dtype():
    p = Profile([0.0, 1.0], np.array([1, 2], dtype=np.int16))
    assert p.min_ones.dtype == p.max_ones.dtype == np.int64
    assert p == _p([0, 1], [1, 2])


def test_csv_round_trip(tmp_path):
    p = naive_profile("0110100111")
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert read_profile_csv(path) == p


def test_csv_golden_rows(tmp_path):
    path = tmp_path / "p.csv"
    write_profile_csv(naive_profile("0110"), path)
    assert path.read_text().splitlines() == [
        "size,min_ones,max_ones",
        "1,0,1",
        "2,1,2",
        "3,2,2",
        "4,2,2",
    ]


# every class of row the reader refuses, each after the good rows "1,0,1"
# and "2,1,1" unless it needs to come first; line N is the file's 1-based line
@pytest.mark.parametrize("body, line", [
    ("1,0,1\n\n2,1,1\n", 3),
    ("1,0,1\n2,1\n", 3),
    ("1,0,1\n2,1,1,1\n", 3),
    ("1,0,1\n2,1,1\n3,a,2\n", 4),
    ("1,0,1\n2,1.0,1\n", 3),
    ("1,0,1\n2,1,99999999999999999999\n", 3),
    ("1,0,1\n2,1,1\n4,1,2\n", 4),
    ("1,0,1\n2,-1,1\n", 3),
    ("1,0,1\n2,2,1\n", 3),
    ("1,0,1\n2,1,3\n", 3),
    ("", 2),
], ids=["blank-line", "two-fields", "four-fields", "non-integer", "float",
        "beyond-int64", "size-gap", "negative-min", "min-above-max",
        "max-above-size", "header-only"])
def test_csv_rejection_names_the_line(tmp_path, body, line):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n" + body)
    with pytest.raises(ParseError) as err:
        read_profile_csv(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


def _random_tree(n):
    rng = random.Random(n)
    return LabeledTree(random_parents(n, rng), [rng.randint(0, 1) for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 257, 16384])
@pytest.mark.parametrize("build", [
    lambda n: naive_profile("".join(random.Random(n).choice("01") for _ in range(n))),
    lambda n: simple_tree_profile(binarize(_random_tree(n))),
], ids=["naive", "simple-tree"])
def test_csv_round_trip_sizes(tmp_path, build, n):
    p = build(n)
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    got = read_profile_csv(path)
    assert got == p and got.n == n
    for arr in (got.min_ones, got.max_ones):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("size,min,max\n1,0,1\n")
    with pytest.raises(ParseError) as err:
        read_profile_csv(path)
    assert "line 1" in str(err.value)


def test_csv_rejects_gap_in_sizes(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n1,0,1\n3,0,1\n")
    with pytest.raises(ParseError) as err:
        read_profile_csv(path)
    assert "line 3" in str(err.value)


def test_csv_rejects_inverted_bounds(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n1,1,0\n")
    with pytest.raises(ParseError):
        read_profile_csv(path)


def test_csv_rejects_non_integer(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n1,0,x\n")
    with pytest.raises(ParseError):
        read_profile_csv(path)


def test_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(ParseError):
        read_profile_csv(path)


def test_write_refuses_infeasible_rows(tmp_path):
    with pytest.raises(ValueError):
        write_profile_csv(_p([INF] * 3, [NEG_INF] * 3), tmp_path / "p.csv")


@pytest.mark.parametrize("mins, maxs", [([2], [1]), ([1], [0]), ([-1], [0]),
                                        ([0, 1], [1, 3]), ([0, 2], [1, 1])])
def test_write_refuses_rows_the_reader_refuses(tmp_path, mins, maxs):
    # each of these files would fail read_profile_csv's 0 <= min <= max <= size
    path = tmp_path / "p.csv"
    with pytest.raises(ValueError, match="min <= max <= size"):
        write_profile_csv(_p(mins, maxs), path)
    assert not path.exists()


@pytest.mark.parametrize("at", [0, profiles._CSV_CHUNK_ROWS, 2 * profiles._CSV_CHUNK_ROWS + 4])
def test_write_refuses_a_bad_row_in_any_chunk_before_opening(tmp_path, at):
    # the range check goes chunk by chunk, all of it before the file opens
    p = naive_profile("01" * (profiles._CSV_CHUNK_ROWS + 3))
    maxs = p.max_ones.copy()
    maxs[at] = at + 2
    path = tmp_path / "p.csv"
    path.write_text("an older index\n")
    with pytest.raises(ValueError, match="min <= max <= size"):
        write_profile_csv(Profile(p.min_ones, maxs), path)
    assert path.read_text() == "an older index\n"


def test_sums_csv(tmp_path):
    path = tmp_path / "s.csv"
    write_sums_csv(np.asarray([3, 2, 4], dtype=np.int64), path)
    assert path.read_text().splitlines() == [SUMS_CSV_HEADER, "1,3", "2,2", "3,4"]


@pytest.mark.parametrize("values", [[1.7, 2], [1, 2 ** 40 + 0.5], [2 ** 64]])
def test_sums_csv_refuses_values_outside_int64(tmp_path, values):
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError):
        write_sums_csv(values, path)
    assert not path.exists()


# a 2-d array is refused by the writer itself, not by numpy's column_stack
@pytest.mark.parametrize("values", [np.zeros((2, 3), dtype=np.int64), [[1, 2], [3, 4]], 5],
                         ids=["2x3", "nested", "scalar"])
def test_sums_csv_refuses_arrays_not_one_dimensional(tmp_path, values):
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="one-dimensional"):
        write_sums_csv(values, path)
    assert not path.exists()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000, 2049])
def test_chunked_writers_are_byte_identical(tmp_path, n):
    rng = np.random.default_rng(n)
    sizes = np.arange(1, n + 1)
    mins = rng.integers(0, sizes + 1)   # a valid row: 0 <= min <= max <= size
    p = _p(mins, np.minimum(mins + rng.integers(0, 3, n), sizes))
    write_profile_csv(p, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == \
        csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)
    sums = rng.integers(-(2 ** 62), 2 ** 62, n)
    write_sums_csv(sums, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == csv_rows_one_at_a_time(SUMS_CSV_HEADER, sums)


# spellings the writer does not write: each reads back as the line-by-line
# rules decide (line endings as Python's text mode reads them, trailing blank
# lines dropped, fields as int() takes them) or fails at the same line; the
# ".gz" name is read as the plain text it holds
@pytest.mark.parametrize("name", ["p.csv", "p.csv.gz"])
@pytest.mark.parametrize("text, want", [
    (CSV_HEADER + "\r\n1,0,1\r\n2,1,1\r\n", ([0, 1], [1, 1])),
    (CSV_HEADER + "\r1,0,1\r2,1,1\r", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,1\n2,1,1\n\n\n", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,1\n2,1,1\n  \n\t\n \x0c", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,1\n2,1,1", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n 1 , 0,1 \n2,\t1 ,1\n", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,+1\n+2,1,1\n", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,1\n2,\u0661,1\n", ([0, 1], [1, 1])),
    (CSV_HEADER + "\n1,0,1\n2,1,1_0\n", 3),
    (CSV_HEADER + "\n1,0,1\n\n2,1,1\n", 3),
    (CSV_HEADER + "\n1,0,1\n  \n2,1,1\n", 3),
    (CSV_HEADER + "\r\n \r\n\r\n", 2),
    (CSV_HEADER + " \n1,0,1\n", 1),
], ids=["crlf", "bare-cr", "trailing-blank-lines", "trailing-whitespace-lines",
        "no-final-newline", "padded-fields", "plus-sign", "arabic-indic-digit", "underscore",
        "blank-line-mid-file", "whitespace-line-mid-file", "blank-body", "header-with-space"])
def test_csv_reader_spellings(tmp_path, name, text, want):
    path = tmp_path / name
    path.write_bytes(text.encode())
    if isinstance(want, int):
        with pytest.raises(ParseError) as err:
            read_profile_csv(path)
        assert err.value.line == want
    else:
        assert read_profile_csv(path) == _p(*want)


@pytest.mark.parametrize("how", [str, os.fsencode, lambda p: p,
                                 lambda p: os.open(p, os.O_RDONLY)],
                         ids=["str", "bytes", "path", "descriptor"])
def test_csv_reader_takes_what_open_takes(tmp_path, how):
    path = tmp_path / "p.csv"
    p = naive_profile("0110100111")
    write_profile_csv(p, path)
    assert read_profile_csv(how(path)) == p


def _no_line_reading(body):
    raise AssertionError("the byte pass refused a file the writer wrote")


# every profile the writer writes takes the byte pass, at sizes around the
# writer's 2048-row chunks and with the reader's chunks ending on many rows
@pytest.mark.parametrize("chunk", [profiles._READ_CHUNK_BYTES, 97], ids=["default", "97"])
@pytest.mark.parametrize("n", [1, 2, 9, 10, 99, 100, 2047, 2048, 2049, 16384])
def test_written_profiles_take_the_byte_pass(tmp_path, monkeypatch, n, chunk):
    rng = np.random.default_rng(n)
    sizes = np.arange(1, n + 1)
    mins = rng.integers(0, sizes + 1)
    p = _p(mins, rng.integers(mins, sizes + 1))
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    assert profile_csv_by_lines(path) == (p.min_ones.tolist(), p.max_ones.tolist())
    monkeypatch.setattr(profiles, "_READ_CHUNK_BYTES", chunk)
    monkeypatch.setattr(profiles, "_check_lines", _no_line_reading)
    got = read_profile_csv(path)
    assert got == p
    for arr in (got.min_ones, got.max_ones):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous


# row 40's line end comes before its second comma, so its last field opens the
# next line; every field, size and bound still reads in order, so only the
# order of the separators refuses it in the byte pass
@pytest.mark.parametrize("chunk", [profiles._READ_CHUNK_BYTES, 97], ids=["default", "97"])
def test_csv_separators_out_of_order_are_refused(tmp_path, monkeypatch, chunk):
    rows = [f"{i},0,{i}\n" for i in range(1, 61)]
    rows[39] = "40,0\n40,"
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(rows))
    monkeypatch.setattr(profiles, "_READ_CHUNK_BYTES", chunk)
    for read in (read_profile_csv, lambda p: profiles._occurs_in_csv(p, 1, 0),
                 lambda p: profiles._occurs_in_csv(p, 40, 0)):
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == "line 41: expected 3 comma-separated fields, got '40,0'"


def test_csv_rows_longer_than_a_chunk_are_read_line_by_line(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_text(CSV_HEADER + "\n1,0,1\n2,0000000000001,2\n")
    monkeypatch.setattr(profiles, "_READ_CHUNK_BYTES", 16)
    assert read_profile_csv(path) == _p([0, 1], [1, 2])


# The byte pass holds the file, the two int64 columns and one chunk's
# temporaries: 855 KiB at n = 16384 with 64 KiB chunks, where the reader on
# np.loadtxt took 1124 KiB.
def test_read_memory_peak(tmp_path):
    p = rle_profile(np.random.default_rng(3).integers(0, 2, 16384))
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    read_profile_csv(path)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        read_profile_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < 1124


class _DiskFillsAfter:
    """A binary file whose writes fail once ``ok`` of them have gone through."""

    def __init__(self, path, mode, ok):
        self.fh, self.ok = open(path, mode), ok

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        if self.ok == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.ok -= 1
        return self.fh.write(data)


@pytest.mark.parametrize("write, value", [
    (write_profile_csv, naive_profile("01" * profiles._CSV_CHUNK_ROWS)),
    (write_sums_csv, np.arange(3 * profiles._CSV_CHUNK_ROWS)),
], ids=["profile", "sums"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, write, value):
    # the header and the first chunk are written, the second chunk fails:
    # the file cut there would read back as a valid shorter profile, so the
    # old index stays as it was and the temporary file is removed
    path = tmp_path / "p.csv"
    path.write_text("an older index\n")
    monkeypatch.setattr(profiles, "open", lambda p, mode: _DiskFillsAfter(p, mode, 2),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(value, path)
    assert path.read_bytes() == b"an older index\n"
    assert os.listdir(tmp_path) == ["p.csv"]


def _with_package():
    """The environment with this jumbled package first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(profiles.__file__)), os.environ.get("PYTHONPATH", "")]))


def test_killed_build_keeps_the_old_index(tmp_path):
    # SIGKILL once the build's temporary file appears: the old index stays
    # byte for byte. 2**20 bits in 16 runs build in a few slices, and their
    # write (about 0.1 s on a 2-core x86 VM) is the window to hit.
    src, out = tmp_path / "s.txt", tmp_path / "p.csv"
    src.write_bytes((np.arange(2 ** 20) >> 16 & 1).astype(np.uint8) + ord("0"))
    write_profile_csv(naive_profile("0110"), out)
    old = out.read_bytes()
    env = _with_package()
    argv = [sys.executable, "-m", "jumbled.cli", "build", "--kind", "string",
            "--input", str(src), "--out", str(out)]
    for _ in range(3):   # a build that finishes between two polls is run again
        proc = subprocess.Popen(argv, env=env)
        try:
            while proc.poll() is None:
                if any(name.startswith("p.csv.tmp-") for name in os.listdir(tmp_path)):
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=60)
                    assert out.read_bytes() == old
                    return
            assert proc.returncode == 0
            write_profile_csv(naive_profile("0110"), out)
        finally:
            proc.kill()
            proc.wait(timeout=60)
    pytest.fail("no build was caught while it wrote")


def test_write_keeps_the_mode_and_follows_a_symlink(tmp_path):
    p = naive_profile("0110100111")
    path, link = tmp_path / "p.csv", tmp_path / "link.csv"
    path.write_text("an older index\n")
    os.chmod(path, 0o604)
    link.symlink_to(path)
    write_profile_csv(p, link)
    assert link.is_symlink() and read_profile_csv(path) == p
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    umask = os.umask(0o027)
    try:
        write_profile_csv(p, tmp_path / "new.csv")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "new.csv", "p.csv"]


@pytest.mark.parametrize("write", [
    lambda path: write_profile_csv(naive_profile("0110"), path),
    lambda path: write_sums_csv(np.array([3, 2, 4]), path),
], ids=["profile", "sums"])
@pytest.mark.parametrize("links", [{"a": "a"}, {"b": "b1", "b1": "b"}], ids=["self", "pair"])
def test_write_to_a_symlink_loop_fails_with_eloop(tmp_path, write, links):
    # in a thread, so that a walk that spins on the loop fails the test
    for name, target in links.items():
        os.symlink(target, tmp_path / name)
    raised = []

    def attempt():
        try:
            write(tmp_path / next(iter(links)))
        except OSError as exc:
            raised.append(exc.errno)

    writer = threading.Thread(target=attempt, daemon=True)
    writer.start()
    writer.join(timeout=30)
    assert not writer.is_alive() and raised == [errno.ELOOP]
    assert sorted(os.listdir(tmp_path)) == sorted(links)   # no .tmp-* file
    assert {name: os.readlink(tmp_path / name) for name in links} == links


def test_write_to_dev_null_and_a_fifo_in_place(tmp_path):
    p = naive_profile("01" * profiles._CSV_CHUNK_ROWS)
    write_profile_csv(p, os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    write_profile_csv(p, fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)]
    assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["fifo"]
    # /dev/stdout resolves to a pipe that has no name to write beside
    code = ("import sys; from jumbled.profiles import write_profile_csv; "
            "from jumbled.strings import naive_profile; "
            "write_profile_csv(naive_profile(sys.argv[1]), '/dev/stdout')")
    out = subprocess.run([sys.executable, "-c", code, "01" * 100], env=_with_package(),
                         capture_output=True, check=True).stdout
    p = naive_profile("01" * 100)
    assert out == csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)


# /dev/stdout and the names that lead to it, on a file the child's stdout
# shares with its parent: appended to (">>"), at its offset (as after
# "exec > run.log"), or unlinked. The CSV lands between what the child
# printed before and after it, what the parent writes next follows it, and
# no file is made or replaced beside the log.
@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1", "link"])
@pytest.mark.parametrize("log", ["append", "offset", "unlinked"])
def test_write_to_dev_stdout_on_a_file_shares_its_offset(tmp_path, name, log):
    if name == "link":
        name = tmp_path / "link.csv"
        name.symlink_to("/dev/stdout")
    code = ("import sys; from jumbled.profiles import write_profile_csv; "
            "from jumbled.strings import naive_profile; "
            "print('a prefix', flush=True); "
            "write_profile_csv(naive_profile(sys.argv[1]), sys.argv[2]); "
            "print('a suffix')")
    before = sorted(os.listdir(tmp_path))
    with (tempfile.TemporaryFile(dir=tmp_path) if log == "unlinked"
          else open(tmp_path / "run.log", "ab+" if log == "append" else "wb+")) as fh:
        os.write(fh.fileno(), b"already there\n")
        subprocess.run([sys.executable, "-c", code, "01" * 100, str(name)],
                       env=_with_package(), stdout=fh, check=True)
        os.write(fh.fileno(), b"written after\n")
        fh.seek(0)
        got = fh.read()
    p = naive_profile("01" * 100)
    assert got == (b"already there\na prefix\n"
                   + csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)
                   + b"a suffix\nwritten after\n")
    assert sorted(os.listdir(tmp_path)) == sorted(before + ([] if log == "unlinked" else ["run.log"]))


def test_write_protected_index_is_refused_as_open_refuses_it(tmp_path):
    # replacing by rename needs only the directory's write bit: the file's
    # own is checked first, so a 0444 index stays (for root, os.access and
    # open both allow the write, and the index is replaced with its mode)
    path = tmp_path / "p.csv"
    path.write_text("an older index\n")
    os.chmod(path, 0o444)
    p = naive_profile("0110")
    if os.access(path, os.W_OK):
        write_profile_csv(p, path)
        assert read_profile_csv(path) == p
    else:
        with pytest.raises(PermissionError):
            write_profile_csv(p, path)
        assert path.read_bytes() == b"an older index\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o444
    assert os.listdir(tmp_path) == ["p.csv"]


def test_refused_write_leaves_the_index_and_no_file_beside_it(tmp_path, monkeypatch):
    # the refusal itself, as a user who is not root meets it
    path = tmp_path / "p.csv"
    path.write_text("an older index\n")
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    with pytest.raises(PermissionError) as err:
        write_profile_csv(naive_profile("0110"), path)
    assert err.value.errno == errno.EACCES and err.value.filename == str(path)
    assert path.read_bytes() == b"an older index\n"
    assert os.listdir(tmp_path) == ["p.csv"]


def test_failed_write_to_a_descriptor_raises_its_oserror(tmp_path):
    # a descriptor is never unlinked: the write's own error comes through
    path = tmp_path / "p.csv"
    path.write_text("an older index\n")
    with pytest.raises(OSError) as err:
        write_profile_csv(naive_profile("0110"), os.open(path, os.O_RDONLY))
    assert err.value.errno == errno.EBADF
    assert path.read_bytes() == b"an older index\n"


def test_write_profile_csv_memory_peak(tmp_path):
    # one chunk of rows at a time: its (slots, rows) matrix, the bytes made
    # from it and a few uint32 columns; the range check, one chunk of sizes
    # at a time, stays below that (checked whole, it set a 144 KiB peak)
    rng = np.random.default_rng(5)
    p = naive_profile(rng.integers(0, 2, 16384, dtype=np.uint8))
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        write_profile_csv(p, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < 144



# the 4-digit group kernel at its edges: one group to two (9999, 10000),
# two to three (99999999, 10**8), the leading form of 0, the signs, and the
# int64 ends, whose magnitude 2**63 only fits unsigned
GROUP_EDGES = [0, 9, 10, 9999, 10000, 99999999, 10 ** 8, 10 ** 12,
               -1, -9999, -10000, 2 ** 63 - 1, -2 ** 63]


# each edge alone in a one-row file, then among values of fewer digits and
# of each sign; every edge in one column; an all-zero column
@pytest.mark.parametrize("values", [[e] for e in GROUP_EDGES]
                         + [[e, 0, 7, -3, e, 10000, 9999] for e in GROUP_EDGES]
                         + [GROUP_EDGES * 3, [0] * 5])
def test_sums_writer_at_group_edges(tmp_path, values):
    sums = np.array(values, dtype=np.int64)
    write_sums_csv(sums, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == csv_rows_one_at_a_time(SUMS_CSV_HEADER, sums)


N_ACROSS = 10050   # sizes 9999 and 10000 share a chunk
SIZES_ACROSS = np.arange(1, N_ACROSS + 1)


# one-row files; then size and max cross the group edge on one row, beside
# an all-zero min column; then max crosses it a row after size
@pytest.mark.parametrize("mins, maxs", [
    ([0], [0]), ([0], [1]), ([1], [1]),
    (np.zeros(N_ACROSS), SIZES_ACROSS),
    (SIZES_ACROSS // 2, SIZES_ACROSS - (SIZES_ACROSS >= 10000)),
], ids=["0-0", "0-1", "1-1", "zeros-sizes", "halves-lagging"])
def test_profile_writer_at_group_edges(tmp_path, mins, maxs):
    assert 9998 // profiles._CSV_CHUNK_ROWS == 9999 // profiles._CSV_CHUNK_ROWS
    p = _p(mins, maxs)
    write_profile_csv(p, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == \
        csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)


def test_writers_take_strided_and_byte_swapped_columns(tmp_path):
    for sums in (np.arange(-20000, 20000)[::-3], (np.arange(1, 5001) * 1999).astype(">i8")):
        write_sums_csv(sums, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == \
            csv_rows_one_at_a_time(SUMS_CSV_HEADER, sums)
    p = naive_profile("0110" * 3000)
    write_profile_csv(Profile(np.repeat(p.min_ones, 2)[::2], np.repeat(p.max_ones, 2)[::2]),
                      tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == \
        csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)
