"""The index surface: per-size min/max 1-count profiles, occurrence
queries, and the profile CSV format."""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inputs import ParseError
from .minplus import as_int64

CSV_HEADER = "size,min_ones,max_ones"
SUMS_CSV_HEADER = "size,max_sum"

# rows formatted per write, and sizes range-checked per step: at n=16384
# (2-core x86 VM) 1024 rows took 4.5 ms, 2048 3.1 ms and 4096 2.4 ms;
# write_profile_csv's tracemalloc peak is 125 KiB at 2048 rows, of which
# the range check takes 18 KiB (144 KiB when it checked the whole arrays)
_CSV_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class Profile:
    """min_ones[i-1] / max_ones[i-1] are the extrema over windows or
    connected subgraphs of size i; sentinel entries mark infeasible sizes."""

    min_ones: np.ndarray
    max_ones: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_ones", as_int64(self.min_ones, "min_ones"))
        object.__setattr__(self, "max_ones", as_int64(self.max_ones, "max_ones"))
        if self.min_ones.shape != self.max_ones.shape or self.min_ones.ndim != 1:
            raise ValueError("profile arrays must be 1-d and of equal length")

    @property
    def n(self) -> int:
        return int(self.min_ones.size)

    @cached_property
    def _views(self):
        """memoryviews of (min_ones, max_ones): indexing one gives a Python
        int. Made on first use, so no build allocates them."""
        return memoryview(self.min_ones), memoryview(self.max_ones)

    def __getstate__(self):
        # a memoryview cannot be pickled; a copy makes its own on first use
        return {k: v for k, v in self.__dict__.items() if k != "_views"}

    def occurs(self, i: int, j: int) -> bool:
        return occurs(self, i, j)

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return bool(np.array_equal(self.min_ones, other.min_ones)
                    and np.array_equal(self.max_ones, other.max_ones))


def occurs(p: Profile, i: int, j: int) -> bool:
    """True iff some window/subgraph of size i has exactly j ones.

    Out-of-domain arguments answer False; a non-integral 0 < i <= n raises.
    Two reads through the profile's buffer views, which give Python ints
    where the arrays would box numpy scalars; the conditional gives a bool
    for numpy arguments too, without a call to bool().
    """
    lo, hi = p._views
    return True if 0 < i <= len(lo) and lo[i - 1] <= j <= hi[i - 1] else False


def write_profile_csv(p: Profile, path) -> None:
    if p.n < 1:
        raise ValueError("cannot serialize an empty profile")
    # the reader's rule, so that every file written reads back
    if not _in_range(p.min_ones, p.max_ones):
        raise ValueError("cannot serialize a profile outside 0 <= min <= max <= size "
                         "(infeasible sizes included)")
    _write_csv(path, CSV_HEADER, p.min_ones, p.max_ones)


def read_profile_csv(path) -> Profile:
    """Parse and check a profile CSV in one vectorised O(n) pass.

    A fault raises ParseError naming its 1-based line."""
    with open(path, "r") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    if head != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", 1)
    body = body.rstrip()   # the lines up to the last non-blank one
    if not body:
        raise ParseError("profile has no rows", 2)
    count = body.count("\n") + 1
    # loadtxt reads a named file in C, faster than a list of lines; made
    # absolute, a name never looks like a URL to it, but a descriptor has no
    # name and a compression suffix would make it decompress
    source = "" if isinstance(path, int) else os.path.abspath(os.fsdecode(path))
    if not source or os.path.splitext(source)[1] in (".gz", ".bz2", ".xz", ".lzma"):
        source = text.split("\n")[:count + 1]
    try:
        rows = np.loadtxt(source, delimiter=",", skiprows=1, comments=None, dtype=np.int64,
                          ndmin=2)
    except ValueError:
        rows = None
    # loadtxt skips blank lines and accepts fewer integer spellings than
    # int(), so anything short of a clean parse goes to the line-by-line
    # check, which names the first bad line or, if there is none, parses
    if rows is None or not _rows_valid(rows, count):
        rows = _check_lines(text.split("\n")[1:count + 1])
    return Profile(np.ascontiguousarray(rows[:, 1]), np.ascontiguousarray(rows[:, 2]))


def _rows_valid(rows: np.ndarray, count: int) -> bool:
    if rows.shape != (count, 3):
        return False
    return bool(np.array_equal(rows[:, 0], np.arange(1, count + 1))
                and _in_range(rows[:, 1], rows[:, 2]))


def _in_range(lo: np.ndarray, hi: np.ndarray) -> bool:
    """0 <= lo <= hi <= size at every size 1..n, checked _CSV_CHUNK_ROWS
    sizes at a time so that it stays below the writer's own peak."""
    for s in range(0, lo.size, _CSV_CHUNK_ROWS):
        a, b = lo[s:s + _CSV_CHUNK_ROWS], hi[s:s + _CSV_CHUNK_ROWS]
        if a.min() < 0 or (a > b).any() or (b > np.arange(s + 1, s + b.size + 1)).any():
            return False
    return True


def _check_lines(body) -> np.ndarray:
    """The rows of body (file lines 2, 3, ...) as an (n, 3) int64 array;
    raises ParseError at the first line that breaks a rule."""
    rows = []
    for ln, line in enumerate(body, start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {line!r}", ln)
        try:
            size, lo, hi = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", ln) from None
        if size != ln - 1:
            raise ParseError(f"expected size {ln - 1}, got {size}", ln)
        if not 0 <= lo <= hi <= size:
            raise ParseError(f"requires 0 <= min <= max <= size, got {lo}, {hi}", ln)
        rows.append((size, lo, hi))
    return np.array(rows, dtype=np.int64)


def write_sums_csv(values, path) -> None:
    """Weighted results: values[i-1] = maximum weight sum at size i."""
    arr = as_int64(values, "values")
    if arr.ndim != 1:
        raise ValueError(f"need a one-dimensional array of sums, got {arr.ndim} dimensions")
    if arr.size < 1:
        raise ValueError("cannot serialize an empty result")
    _write_csv(path, SUMS_CSV_HEADER, arr)


def _write_csv(path, header: str, *columns: np.ndarray) -> None:
    """Rows "size,column values..." for size 1..n, _CSV_CHUNK_ROWS at a
    time. A write that fails removes its regular file: cut at a row
    boundary, it would read back as a valid shorter profile."""
    n = columns[0].size
    regular = False
    try:
        with open(path, "wb") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.write(header.encode() + b"\n")
            for lo in range(0, n, _CSV_CHUNK_ROWS):
                hi = min(n, lo + _CSV_CHUNK_ROWS)
                fh.write(_csv_rows([np.arange(lo + 1, hi + 1), *(c[lo:hi] for c in columns)]))
    except BaseException:
        if regular:
            os.unlink(path)
        raise


def _csv_rows(columns) -> bytes:
    """The "%d,...\\n" rows of equal-length int64 columns: each fills a sign
    slot (if it holds a negative) and digit slots right-aligned to its widest
    value in a (slots, rows) uint8 matrix, NUL before the first digit."""
    fields = [(c, bool(c.min() < 0), len(str(max(int(c.max()), -int(c.min())))))
              for c in columns]
    mat = np.zeros((sum(sign + d + 1 for _, sign, d in fields), columns[0].size), np.uint8)
    s = 0
    for c, sign, d in fields:
        # two's complement takes -2**63 too; uint32 runs about twice as fast
        mag = c.astype(np.uint32 if d < 10 else np.uint64)
        if sign:
            mat[s, c < 0] = ord("-")
            np.negative(mag, out=mag, where=c < 0)
            s += 1
        for r in range(s + d - 1, s - 1, -1):
            q = mag // 10
            mat[r] = mag - q * 10 + ord("0")
            if r < s + d - 1:
                mat[r] *= mag != 0   # 0: a position before the first digit
            mag = q
        s += d + 1
        mat[s - 1] = ord(",")
    mat[-1] = ord("\n")
    return mat.T.tobytes().translate(None, b"\0")
