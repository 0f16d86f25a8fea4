"""The index surface: per-size min/max 1-count profiles, occurrence
queries, and the profile CSV format."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inputs import ParseError
from .minplus import as_int64

CSV_HEADER = "size,min_ones,max_ones"
SUMS_CSV_HEADER = "size,max_sum"

# rows formatted per write: at n=16384 the writer's tracemalloc peak stays
# at the ~55 KiB of a row-by-row loop; one string for the whole file took 2.4 MiB
_CSV_CHUNK_ROWS = 256


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

    def occurs(self, i: int, j: int) -> bool:
        return occurs(self, i, j)

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return bool(np.array_equal(self.min_ones, other.min_ones)
                    and np.array_equal(self.max_ones, other.max_ones))


def occurs(p: Profile, i: int, j: int) -> bool:
    """True iff some window/subgraph of size i has exactly j ones.

    Out-of-domain arguments answer False. Two array reads, no scan.
    """
    if i < 1 or i > p.n:
        return False
    return bool(p.min_ones[i - 1] <= j <= p.max_ones[i - 1])


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
        lines = fh.read().split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", 1)
    body = lines[1:]
    if not body:
        raise ParseError("profile has no rows", 2)
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, dtype=np.int64, ndmin=2)
    except ValueError:
        rows = None
    # loadtxt skips blank lines and accepts fewer integer spellings than
    # int(), so anything short of a clean parse goes to the line-by-line
    # check, which names the first bad line or, if there is none, parses
    if rows is None or not _rows_valid(rows, len(body)):
        rows = _check_lines(body)
    return Profile(np.ascontiguousarray(rows[:, 1]), np.ascontiguousarray(rows[:, 2]))


def _rows_valid(rows: np.ndarray, count: int) -> bool:
    if rows.shape != (count, 3):
        return False
    return bool(np.array_equal(rows[:, 0], np.arange(1, count + 1))
                and _in_range(rows[:, 1], rows[:, 2]))


def _in_range(lo: np.ndarray, hi: np.ndarray) -> bool:
    """0 <= lo <= hi <= size at every size 1..n."""
    return bool((lo >= 0).all() and (lo <= hi).all()
                and (hi <= np.arange(1, hi.size + 1)).all())


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
    """Rows "size,column values..." for size 1..n, formatted _CSV_CHUNK_ROWS
    at a time so that the temporary strings stay small."""
    row = ",".join(["%d"] * (len(columns) + 1)) + "\n"
    n = columns[0].size
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            hi = min(n, lo + _CSV_CHUNK_ROWS)
            chunk = np.column_stack([np.arange(lo + 1, hi + 1), *(c[lo:hi] for c in columns)])
            fh.write(row * (hi - lo) % tuple(chunk.ravel().tolist()))
