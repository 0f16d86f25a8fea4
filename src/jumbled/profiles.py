"""The index surface: per-size min/max 1-count profiles, occurrence
queries, and the profile CSV format."""

from __future__ import annotations

import errno
import io
import operator
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inputs import _MAX_DIGITS, ParseError, _digit_values
from .minplus import as_int64

CSV_HEADER = "size,min_ones,max_ones"
SUMS_CSV_HEADER = "size,max_sum"

# rows formatted per write, and sizes range-checked per step. With the
# 4-digit group tables (80 KiB, made at import) a profile write at n=16384
# took 2.7, 2.4, 2.4 and 2.2 ms at 1024, 2048, 3072 and 4096 rows (2-core
# x86 VM, medians of 40 interleaved writes to an existing file), and its
# tracemalloc peak was 54, 101, 148 and 195 KiB: a chunk's byte matrix, its
# translated copy and a few int64 columns. 2048 rows keep the peak well
# below the 125 KiB of the digit-at-a-time writer.
_CSV_CHUNK_ROWS = 2048

# bytes of whole lines per step of the reader's byte pass. At n=16384 (a
# 246 KB file) the reader's tracemalloc peak is 649, 771, 901 and 1017 KiB
# at 32, 64, 96 and 128 KiB, and a query's 394, 516, 646 and 762 KiB. Of
# 300 alternating queries against 64 KiB (2-core x86 VM), 32, 96 and 128
# KiB won 1, 100 and 81: past 64 KiB a chunk's int64 offsets pass glibc's
# 128 KiB mmap threshold, so each chunk faults in fresh pages.
_READ_CHUNK_BYTES = 1 << 16
_HEADER_LINE = CSV_HEADER.encode() + b"\n"
# the separators of the most rows a chunk holds, at least 6 bytes a row
_SEPARATORS = b",,\n" * (_READ_CHUNK_BYTES // 6 + 1)


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
        """memoryviews of (min_ones, max_ones), whose items are Python ints,
        and n. Made on first use, so no build allocates them."""
        return memoryview(self.min_ones), memoryview(self.max_ones), self.n

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

    Out-of-domain arguments answer False, a count that is not an integer
    too (checked only inside the interval); a size that is not an integer
    raises TypeError, inside 1..n or not. Two reads through the profile's
    buffer views, which give Python ints where the arrays would box numpy
    scalars; the conditional gives a bool for numpy arguments too.
    """
    lo, hi, n = p._views
    if 0 < i <= n:
        return True if lo[i - 1] <= j <= hi[i - 1] and j % 1 == 0 else False
    operator.index(i)   # the views refuse a non-integral size in range
    return False


def write_profile_csv(p: Profile, path) -> None:
    if p.n < 1:
        raise ValueError("cannot serialize an empty profile")
    # the reader's rule, so that every file written reads back
    if not _in_range(p.min_ones, p.max_ones):
        raise ValueError("cannot serialize a profile outside 0 <= min <= max <= size "
                         "(infeasible sizes included)")
    _write_csv(path, CSV_HEADER, p.min_ones, p.max_ones)


def read_profile_csv(path) -> Profile:
    """Parse and check a profile CSV in one vectorised O(n) pass over its
    bytes, read once; a file the pass refuses is decoded as text mode
    decodes it and read line by line.

    A fault raises ParseError naming its 1-based line."""
    raw, data = _read_file(path)
    rows = _read_rows(data)
    return _read_lines(raw) if rows is None else Profile(*rows)


def _occurs_in_csv(path, i: int, j: int) -> bool:
    """occurs(read_profile_csv(path), i, j), with the same errors; a file
    the byte pass takes is checked whole, but only row i is kept."""
    raw, data = _read_file(path)
    rows = _read_rows(data, i)
    if rows is None:
        return occurs(_read_lines(raw), i, j)
    lo, hi = (a.tolist() for a in rows)
    return True if lo and lo[0] <= j <= hi[0] and j % 1 == 0 else False


def _read_file(path):
    """The bytes of ``path`` as read, and with universal newlines as text mode reads them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def _read_lines(raw: bytes) -> Profile:
    """read_profile_csv's reading of a file that the byte pass refuses."""
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    head, _, body = text.partition("\n")
    if head != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", 1)
    body = body.rstrip()   # the lines up to the last non-blank one
    if not body:
        raise ParseError("profile has no rows", 2)
    count = body.count("\n") + 1
    rows = _check_lines(text.split("\n")[1:count + 1])
    return Profile(np.ascontiguousarray(rows[:, 1]), np.ascontiguousarray(rows[:, 2]))


def _read_rows(data: bytes, row=None):
    """(min_ones, max_ones) of ``data`` if it is a profile CSV as the writer
    writes it: the header, then rows "size,min,max\\n" of 1.._MAX_DIGITS
    ASCII digits each, sizes 1..n in order and 0 <= min <= max <= size;
    None otherwise. Given a ``row``, every row is still checked, but the
    columns keep only that size's entry, or none outside 1..n. Whole lines
    are parsed _READ_CHUNK_BYTES at a time."""
    if not data.startswith(_HEADER_LINE):
        return None
    head = len(_HEADER_LINE)
    # n is the last row's size, if the file is valid: the pass checks every
    # size against its row, so a file it takes has n rows. A row takes at
    # least 6 bytes.
    last = data.rfind(b"\n", 0, -1) + 1
    n = data[last:data.find(b",", last)]
    n = int(n) if n.isdigit() and len(n) <= _MAX_DIGITS else 0
    if not 0 < n <= (len(data) - head) // 6:
        return None
    # the rows kept, [first, end) of 0..n
    first, end = (0, n) if row is None else (row - 1, row) if 0 < row <= n else (0, 0)
    lo, hi = np.empty(end - first, dtype=np.int64), np.empty(end - first, dtype=np.int64)
    codes = np.frombuffer(data, dtype=np.uint8)
    done = 0
    while head < len(data):
        # a valid row is far shorter than a chunk, so a chunk with no line
        # end holds an invalid row, or text after the last LF
        stop = data.rfind(b"\n", head, head + _READ_CHUNK_BYTES) + 1
        if stop <= head:
            return None
        chunk = codes[head:stop]
        # the bytes below '0' end the fields, ',', ',' and LF on each row;
        # the others must be digits
        ends = np.flatnonzero(chunk < 48)
        rows = ends.size // 3
        if (ends.size % 3 or rows > n - done or chunk.max() > 57
                or chunk.take(ends).tobytes() != _SEPARATORS[:ends.size]):
            return None
        # a field's digits: the bytes between two ends
        count = np.empty(ends.size, dtype=np.int32)
        count[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=count[1:])
        count -= 1
        if count.min() < 1 or count.max() > _MAX_DIGITS:
            return None
        size, a, b = _digit_values(chunk, ends, count, narrow=True).reshape(rows, 3).T
        if ((size != np.arange(done + 1, done + rows + 1)).any()
                or (a > b).any() or (b > size).any()):
            return None
        s, e = max(first, done), min(end, done + rows)   # the chunk's rows kept
        if s < e:
            at = slice(s - done, e - done)
            lo[s - first:e - first], hi[s - first:e - first] = a[at], b[at]
        del ends, count, size, a, b   # before the next chunk's
        done += rows
        head = stop
    return lo, hi


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
    time, through _replacing: a file cut at a row boundary would read back
    as a valid shorter profile.

    A chunk is a (rows, slots) byte matrix, one row per line: per column a
    sign slot if the column holds a negative, 4-digit groups for its widest
    magnitude and the separator. NUL comes before a value's first
    character, and one bytes.translate deletes them."""
    n = columns[0].size
    widths = [(False, _groups(n))] + [
        (bool(c.min() < 0), _groups(max(int(c.max()), -int(c.min())))) for c in columns]
    rows, width = min(n, _CSV_CHUNK_ROWS), sum(sign + 4 * groups + 1 for sign, groups in widths)
    buf = bytearray(rows * width)
    mat = np.frombuffer(buf, np.uint8).reshape(rows, width)
    slots = []   # per column: its sign slot or None, and a uint32 view of each group
    at = 0
    for sign, groups in widths:
        slots.append((mat[:, at] if sign else None,
                      [mat[:, s:s + 4].view("<u4")[:, 0]
                       for s in range(at + sign, at + sign + 4 * groups, 4)]))
        at += sign + 4 * groups + 1
        mat[:, at - 1] = ord(",")
    mat[:, -1] = ord("\n")
    with _replacing(path) as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, rows):
            k = min(rows, n - lo)
            values = [np.arange(lo + 1, lo + k + 1, dtype=np.int64),
                      *(c[lo:lo + k] for c in columns)]
            for (sign, groups), v in zip(slots, values):
                _fill(None if sign is None else sign[:k], [g[:k] for g in groups], v)
            fh.write((buf if k == rows else buf[:k * width]).translate(None, b"\0"))


@contextmanager
def _replacing(path):
    """A binary file that writes ``path``. A regular file, or a name not
    yet taken, is written through a new file beside it (symlinks resolved),
    "<name>.tmp-<pid>-<hex>" with the old file's mode or 0o666 less the
    umask, that replaces it once complete: a write that fails or is killed
    leaves the old file as it was. No fsync: a power loss may still cut it.
    A file the caller may not write is refused, as open would refuse it.

    A descriptor, a FIFO or a device is written in place. So is a name that
    resolves through a /proc descriptor link (/dev/stdout, /dev/fd/1, a
    symlink to one): one of this process's own is written through a dup of
    that descriptor, at its offset, as the shell's redirection would be."""
    link = None if isinstance(path, int) else _proc_link(path)
    if link is not None:
        own = re.fullmatch(rf"/proc/{os.getpid()}/fd/(\d+)", link)
        path = os.dup(int(own[1])) if own else link
    elif not isinstance(path, int):
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is None or stat.S_ISREG(mode):
            target = os.path.realpath(path)
            if mode is not None and not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fsdecode(target))
            tmp = f"{os.fsdecode(target)}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
            fh = open(tmp, "xb")
            try:
                with fh:
                    if mode is not None:
                        os.fchmod(fh.fileno(), stat.S_IMODE(mode))
                    yield fh
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(path, "wb") as fh:
        yield fh


def _proc_link(path):
    """The first symlink under /proc that ``path`` resolves through, such
    as /proc/<pid>/fd/1 for /dev/stdout, or None. Its realpath is the name
    of an open file, or "/tmp/#12 (deleted)", not a name to replace. A
    link met twice is a loop, which gives None: opening it fails (ELOOP)."""
    p, seen = os.path.abspath(os.fsdecode(path)), set()
    while True:
        p = os.path.join(os.path.realpath(os.path.dirname(p)), os.path.basename(p))
        if p in seen or not os.path.islink(p):
            return None
        if p.startswith("/proc/"):
            return p
        seen.add(p)
        p = os.path.join(os.path.dirname(p), os.readlink(p))


def _groups(widest: int) -> int:
    """4-digit groups in the text of 0 <= widest < 2**64."""
    return (len(str(widest)) + 3) // 4


def _fill(sign, groups: list, values: np.ndarray) -> None:
    """Writes int64 values as "%d" text into their column's slots: "-" or
    NUL into the sign slot, and into each 4-digit group one gather from
    _GROUPS, the last group first."""
    if sign is not None:
        sign[...] = (values < 0).view(np.uint8) * ord("-")
        values = np.abs(values)   # -2**63 stays, and reads as 2**63 unsigned
    r = values.view(np.uint64)    # the digits not yet written
    last = len(groups) - 1
    for g in range(last, -1, -1):
        if g:   # r's last four digits: index r below 10000, else 10000 + r % 10000
            q = r // 10000
            idx = np.multiply(q, 10000)
            np.subtract(r, idx, out=idx)
            np.add(idx, 10000, out=idx)
            np.minimum(r, idx, out=idx)
        else:   # the first group: r < 10000
            idx = r
        idx = idx.view(np.int64)
        table = _GROUPS
        if g < last:   # before the last group, r = 0 is four NULs: index -1 of _GROUPS[1:]
            np.subtract(idx, 1, out=idx)   # idx is a temporary here, q at g = 0
            table = _GROUPS[1:]
        groups[g][...] = table.take(idx)
        if g:
            r = q


def _group_table() -> np.ndarray:
    """The 4-digit groups as little-endian uint32 (80 KiB): entry k < 10000
    is k with NUL before its first digit ("\\0\\0" "42"; 0 is three NULs and
    "0"), entry 10000 + k is k zero-padded ("0042"), and the last is four
    NULs. _fill indexes it from 0 for a value's last group, where every
    value below 10000 gives its leading form, and from 1 for any group
    before it, where 0 (index -1) gives the four NULs."""
    d = np.arange(100, dtype=np.uint32)
    pair = (d // 10 + ord("0")) | (d % 10 + ord("0")) << 8   # "07" as two bytes
    lead = np.where(d < 10, pair & 0xFF00, pair)              # NUL, then "7"
    padded = pair[:, None] | pair << 16
    leading = np.concatenate([lead << 16, (lead[1:, None] | pair << 16).ravel()])
    return np.concatenate([leading, padded.ravel(), [0]]).astype("<u4")


_GROUPS = _group_table()
