"""Text formats for inputs, plus deterministic random generators.

Formats
-------
binary string   one line of '0'/'1' characters; whitespace is ignored
weights         whitespace-separated signed decimal integers
tree            line 1: node count n; lines 2..n+1: "parent label" for
                nodes 1..n, parent 0 marking the root (exactly one);
                weighted trees carry a signed integer in the label field

Each text is read first by one vectorised pass over its bytes: for weights
and trees (_int_tokens), ASCII digits, '-', spaces, tabs, CR and LF, every
token -?[0-9]{1,18}; for a tree, 2n + 1 tokens, n first, with line break j
between tokens 2j and 2j + 1 for j < n (CR is no line break), and valid
parents and labels. Every text the pass refuses is read line by line, which
names the line, and for strings and weights the column, of an offence.
"""

from __future__ import annotations

import random
import re

import numpy as np


class ParseError(ValueError):
    """Input text rejected; carries 1-based line/char of the offense."""

    def __init__(self, message: str, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", char {col}"
            where += ": "
        super().__init__(where + message)


_INT64 = range(-(1 << 63), 1 << 63)

# the ASCII characters a binary string may hold: '0', '1' and those
# str.isspace() accepts
_BIT_TEXT = np.zeros(128, dtype=bool)
_BIT_TEXT[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 48, 49]] = True
# the bytes of the integer texts the fast path reads
_INT_TEXT = b"0123456789- \t\r\n"
# a token of at most 18 digits fits in int64 whatever its sign
_MAX_DIGITS = 18


def _ascii_codes(text: str):
    try:
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None


def _int_tokens(text: str):
    """(values, starts, codes): the int64 values of the tokens of ``text``,
    the byte offset each starts at, and the text's bytes; None if a rule of
    the fast path (module docstring) fails. A gap is a byte <= 32, and the
    offsets where gap and token alternate are the tokens' starts and stops,
    interleaved. Offsets are int32, digits int8; only the values are int64."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _INT_TEXT):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    gap = np.ones(data.size + 2, dtype=bool)   # a gap before and after the text
    np.less_equal(data, 32, out=gap[1:-1])
    edges = np.flatnonzero(gap[1:] != gap[:-1])
    del gap
    edges = edges.astype(np.int32 if data.size < 1 << 31 else np.int64)
    starts, stops = edges[0::2], edges[1::2]
    negative = data.take(starts) == 45
    count = stops - starts
    count -= negative   # digits, if each '-' opens a token
    if (np.count_nonzero(data == 45) != np.count_nonzero(negative)
            or count.min(initial=1) < 1 or count.max(initial=0) > _MAX_DIGITS):
        return None
    # Horner over the tokens right-aligned to m digits, signed: step k reads
    # the byte m - k before each stop (below 0 wraps), a digit unless the
    # token is shorter. The values come after the first gather, the peak.
    m = int(count.max(initial=1))
    shortest = int(count.min(initial=m))
    sign = 1 - 2 * negative.view(np.int8)
    for k in range(m):
        digit = data.take(np.subtract(stops, m - k, dtype=np.intp)).view(np.int8)
        digit -= 48
        if k < m - shortest:
            digit *= count >= m - k
        digit *= sign
        if k:
            values *= 10
            values += digit
        else:
            values = digit.astype(np.int64)
    return values, starts, data


def parse_binary_string_text(text: str) -> np.ndarray:
    data = _ascii_codes(text)
    if data is not None and _BIT_TEXT[data].all():
        bits = data[(data == 48) | (data == 49)] - 48
        if not bits.size:
            raise ParseError("empty input, expected at least one bit", 1, 1)
        return bits
    return _parse_bits_per_char(text)


def _parse_bits_per_char(text: str) -> np.ndarray:
    bits = []
    for ln, line in enumerate(text.split("\n"), start=1):
        for col, ch in enumerate(line, start=1):
            if ch in "01":
                bits.append(ord(ch) - ord("0"))
            elif not ch.isspace():
                raise ParseError(f"invalid character {ch!r}, expected '0' or '1'", ln, col)
    if not bits:
        raise ParseError("empty input, expected at least one bit", 1, 1)
    return np.array(bits, dtype=np.uint8)


def parse_weights_text(text: str) -> np.ndarray:
    tokens = _int_tokens(text)
    if tokens is None:
        return _parse_weights_per_token(text)
    if not tokens[0].size:
        raise ParseError("empty input, expected at least one weight", 1, 1)
    return tokens[0]


def _parse_weights_per_token(text: str) -> np.ndarray:
    weights = []
    for ln, line in enumerate(text.split("\n"), start=1):
        for m in re.finditer(r"\S+", line):
            try:
                value = int(m.group())
            except ValueError:
                raise ParseError(f"invalid integer {m.group()!r}", ln, m.start() + 1) from None
            if value not in _INT64:
                raise ParseError(f"integer {m.group()!r} does not fit in 64 bits",
                                 ln, m.start() + 1)
            weights.append(value)
    if not weights:
        raise ParseError("empty input, expected at least one weight", 1, 1)
    return np.array(weights, dtype=np.int64)


def _int_field(tok: str, ln: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"invalid {what} {tok!r}", ln) from None


def parse_tree_text(text: str, weighted: bool = False):
    """Returns (parents, labels): 0-based parents with -1 for the root."""
    tokens = _int_tokens(text)
    # n, then n lines of two fields: 2n + 1 tokens, and line break j (from
    # 0) comes after 2j + 1 of them for j < n, after all of them from j = n;
    # that is, it falls between token 2j and token 2j + 1
    if tokens is not None and tokens[0].size % 2 and tokens[0][0] == tokens[0].size // 2:
        values, starts, data = tokens
        n = values.size // 2
        breaks = np.flatnonzero(data == 10)
        node = np.arange(1, n + 1)
        parents, labels = values[1::2], values[2::2]
        if (n >= 1 and breaks.size >= n
                and (starts[:-1:2] < breaks[:n]).all() and (breaks[:n] < starts[1::2]).all()
                and (breaks[n:n + 1] > starts[-1]).all()
                and ((parents >= 0) & (parents <= n) & (parents != node)).all()
                and (weighted or ((labels == 0) | (labels == 1)).all())
                and np.count_nonzero(parents == 0) == 1):
            return parents - 1, labels.copy()
    # line by line, to name the line of whatever the pass above refused
    return _parse_tree_lines(text, weighted)


def _parse_tree_lines(text: str, weighted: bool):
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not lines[0].strip():
        raise ParseError("missing node count", 1)
    n = _int_field(lines[0].strip(), 1, "node count")
    if n < 1:
        raise ParseError(f"node count must be >= 1, got {n}", 1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} node lines, found {len(lines) - 1}", len(lines))
    parents = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        ln = i + 2
        fields = lines[ln - 1].split()
        if len(fields) != 2:
            raise ParseError(f"expected 'parent label', got {lines[ln - 1]!r}", ln)
        parent = _int_field(fields[0], ln, "parent")
        label = _int_field(fields[1], ln, "label")
        if parent < 0 or parent > n:
            raise ParseError(f"parent {parent} out of range [0, {n}]", ln)
        if parent == i + 1:
            raise ParseError(f"node {i + 1} cannot be its own parent", ln)
        if not weighted and label not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {label}", ln)
        if label not in _INT64:
            raise ParseError(f"integer {fields[1]!r} does not fit in 64 bits",
                             ln, lines[ln - 1].rindex(fields[1]) + 1)
        parents[i] = parent - 1
        labels[i] = label
    if int((parents == -1).sum()) != 1:
        raise ParseError("tree must declare exactly one root (parent 0)", 1)
    return parents, labels


def gen_string(n: int, seed: int, density: float = 0.5) -> str:
    rng = random.Random(seed)
    return "".join("1" if rng.random() < density else "0" for _ in range(n)) + "\n"


def gen_weights(n: int, seed: int) -> str:
    rng = random.Random(seed)
    return " ".join(str(rng.randint(-9, 9)) for _ in range(n)) + "\n"


def random_parents(n: int, rng: random.Random) -> list:
    """Random recursive tree: node i attaches to a uniform earlier node."""
    return [-1] + [rng.randrange(i) for i in range(1, n)]


def gen_tree(n: int, seed: int, density: float = 0.5, weighted: bool = False) -> str:
    rng = random.Random(seed)
    parents = random_parents(n, rng)
    lines = [str(n)]
    for i in range(n):
        label = rng.randint(-9, 9) if weighted else int(rng.random() < density)
        lines.append(f"{parents[i] + 1} {label}")
    return "\n".join(lines) + "\n"
