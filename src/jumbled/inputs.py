"""Text formats for inputs, plus deterministic random generators.

Formats
-------
binary string   one line of '0'/'1' characters; whitespace is ignored
weights         whitespace-separated signed decimal integers
tree            line 1: node count n; lines 2..n+1: "parent label" for
                nodes 1..n, parent 0 marking the root (exactly one);
                weighted trees carry a signed integer in the label field
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
# the ASCII characters of the integer texts a vectorised pass reads
_SPACE = np.zeros(128, dtype=bool)
_SPACE[[9, 10, 13, 32]] = True
_INT_TEXT = _SPACE.copy()
_INT_TEXT[45] = True       # '-'
_INT_TEXT[48:58] = True    # the digits
# a token of at most 18 digits fits in int64 whatever its sign
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _ascii_codes(text: str):
    try:
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None


def _int_tokens(text: str):
    """(values, 0-based line of each) of the whitespace-separated integers of
    ``text``; None unless every token is -?[0-9]{1,18} and the text holds
    nothing else but spaces, tabs and line breaks. Whatever this leaves
    out, the per-line parsers accept or reject with a position."""
    data = _ascii_codes(text)
    if data is None or not _INT_TEXT[data].all():
        return None
    space = _SPACE[data].view(np.int8)
    edge = np.diff(space, prepend=1, append=1)   # -1 opens a token, +1 follows it
    starts, stops = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    del edge
    negative = data[starts] == 45
    count = stops - starts - negative   # digits, if each '-' opens a token
    if (np.count_nonzero(data == 45) != np.count_nonzero(negative)
            or (count < 1).any() or (count > _POW10.size).any()):
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(count.max(initial=0))):   # k-th digit from the right
        digit = data[np.maximum(stops - 1 - k, 0)].astype(np.int64) - 48
        values += np.where(count > k, digit, 0) * _POW10[k]
    values[negative] *= -1
    return values, np.searchsorted(np.flatnonzero(data == 10), starts)


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
    # n, then n lines of two fields: 2n + 1 tokens, token 0 on line 0
    if tokens is not None and tokens[0].size % 2 and tokens[0][0] == tokens[0].size // 2:
        values, lines = tokens
        n = values.size // 2
        node = np.arange(1, n + 1)
        parents, labels = values[1::2], values[2::2]
        if (n >= 1 and (lines == np.append(0, node.repeat(2))).all()
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
