"""Tropical kernel checks: frozen hand values plus oracle cross-checks."""

import random
import tracemalloc

import numpy as np
import pytest

from jumbled import trees
from jumbled.inputs import gen_tree, parse_tree_text
from jumbled.minplus import (
    _CONV_BUFSIZE, _CONV_CELLS, _CONV_SHIFTS, FINITE_BOUND, INF, MAX, MIN, NEG_INF, _conv_blocked,
    _conv_direct, _conv_tiled, _product, min_plus_convolution, min_plus_convolution_blocked,
    min_plus_product, min_plus_product_tiled, snap_max, snap_min,
)
from jumbled.trees import LabeledTree, binarize, simple_tree_profile, weighted_tree_max_sums
from _support import conv_oracle, product_oracle


def _to_sentinel(x, neg=False):
    if x is None:
        return NEG_INF if neg else INF
    return x


def _min_matrix(rows):
    return np.array([[_to_sentinel(x) for x in row] for row in rows], dtype=np.int64)


def _max_matrix(rows):
    return np.array([[_to_sentinel(x, neg=True) for x in row] for row in rows],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# products

def test_min_product_hand_example():
    a = _min_matrix([[0, 1], [2, 3]])
    b = _min_matrix([[0, 1], [1, 0]])
    assert min_plus_product(a, b).tolist() == [[0, 1], [2, 3]]


def test_min_product_identity():
    rng = random.Random(3)
    a = np.array([[rng.randint(-50, 50) for _ in range(5)] for _ in range(5)],
                 dtype=np.int64)
    ident = np.full((5, 5), INF, dtype=np.int64)
    np.fill_diagonal(ident, 0)
    assert np.array_equal(min_plus_product(a, ident), a)
    assert np.array_equal(min_plus_product(ident, a), a)


def test_min_product_scalar():
    assert min_plus_product(_min_matrix([[5]]), _min_matrix([[7]])).tolist() == [[12]]


def test_max_product_hand_example():
    a = _max_matrix([[0, 1], [2, 3]])
    b = _max_matrix([[0, 1], [1, 0]])
    assert _product(a, b, MAX, np.empty((2, 2), dtype=np.int64)).tolist() == [[2, 1], [4, 3]]


def test_max_product_identity():
    rng = random.Random(4)
    a = np.array([[rng.randint(-50, 50) for _ in range(4)] for _ in range(6)],
                 dtype=np.int64)
    ident = np.full((4, 4), NEG_INF, dtype=np.int64)
    np.fill_diagonal(ident, 0)
    assert np.array_equal(_product(a, ident, MAX, np.empty((6, 4), dtype=np.int64)), a)


def test_max_product_scalar():
    out = np.empty((1, 1), dtype=np.int64)
    assert _product(_max_matrix([[5]]), _max_matrix([[7]]), MAX, out).tolist() == [[12]]


def test_product_matches_oracle_with_sentinels():
    rng = random.Random(19)
    for _ in range(40):
        n, k, m = (rng.randint(1, 7) for _ in range(3))
        a = [[None if rng.random() < 0.2 else rng.randint(-9, 9)
              for _ in range(k)] for _ in range(n)]
        b = [[None if rng.random() < 0.2 else rng.randint(-9, 9)
              for _ in range(m)] for _ in range(k)]
        got = min_plus_product(_min_matrix(a), _min_matrix(b))
        want = product_oracle(a, b)
        assert got.tolist() == [[_to_sentinel(x) for x in row] for row in want]
        out = np.empty((n, m), dtype=np.int64)
        got = snap_max(_product(_max_matrix(a), _max_matrix(b), MAX, out))
        want = product_oracle(a, b, maximize=True)
        assert got.tolist() == [[_to_sentinel(x, neg=True) for x in row]
                                for row in want]


def test_rejects_oversized_entries():
    bad = np.array([[FINITE_BOUND + 1]], dtype=np.int64)
    with pytest.raises(ValueError):
        min_plus_product(bad, bad)


def test_rejects_shape_mismatch():
    a = np.zeros((2, 3), dtype=np.int64)
    b = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        min_plus_product(a, b)


# ---------------------------------------------------------------------------
# tiled product

def test_tiled_equals_naive_on_hand_examples():
    pairs = [
        ([[0, 1], [2, 3]], [[0, 1], [1, 0]]),
        ([[5]], [[7]]),
        ([[0, None], [3, 1]], [[2, 0], [None, 4]]),
    ]
    # empty operands: every cell, if any, is a min over no splits
    empty = [(np.zeros((p, q), dtype=np.int64), np.zeros((q, r), dtype=np.int64))
             for p, q, r in ((2, 0, 3), (0, 4, 3), (2, 4, 0), (0, 0, 0))]
    for am, bm in [(_min_matrix(a), _min_matrix(b)) for a, b in pairs] + empty:
        for tile in (1, 2, 8):
            assert np.array_equal(min_plus_product_tiled(am, bm, tile=tile),
                                  min_plus_product(am, bm))
    for am, bm in empty:
        got = min_plus_product(am, bm)
        assert got.shape == (am.shape[0], bm.shape[1]) and (got == INF).all()


def test_tiled_single_tile_degenerate():
    rng = random.Random(23)
    a = np.array([[rng.randint(0, 30) for _ in range(6)] for _ in range(6)],
                 dtype=np.int64)
    b = np.array([[rng.randint(0, 30) for _ in range(6)] for _ in range(6)],
                 dtype=np.int64)
    assert np.array_equal(min_plus_product_tiled(a, b, tile=64),
                          min_plus_product(a, b))


def test_tiled_rectangular():
    rng = random.Random(29)
    a = np.array([[rng.randint(-99, 99) for _ in range(17)] for _ in range(33)],
                 dtype=np.int64)
    b = np.array([[rng.randint(-99, 99) for _ in range(29)] for _ in range(17)],
                 dtype=np.int64)
    assert np.array_equal(min_plus_product_tiled(a, b, tile=8),
                          min_plus_product(a, b))


def test_tiled_rejects_bad_tile():
    a = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        min_plus_product_tiled(a, a, tile=0)


# ---------------------------------------------------------------------------
# convolutions

def _min_vec(xs):
    return np.array([_to_sentinel(x) for x in xs], dtype=np.int64)


def _max_vec(xs):
    return np.array([_to_sentinel(x, neg=True) for x in xs], dtype=np.int64)


def test_min_convolution_hand_examples():
    assert min_plus_convolution(_min_vec([0, 2]), _min_vec([0, 1])).tolist() == [0, 1, 3]
    assert min_plus_convolution(
        _min_vec([1, 0, 2]), _min_vec([0, 3, 1])).tolist() == [1, 0, 2, 1, 3]


def test_min_convolution_neutral_left():
    v = _min_vec([4, None, 0, 7])
    assert np.array_equal(min_plus_convolution(_min_vec([0]), v), v)


def test_max_convolution_hand_examples():
    assert _conv_direct(_max_vec([0, 2]), _max_vec([0, 1]), MAX).tolist() == [0, 2, 3]
    assert _conv_direct(
        _max_vec([1, 0, 2]), _max_vec([0, 3, 1]), MAX).tolist() == [1, 4, 3, 5, 3]


def test_max_convolution_neutral_left():
    v = _max_vec([4, None, 0, 7])
    assert np.array_equal(_conv_direct(_max_vec([0]), v, MAX), v)


def test_convolution_rejects_empty():
    with pytest.raises(ValueError):
        min_plus_convolution(np.array([], dtype=np.int64), _min_vec([0]))


def test_convolution_matches_oracle():
    rng = random.Random(31)
    for _ in range(60):
        u = [None if rng.random() < 0.15 else rng.randint(-20, 20)
             for _ in range(rng.randint(1, 12))]
        v = [None if rng.random() < 0.15 else rng.randint(-20, 20)
             for _ in range(rng.randint(1, 12))]
        got = min_plus_convolution(_min_vec(u), _min_vec(v)).tolist()
        assert got == [_to_sentinel(x) for x in conv_oracle(u, v)]
        got = _conv_direct(_max_vec(u), _max_vec(v), MAX).tolist()
        assert got == [_to_sentinel(x, neg=True)
                       for x in conv_oracle(u, v, maximize=True)]


def test_blocked_convolution_hand_examples():
    assert min_plus_convolution_blocked(
        _min_vec([0, 2]), _min_vec([0, 1])).tolist() == [0, 1, 3]
    assert min_plus_convolution_blocked(
        _min_vec([1, 0, 2]), _min_vec([0, 3, 1])).tolist() == [1, 0, 2, 1, 3]
    v = _min_vec([4, None, 0, 7])
    assert np.array_equal(min_plus_convolution_blocked(_min_vec([0]), v), v)


def test_blocked_convolution_long_random():
    rng = np.random.default_rng(5)
    u = rng.integers(0, 1001, size=1000).astype(np.int64)
    v = rng.integers(0, 1001, size=1000).astype(np.int64)
    assert np.array_equal(min_plus_convolution_blocked(u, v),
                          min_plus_convolution(u, v))
    assert np.array_equal(_conv_blocked(u, v, MAX), _conv_direct(u, v, MAX))


def test_blocked_convolution_skips_infinities():
    # a finite split must win over any split through a sentinel
    u = _min_vec([0, None, 5])
    v = _min_vec([0, None, 1])
    got = min_plus_convolution_blocked(u, v)
    assert got.tolist() == [0, INF, 1, INF, 6]


def test_blocked_convolution_fuzz():
    rng = random.Random(37)
    for _ in range(50):
        nu, nv = rng.randint(1, 90), rng.randint(1, 90)
        u = [None if rng.random() < 0.1 else rng.randint(-30, 30)
             for _ in range(nu)]
        v = [None if rng.random() < 0.1 else rng.randint(-30, 30)
             for _ in range(nv)]
        assert np.array_equal(min_plus_convolution_blocked(_min_vec(u), _min_vec(v)),
                              min_plus_convolution(_min_vec(u), _min_vec(v)))
        assert np.array_equal(snap_max(_conv_blocked(_max_vec(u), _max_vec(v), MAX)),
                              _conv_direct(_max_vec(u), _max_vec(v), MAX))


def _sentinel_vector(rng, size, sentinel, lo=-FINITE_BOUND, hi=FINITE_BOUND):
    """Values over [lo, hi], both ends included when there is room, a
    sentinel first and in about a third of the other cells, so that output
    cell 0 has no finite split."""
    x = rng.integers(lo, hi + 1, size=size)
    x[rng.random(size) < 0.3] = sentinel
    x[1:3] = (lo, hi)[:size - 1]
    x[0] = sentinel
    return x


# operands of t^2 - 1, t^2 and t^2 + 1 entries: t rows of t entries, less
# one, exactly, or one more, where the padded operand and the stage of
# _conv_blocked reach their ends
@pytest.mark.parametrize("t", [1, 2, 3, 64])
def test_blocked_convolution_at_square_lengths(t):
    rng = np.random.default_rng(t)
    sizes = [size for size in (t * t - 1, t * t, t * t + 1) if size >= 1]
    for ring in (MIN, MAX):
        for lu in sizes:
            for lv in sizes:
                u = _sentinel_vector(rng, lu, ring.sentinel)
                v = _sentinel_vector(rng, lv, ring.sentinel)
                want = _conv_direct(u, v, ring)
                assert np.array_equal(ring.snap(_conv_blocked(u, v, ring)), want)


def _tiled(x, y, ring):
    out = np.empty(x.shape[:-1] + (x.shape[-1] + y.shape[-1] - 1,), dtype=x.dtype)
    _conv_tiled(x, y, ring, out)
    return out


def _assert_tiled_matches_direct(rng, short, size, dtypes=(np.int64, np.int16, np.int32), rows=2):
    """The tiled kernel against the direct loop: in int64 with INF, snapped
    as the public kernels are; and in the sweeps' narrow dtypes with
    Ring.sentinel_in, half the range, and no snap, on values whose
    sums span the widest range that sum_dtype gives that dtype. There a
    cell with no finite split need not be the sentinel, only beyond every
    finite sum, and it is read as the sentinel. Operands of ``short`` and
    ``size`` entries are convolved as 1-d rows, then as ``rows`` stacked
    rows, each with the same row of the other, in both orders."""
    for ring in (MIN, MAX):
        for dtype in dtypes:
            sentinel = ring.sentinel_in(dtype)
            if dtype is np.int64:
                lo, hi = -FINITE_BOUND, FINITE_BOUND
            else:
                half = abs(sentinel)
                lo = -((half - 1) // 6)
                hi = lo + (half - 1) // 2

            def vector(length):
                return _sentinel_vector(rng, length, ring.sentinel, lo, hi)

            def narrow(a):
                return np.where(a == ring.sentinel, sentinel, a).astype(dtype)

            def settled(got):
                if dtype is np.int64:
                    return ring.snap(got)
                beyond = got > 2 * hi if ring is MIN else got < 2 * lo
                return np.where(beyond, ring.sentinel, got.astype(np.int64))

            u, v = vector(short), vector(size)
            want = _conv_direct(u, v, ring)
            assert want[0] == ring.sentinel
            u, v = narrow(u), narrow(v)
            for a, b in ((u, v), (v, u)):
                got = _tiled(a, b, ring)
                assert got.dtype == dtype
                assert np.array_equal(settled(got), want)
            us = np.stack([vector(short) for _ in range(rows)])
            vs = np.stack([vector(size) for _ in range(rows)])
            wants = [_conv_direct(us[k], vs[k], ring) for k in range(rows)]
            us, vs = narrow(us), narrow(vs)
            for a, b in ((us, vs), (vs, us)):
                got = _tiled(a, b, ring)
                assert got.dtype == dtype and got.shape == (rows, short + size - 1)
                for k in range(rows):
                    assert np.array_equal(settled(got[k]), wants[k])


# shorter-operand lengths from one entry (a block of fewer shifts than the
# kernel's 32) to around and past its block; a longer operand of 2100
# entries makes the tile's column step (2048 at 32 shifts) smaller than its span
@pytest.mark.parametrize("short", [1, 2, 4, 5, 31, 32, 33, 65])
@pytest.mark.parametrize("long", ["equal", 97, 2100])
def test_ring_conv_matches_direct_kernel(short, long):
    size = short if long == "equal" else long
    _assert_tiled_matches_direct(np.random.default_rng([short, size]), short, size)


class _LayoutRing:
    """A ring that records, for every reduce the kernel makes, whether the
    reduced stack lies with its rows innermost in memory."""

    def __init__(self, ring):
        self.ring = ring
        self.sentinel_in = ring.sentinel_in
        self.fold = self   # the kernel calls ring.fold(...) and ring.fold.reduce(...)
        self.rows_innermost = set()

    def __call__(self, *args, **kwargs):
        return self.ring.fold(*args, **kwargs)

    def reduce(self, a, axis, out=None):
        self.rows_innermost.add(a.shape[0] > 1 and a.strides[0] == a.itemsize)
        return self.ring.fold.reduce(a, axis=axis, out=out)


def _runs_rows_innermost(rows, q, ly):
    """The kernel's layout rule: a stack of more rows than its span, or of
    more than a tile of _CONV_SHIFTS shifts by _CONV_SHIFTS columns (or by
    the longer operand, if shorter) holds in _CONV_CELLS, lies rows-innermost.
    Put this way the rule reads from the tile; the kernel's own form is
    rows > min(span, _CONV_CELLS / _CONV_SHIFTS^2), the same for every shape."""
    return rows > q + ly - 1 or rows * min(ly, _CONV_SHIFTS) * _CONV_SHIFTS > _CONV_CELLS


# Stacks on both sides of the layout rule. 64 rows of 65 entries fill a tile
# of 32 x 32 cells exactly and keep the entries innermost; 65 rows go
# rows-innermost, as do 256 rows of 65, 300 rows of 300 and 600 of 600
# (which once took 6 and 3 shifts a block instead), 2049 rows of 33 in two
# blocks and 400 rows of 1 to 33 entries, as the tree sweep's early small
# rounds are, in one tile or (33) two. 39 rows of 20 entries (span 39) keep
# the entries innermost and 40 rows do not. Each stack, cut to its first
# 400 rows (65 for operands longer than 65, still rows-innermost), also goes
# into out narrower than, as wide as and wider than its span, in every
# sweep dtype.
@pytest.mark.parametrize("rows, length", [(64, 65), (65, 65), (256, 65), (300, 300), (600, 600),
                                          (2049, 33), (39, 20), (40, 20), (400, 1), (400, 2),
                                          (400, 31), (400, 32), (400, 33)])
def test_stacked_rows_match_direct_kernel(rows, length):
    layout = _LayoutRing(MIN)
    x = np.zeros((rows, length), dtype=np.int16)
    _conv_tiled(x, x, layout, np.empty((rows, 2 * length - 1), dtype=np.int16))
    assert layout.rows_innermost == {_runs_rows_innermost(rows, length, length)}
    rng = np.random.default_rng([rows, length])
    _assert_tiled_matches_direct(rng, length, length, (np.int16,), rows)
    span = 2 * length - 1
    cut = min(rows, 400 if length <= 65 else 65)
    for ring in (MIN, MAX):
        for dtype in (np.int16, np.int32, np.int64):
            for width in (max(1, span - 7), span, span + 1):
                _assert_rows_match_direct(rng, ring, dtype, (cut,), length, length, width)


@pytest.mark.parametrize("weighted", [False, True], ids=["zero-one", "weighted"])
def test_tree_random_small_rounds_run_rows_innermost(weighted, monkeypatch):
    # the small step's early rounds are stacks of up to 2 x 2036 rows of a
    # few cells: each call that the layout rule calls tall reduces along the
    # rows, and no other call does
    layouts = []

    def recording(x, y, ring, out):
        layout = _LayoutRing(ring)
        _conv_tiled(x, y, layout, out)
        q, ly = sorted((x.shape[-1], y.shape[-1]))
        tall = _runs_rows_innermost(out.size // out.shape[-1], q, ly)
        layouts.append((tall, layout.rows_innermost))

    monkeypatch.setattr(trees, "_conv_tiled", recording)
    parents, labels = parse_tree_text(gen_tree(4096, 1, weighted=weighted), weighted=weighted)
    tree = LabeledTree(parents, labels)
    weighted_tree_max_sums(tree) if weighted else simple_tree_profile(binarize(tree))
    assert sum(tall for tall, _ in layouts) >= 10
    assert all(rows_innermost == {tall} for tall, rows_innermost in layouts)


def _recording_setbufsize(monkeypatch):
    """Every size the kernel passes to np.setbufsize, in call order."""
    sizes = []
    setbufsize = np.setbufsize

    def recording(size):
        sizes.append(size)
        return setbufsize(size)

    monkeypatch.setattr(np, "setbufsize", recording)
    return sizes


# out.size * q just below, at and just above _CONV_CELLS, where a call
# starts to run its tiles under _CONV_BUFSIZE; blocks of at most 2 shifts,
# which numpy does not buffer, never do
@pytest.mark.parametrize("short", [1, 2, 4, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_conv_tiled_matches_direct_across_the_bufsize_scope(short, offset, monkeypatch):
    size = _CONV_CELLS // short - short + 1 + offset   # (short + size - 1) * short cells
    assert (short + size - 1) * short == _CONV_CELLS + offset * short
    default = np.getbufsize()
    sizes = _recording_setbufsize(monkeypatch)
    _assert_tiled_matches_direct(np.random.default_rng([short, size]), short, size,
                                 (np.int16, np.int32), rows=1)
    # 2 rings x 2 dtypes x 2 orders x (1-d, stacked) calls
    scoped = short > 2 and offset >= 0
    assert sizes == ([_CONV_BUFSIZE, default] * 16 if scoped else [])
    assert np.getbufsize() == default


def _assert_rows_match_direct(rng, ring, dtype, lead, q, size, width):
    """_conv_tiled on rows of shape lead + (q,) and lead + (size,), in both
    orders, into out of ``width`` columns, against the direct loop row by
    row: cells past the span are the sentinel. Values and the settling of
    cells with no finite split are those of _assert_tiled_matches_direct."""
    sentinel = ring.sentinel_in(dtype)
    if dtype is np.int64:
        lo, hi = -FINITE_BOUND, FINITE_BOUND
    else:
        half = abs(sentinel)
        lo = -((half - 1) // 6)
        hi = lo + (half - 1) // 2
    n_rows = int(np.prod(lead, dtype=np.int64))
    us = [_sentinel_vector(rng, q, ring.sentinel, lo, hi) for _ in range(n_rows)]
    vs = [_sentinel_vector(rng, size, ring.sentinel, lo, hi) for _ in range(n_rows)]
    want = np.full((n_rows, max(width, q + size - 1)), ring.sentinel, dtype=np.int64)
    for k in range(n_rows):
        want[k, :q + size - 1] = _conv_direct(us[k], vs[k], ring)
    want = want[:, :width].reshape(lead + (width,))

    def narrow(rows, length):
        a = np.stack(rows).reshape(lead + (length,))
        return np.where(a == ring.sentinel, sentinel, a).astype(dtype)

    u, v = narrow(us, q), narrow(vs, size)
    for a, b in ((u, v), (v, u)):
        out = np.empty(lead + (width,), dtype=dtype)
        _conv_tiled(a, b, ring, out)
        beyond = out > 2 * hi if ring is MIN else out < 2 * lo
        assert np.array_equal(np.where(beyond, ring.sentinel, out.astype(np.int64)), want)


# A call whose shorter operand is one block (q <= _CONV_SHIFTS) and whose
# span fits one tile step reduces straight into out, with no buffer and no
# bufsize scope. q = 33 is the first two-block shape. "short" is a small
# single-tile call; "whole" makes the step exactly the span, n_rows * q *
# span <= _CONV_CELLS (q = 32 on one or two rows reaches _CONV_CELLS and is
# scoped); "over" makes it one column short of the span, so the call takes
# the tile loop, scoped for q > 2 unless out is narrower. out is the span
# wide, 7 columns narrower, or one column wider, as the tree sweep's rounds
# of real nodes make it.
@pytest.mark.parametrize("q", [1, 2, 31, 32, 33])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["row", "two-rows", "stacked"])
@pytest.mark.parametrize("fit", ["short", "whole", "over"])
@pytest.mark.parametrize("extra", [0, -7, 1], ids=["span", "narrower", "wider"])
def test_single_tile_calls_match_direct(q, lead, fit, extra, monkeypatch):
    n_rows = int(np.prod(lead, dtype=np.int64))
    span = {"short": q + 39,
            "whole": _CONV_CELLS // (n_rows * q),
            "over": _CONV_CELLS // (n_rows * q) + 1}[fit]
    size = span - q + 1
    default = np.getbufsize()
    sizes = _recording_setbufsize(monkeypatch)
    rng = np.random.default_rng([q, n_rows, span, extra + 7])
    for ring in (MIN, MAX):
        for dtype in (np.int16, np.int32):
            _assert_rows_match_direct(rng, ring, dtype, lead, q, size, span + extra)
    if fit == "short" and q <= 32:
        assert sizes == []
    assert np.getbufsize() == default


class _SecondTileFails:
    """MIN, but the second tile's reduce raises; it records the bufsize
    each tile ran under."""

    fold = np.minimum
    sentinel_in = MIN.sentinel_in

    def __init__(self):
        self.bufsizes = []

    def reduce(self, a, axis):
        self.bufsizes.append(np.getbufsize())
        if len(self.bufsizes) == 2:
            raise RuntimeError("second tile")
        return np.minimum.reduce(a, axis=axis)


def test_conv_tiled_restores_the_callers_bufsize():
    # a call of 1000 x 3000 cells runs its tiles under _CONV_BUFSIZE, and
    # gives the caller's own bufsize back on return and on a raise partway
    rng = np.random.default_rng(7)
    x = rng.integers(-9, 10, (1, 1000)).astype(np.int32)
    y = rng.integers(-9, 10, (1, 3000)).astype(np.int32)
    out = np.empty((1, 3999), dtype=np.int32)
    old = np.setbufsize(4096)
    try:
        _conv_tiled(x, y, MIN, out)
        assert np.getbufsize() == 4096
        ring = _SecondTileFails()
        with pytest.raises(RuntimeError, match="second tile"):
            _conv_tiled(x, y, ring, out)
        assert ring.bufsizes == [_CONV_BUFSIZE] * 2
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_tree_builds_restore_the_bufsize(monkeypatch):
    # the default 0/1 and weighted tree builds make scoped calls
    default = np.getbufsize()
    sizes = _recording_setbufsize(monkeypatch)
    parents, bits = parse_tree_text(gen_tree(4096, 1))
    simple_tree_profile(binarize(LabeledTree(parents, bits)))
    assert sizes and np.getbufsize() == default
    sizes.clear()
    parents, weights = parse_tree_text(gen_tree(4096, 1, weighted=True), weighted=True)
    weighted_tree_max_sums(LabeledTree(parents, weights))
    assert sizes and np.getbufsize() == default


def test_conv_tiled_memory_peak():
    # one int32 (1, 1000) x (1, 3000) call holds its 32 x 2048 tile buffer
    # (256 KiB), the padded longer operand (12 KiB), out (16 KiB) and one
    # tile's reduce (8 KiB); buffered tile adds took 84 KiB more (378 KiB)
    rng = np.random.default_rng(8)
    x = rng.integers(-9, 10, (1, 1000)).astype(np.int32)
    y = rng.integers(-9, 10, (1, 3000)).astype(np.int32)

    def call():
        _conv_tiled(x, y, MIN, np.empty((1, 3999), dtype=np.int32))

    call()   # first call: numpy's own lazy allocations
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 10 < 300


# ---------------------------------------------------------------------------
# sentinel arithmetic

def test_snap_bounds():
    assert snap_min(np.array([INF + 5, 3], dtype=np.int64)).tolist() == [INF, 3]
    assert snap_max(np.array([NEG_INF - 5, 3], dtype=np.int64)).tolist() == [NEG_INF, 3]


def test_outputs_stay_in_domain():
    # every output entry is either finite within bound or exactly a sentinel
    rng = random.Random(41)
    for _ in range(30):
        u = [None if rng.random() < 0.3 else rng.randint(-10**6, 10**6)
             for _ in range(rng.randint(1, 20))]
        v = [None if rng.random() < 0.3 else rng.randint(-10**6, 10**6)
             for _ in range(rng.randint(1, 20))]
        out = min_plus_convolution(_min_vec(u), _min_vec(v))
        ok = (out == INF) | (np.abs(out) <= FINITE_BOUND)
        assert ok.all()
        out = _conv_direct(_max_vec(u), _max_vec(v), MAX)
        ok = (out == NEG_INF) | (np.abs(out) <= FINITE_BOUND)
        assert ok.all()


def test_sentinel_in_table():
    # half of each sweep dtype's range, on the ring's side; in int64 the
    # ring's own INF / NEG_INF, which lies within half the range
    table = {np.int16: 16383, np.int32: 1073741823, np.int64: 1152921504606846976}
    for dtype, value in table.items():
        for key in (dtype, np.dtype(dtype)):
            assert MIN.sentinel_in(key) == value
            assert MAX.sentinel_in(key) == -value


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("ring", [MIN, MAX], ids=["min", "max"])
@pytest.mark.parametrize("lead, q", [((2,), 3), ((2,), 40), ((2, 150), 1), ((2, 150), 2),
                                     ((2, 150), 31), ((2, 150), 32), ((2, 150), 33)],
                         ids=["one-tile", "tile-loop", "tall-1", "tall-2", "tall-31", "tall-32",
                              "tall-33"])
def test_conv_tiled_fills_past_the_span_with_the_sentinel(lead, q, ring, dtype):
    # a caller that pads its own buffer relies on out's cells past the span
    # holding exactly ring.sentinel_in(out.dtype); stacks of 300 rows run
    # rows-innermost
    rng = np.random.default_rng([q, dtype().itemsize])
    x = rng.integers(-50, 51, lead + (q,)).astype(dtype)
    y = rng.integers(-50, 51, lead + (70,)).astype(dtype)
    span = q + 70 - 1
    out = np.zeros(lead + (span + 9,), dtype=dtype)
    _conv_tiled(x, y, ring, out)
    for k in np.ndindex(lead):
        want = _conv_direct(x[k].astype(np.int64), y[k].astype(np.int64), ring)
        assert out[k][:span].tolist() == want.tolist()
    assert (out[..., span:] == ring.sentinel_in(out.dtype)).all()
