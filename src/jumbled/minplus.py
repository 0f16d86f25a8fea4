"""Tropical-semiring kernels: the min and max rings, the sweeps' narrow
dtypes, and the one convolution kernel every sweep runs through,
_conv_tiled. The direct loop behind min_plus_convolution is the reference
it is tested against, and min_plus_convolution_blocked, which evaluates a
convolution through small matrix products as the paper does, is kept as
the reference reduction. Those two and the public (min,+) products,
min_plus_product and min_plus_product_tiled, are defined in reference.py,
which is imported when one of them is first read from here (lazy_names).

Cost model
----------
The public kernels run on int64: finite costs satisfy |x| <= FINITE_BOUND,
and the sentinels INF (min side) and NEG_INF (max side) mark infeasible
cells. Additions never overflow (2 * INF = 2^61 < 2^63) and are re-saturated
where a public kernel returns: a sum lands beyond the snap threshold iff one
of its operands was a sentinel, because finite + finite <= 2^53 < INF -
FINITE_BOUND. The sweeps, the blocked reduction included, run in a narrow
dtype and never snap: see Ring.sentinel_in."""

from __future__ import annotations

import importlib
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

FINITE_BOUND = 1 << 52
INF = 1 << 60
NEG_INF = -(1 << 60)

_SNAP_HI = INF - FINITE_BOUND
_SNAP_LO = NEG_INF + FINITE_BOUND


def _check_weights(weights: np.ndarray) -> None:
    """ValueError unless every sum of ``weights`` lies within FINITE_BOUND
    (in Python ints: np.abs wraps -2**63 to itself)."""
    if max(-int(weights.min()), int(weights.max())) * weights.size > FINITE_BOUND:
        raise ValueError("weight magnitudes too large for exact arithmetic")

# the tiled kernel takes up to _CONV_SHIFTS entries of its shorter operand at
# a time and fills a reused buffer of at most _CONV_CELLS cells per tile.
# Re-fitted with unbuffered adds (below): 64 shifts made naive_profile 1.06x
# slower at n = 16384, and 2^17 cells raised the 0/1 tree-random build's
# tracemalloc peak from 755 to 887 KiB. A stack of more rows than its span,
# or than a tile of _CONV_SHIFTS shifts by _CONV_SHIFTS columns holds, runs
# rows-innermost (_conv_tiled) with all its shifts. Fewer shifts a block
# with the entries kept innermost took, on int16 stacks (rows, entries of
# each operand), 1.09 against 0.26 ms at (256, 65), 1.32 against 0.31 at
# (2048, 9), 1.86 against 0.46 at (128, 65) and 69.7 against 14.6 at
# (300, 300) (2-core x86 VM)
_CONV_SHIFTS = 32
_CONV_CELLS = 1 << 16
# numpy copies the operands of a tile add of more than 2 shift rows through
# buffers of bufsize elements unless the tile is at least about bufsize / 3
# columns wide: 2731 at the default 8192 (numpy 2.4), wider than every tile.
# A call of _CONV_CELLS cells or more runs its tiles under this bufsize,
# which leaves tiles of 683 columns or more unbuffered: int32 adds of
# 1024-2048 columns took 0.23-0.31 against 0.63-0.70 ns a cell buffered,
# and the buffers were 84 KiB of a 1000 x 3000 int32 join's 362 KiB
# tracemalloc peak. The tile reduce, which runs in pieces of bufsize cells,
# keeps its speed here; at 16 or 512 the tree-random sweeps took 1.03x as
# long. A set and restore costs a few us, a third of a short join, so
# smaller calls keep numpy's bufsize
_CONV_BUFSIZE = 2048


def snap_min(a: np.ndarray) -> np.ndarray:
    """Re-saturate after additions on the min side (in place)."""
    a[a >= _SNAP_HI] = INF
    return a


def snap_max(a: np.ndarray) -> np.ndarray:
    a[a <= _SNAP_LO] = NEG_INF
    return a


@dataclass(frozen=True)
class Ring:
    """One side of the tropical semiring: the int64 sentinel that marks an
    infeasible cell, the pointwise fold (np.minimum / np.maximum), and the
    snap that re-saturates int64 sums."""

    sentinel: int
    fold: np.ufunc
    snap: object

    def __post_init__(self):   # _narrow, sentinel_in's table, keyed by scalar type and by dtype
        halves = {t: int(np.iinfo(t).max) // 2 for t in (np.int16, np.int32, np.int64)}
        object.__setattr__(self, "_narrow", {k: min(max(self.sentinel, -h), h)
                                             for t, h in halves.items() for k in (t, np.dtype(t))})

    def sentinel_in(self, dtype) -> int:
        """The ring's sentinel clipped to half of a sweep's ``dtype``: in a dtype
        that holds +-2 bound, it is bound or more from 0, stays in range after a
        finite addend in [-bound, bound], and two of them add without overflow."""
        return self._narrow[dtype]

    def reduce(self, a: np.ndarray, axis=None):
        return self.fold.reduce(a, axis=axis)


MIN = Ring(INF, np.minimum, snap_min)
MAX = Ring(NEG_INF, np.maximum, snap_max)


def narrow_dtype(lo: int, hi: int):
    """The smallest signed dtype holding every value in [lo, hi] and every
    difference of two of them."""
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max and hi - lo <= info.max:
            return dtype
    return np.int64


def sum_dtype(rows: np.ndarray):
    """The sweep dtype for sums of labels along ``rows``. A sum lies in [lo, hi],
    the sums of a row's negative and positive labels; holding +-2 (hi - lo + 1)
    keeps Ring.sentinel_in beyond every finite value after one finite addend."""
    lo = int(np.minimum(rows, 0).sum(axis=-1).min())
    hi = int(np.maximum(rows, 0).sum(axis=-1).max())
    return narrow_dtype(-(hi - lo + 1), hi - lo + 1)


def as_int64(x, what: str, ndim=None) -> np.ndarray:
    """``x`` as an int64 array; ValueError if it has not ``ndim`` dimensions
    (when given), or if a value is not an integer or lies outside int64. A
    dtype that int64 holds without loss (bool, and every integer dtype but
    uint64) is only cast, with no pass over the values."""
    a = np.asarray(x)
    if ndim is not None and a.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {a.shape}")
    if np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "u":
        ok = (a <= np.iinfo(np.int64).max).all()
    elif a.dtype.kind == "f":
        ok = ((a == np.trunc(a)) & (a >= -2.0 ** 63) & (a < 2.0 ** 63)).all()
    elif a.dtype.kind == "O":
        ok = all(isinstance(v, numbers.Integral) and -2 ** 63 <= v < 2 ** 63 for v in a.flat)
    else:
        ok = False
    if not ok:
        raise ValueError(f"{what} must hold integers within int64")
    return a.astype(np.int64)


def as_bits(bits) -> np.ndarray:
    """``bits`` as a contiguous uint8 array. Values are checked before the
    narrowing cast, so 256 or -1 is refused rather than wrapped."""
    arr = np.asarray(bits)
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def positive_int(x, what: str) -> int:
    """``x`` as an int >= 1; ValueError for anything else, 2.5 and "3" included."""
    value = operator.index(x) if hasattr(type(x), "__index__") else 0
    if value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {x!r}")
    return value


def sqrt_ceil(n: int) -> int:
    """ceil(sqrt(n)), and 1 for n <= 1: the default block and micro sizes."""
    return math.isqrt(n - 1) + 1 if n > 1 else 1


def lazy_names(module: str, homes: dict):
    """A __getattr__ (PEP 562) for ``module``: ``homes`` maps a module of the
    package to names, space-separated, that it defines, so that it is imported
    on the first read of one of them through ``module``."""
    home = {name: mod for mod, names in homes.items() for name in names.split()}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(home[name], __package__), name)
    return __getattr__


__getattr__ = lazy_names(__name__, {".reference": (
    "min_plus_product min_plus_product_tiled min_plus_convolution min_plus_convolution_blocked")})


def _conv_tiled(x: np.ndarray, y: np.ndarray, ring: Ring, out: np.ndarray) -> None:
    """out[..., i] = ext_k x[..., k] + y[..., i - k] along the last axis, for
    every i below out's width, and no cell beyond ring.sentinel_in(out.dtype),
    which x and y may hold and every cell past the span holds. Every sweep
    convolves here, strings._window_extremes included, as a row's self-correlation.

    A block of K entries of the shorter operand meets the longer one in
    tiles of K x C cells, each filled by one add from a Hankel view of the
    longer operand (K - 1 sentinels on each side) and emptied by one reduce
    over its K rows. A block wastes K(K-1) cells past the operands' ends.
    A call whose shorter operand is one block and whose span is one tile
    (most calls of the tree sweep) takes no buffer and no loop: one add
    and one reduce straight into out, then the sentinel past the span.
    A call of at least _CONV_CELLS cells runs its tiles under a numpy
    bufsize at which the adds are not buffered (see _CONV_BUFSIZE), and
    restores the caller's bufsize on return and on a raise.

    The shape picks the memory layout. A stack of more rows than its span
    (the tree sweep's early small rounds: up to 4072 rows of 2-3 cells), or
    than _CONV_CELLS / K^2 = 64, which a tile of K shifts by K columns
    would not hold, runs rows-innermost: the shorter operand, the
    padded longer one and the output are laid out (entries, rows), the
    Hankel view and the tiles (K, C, rows), so every add and reduce runs its
    inner loop along the rows, and the output is copied into out at the
    end. Every other call runs its inner loops along the entries. Either
    way a block is min(K, q) entries (see _CONV_SHIFTS)."""
    if x.shape[-1] > y.shape[-1]:
        x, y = y, x
    q, ly = x.shape[-1], y.shape[-1]
    width = out.shape[-1]
    n_rows = out.size // width
    sentinel = ring.sentinel_in(out.dtype)
    k_s = max(1, min(_CONV_SHIFTS, q))
    tall = n_rows > min(q + ly - 1, _CONV_CELLS // _CONV_SHIFTS ** 2)
    if tall:   # transposed views of (entries, rows) arrays
        x, y = np.ascontiguousarray(x.reshape(n_rows, q).T).T, y.reshape(n_rows, ly)
        dest, out = out, np.empty((width, n_rows), dtype=out.dtype).T
        mem = np.full((ly + 2 * (k_s - 1), n_rows), sentinel, dtype=out.dtype)
        padded = mem.T
    else:
        mem = padded = np.full(out.shape[:-1] + (ly + 2 * (k_s - 1),), sentinel, dtype=out.dtype)
    padded[..., k_s - 1:k_s - 1 + ly] = y
    span = ly + k_s - 1   # the output positions one block reaches
    # hankel[..., m, t] = padded[..., t + m]; the ndarray constructor makes
    # it in ~1.3 us, as_strided in ~6.9 us (2-core x86 VM)
    hankel = np.ndarray(padded.shape[:-1] + (k_s, span), padded.dtype, mem.data.toreadonly(),
                        0, padded.strides + padded.strides[-1:])
    step = max(1, min(_CONV_CELLS // (n_rows * k_s), span))
    scoped = k_s > 2 and out.size * q >= _CONV_CELLS
    if not scoped and q == k_s and step == span:   # out may be narrower or wider
        ring.fold.reduce(hankel[..., :width] + x[..., ::-1, None], axis=-2, out=out[..., :span])
        out[..., span:] = sentinel
    else:
        buf = (np.empty((k_s, step, n_rows), dtype=out.dtype).transpose(2, 0, 1) if tall
               else np.empty(out.shape[:-1] + (k_s, step), dtype=out.dtype))
        out.fill(sentinel)
        # not np.errstate: numpy 1.24's does not restore the bufsize
        old = np.setbufsize(_CONV_BUFSIZE) if scoped else None
        try:
            for k0 in range(0, min(q, width), k_s):
                kb = min(k_s, q - k0)
                block = x[..., k0:k0 + kb][..., ::-1, None]   # row m: x[k0 + kb - 1 - m]
                rows = hankel[..., k_s - kb:, :]              # row m: y[t - (kb - 1 - m)]
                end = min(ly + kb - 1, width - k0)   # past the last real cell, out keeps the sentinel
                for t0 in range(0, end, step):
                    t1 = min(end, t0 + step)
                    tile = buf[..., :kb, :t1 - t0]
                    np.add(rows[..., t0:t1], block, out=tile)
                    dst = out[..., k0 + t0:k0 + t1]
                    ring.fold(dst, ring.reduce(tile, axis=-2), out=dst)
        finally:
            if scoped:
                np.setbufsize(old)
    if tall:
        dest[...] = out.reshape(dest.shape)
