"""Property tests, drawn by hypothesis: the string profile and the paper's
string reductions on adversarial bit strings (long runs, all-0, all-1,
alternating and a single 1), the run-boundary sweep on run-length strings and
on piecewise-constant weights, general and two-valued, the bound-pruned sweep
on drifted and spread weights, the gap sweep through rle on bits of any
density, Sturmian words and two-valued weights, occurs against the profile's
arrays, the profile CSV round trip, the writer's chunked range check against
the whole-array rule, the CSV writers against "%d" formatting, the tree sweep
on adversarial shapes, and the vectorised parsers against their line-by-line
readings."""

import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jumbled import inputs, strings
from jumbled.profiles import (
    _CSV_CHUNK_ROWS, CSV_HEADER, SUMS_CSV_HEADER, Profile, occurs, read_profile_csv,
    write_profile_csv, write_sums_csv,
)
from jumbled.minplus import INF, MAX, MIN, NEG_INF
from jumbled.strings import (
    _bound_sweep, _candidates, _run_sweep, _two_valued, _weight_prefix, BinaryString,
    blocked_profile, naive_profile, naive_weighted_max_sums, recursive_profile, rle_profile,
    rle_weighted_max_sums, weighted_max_sums,
)
from jumbled.minplus import narrow_dtype
from jumbled.trees import SMALL, LabeledTree, binarize, simple_tree_profile, tree_profile, \
    weighted_tree_max_sums
from _support import (
    binary_post_order, broom_parents, caterpillar_parents, complete_binary_parents,
    csv_rows_one_at_a_time, path_parents, random_parents, real_descendant_counts,
    star_parents, tree_extremes, window_profile,
)

MAX_N = 160

# no deadline: the loop oracle is quadratic in pure Python; no example
# database, so a run leaves nothing behind
SETTINGS = settings(max_examples=100, deadline=None, database=None)


def _runs(pairs):
    bits = []
    for bit, length in pairs:
        bits.extend([bit] * length)
    return bits or [0]


sizes = st.integers(1, MAX_N)
long_runs = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 60)),
                     min_size=1, max_size=8).map(_runs).map(lambda b: b[:MAX_N])
uniform = st.builds(lambda bit, n: [bit] * n, st.integers(0, 1), sizes)
alternating = st.builds(lambda first, n: [(first + i) % 2 for i in range(n)],
                        st.integers(0, 1), sizes)
single_one = sizes.flatmap(
    lambda n: st.integers(0, n - 1).map(lambda at: [int(i == at) for i in range(n)]))
adversarial = st.one_of(long_runs, uniform, alternating, single_one,
                        st.lists(st.integers(0, 1), min_size=1, max_size=MAX_N))


@SETTINGS
@given(adversarial)
def test_naive_matches_window_oracle(bits):
    mins, maxs = window_profile(bits)
    p = naive_profile(bits)
    assert p.min_ones.tolist() == mins
    assert p.max_ones.tolist() == maxs


@SETTINGS
@given(adversarial)
def test_interval_property(bits):
    # one more character changes a window's 1-count by 0 or 1
    p = naive_profile(bits)
    for extremes in (p.min_ones, p.max_ones):
        steps = set((extremes[1:] - extremes[:-1]).tolist())
        assert steps <= {0, 1}
        assert 0 <= extremes[0] <= 1


# the reductions run on a drawn parameter: b and cutoff from 1 (every block
# or leaf a single bit) to past n (one block, no halving)
@SETTINGS
@given(adversarial, st.data())
def test_reductions_match_naive(bits, data):
    want = naive_profile(bits)
    b = data.draw(st.integers(1, len(bits) + 1), label="b")
    assert blocked_profile(bits, b=b) == want
    cutoff = data.draw(st.integers(1, len(bits) + 1), label="cutoff")
    assert recursive_profile(bits, cutoff=cutoff) == want


@SETTINGS
@given(st.one_of(adversarial, st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                                       max_size=MAX_N)),
       st.integers(1, MAX_N + 1))
def test_weighted_reduction_matches_naive(weights, cutoff):
    assert weighted_max_sums(weights, cutoff=cutoff).tolist() == \
        naive_weighted_max_sums(weights).tolist()


# runs drawn by length and value; two adjacent runs may draw the same value,
# so the sweep must find the runs itself
run_lengths = st.lists(st.integers(1, 40), min_size=1, max_size=12)


def _run_sweep_of(pref, labels, rings):
    labels = np.asarray(labels)
    two_valued = _two_valued(labels)
    return [_run_sweep(pref, ring, *_candidates(labels, ring, two_valued)) for ring in rings]


@SETTINGS
@given(run_lengths, st.data())
def test_run_sweep_matches_naive(lengths, data):
    # the run sweep is called directly, so rle's choice of the bound sweep
    # cannot hide it
    bits = [bit for length in lengths
            for bit in [data.draw(st.integers(0, 1), label="bit")] * length]
    s = BinaryString(bits)
    mins, maxs = _run_sweep_of(s.prefix_ones, s.bits, (MIN, MAX))
    want = naive_profile(s)
    assert mins.tolist() == want.min_ones.tolist()
    assert maxs.tolist() == want.max_ones.tolist()
    # general weights, then weights drawn from two values
    pair = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=2),
                     label="pair")
    for value in (st.integers(-10 ** 6, 10 ** 6), st.sampled_from(pair)):
        weights = [w for length in lengths
                   for w in [data.draw(value, label="weight")] * length]
        (got,) = _run_sweep_of(_weight_prefix(weights), weights, (MAX,))
        assert got.tolist() == naive_weighted_max_sums(weights).tolist()


# weights of a drawn range around a drawn level, so that the centred prefix
# sums drift either way, or spread across the whole int range
drifted = st.tuples(st.integers(-30, 30), st.integers(0, 30)).flatmap(
    lambda level: st.lists(st.integers(level[0], level[0] + level[1]), min_size=1,
                           max_size=MAX_N))


@SETTINGS
@given(st.one_of(drifted, adversarial, st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                                                  max_size=MAX_N)))
def test_bound_sweep_matches_naive(weights):
    # the block pass never gives up below a budget no pass reaches, so the
    # pruned reads run on every input, however short
    pref = _weight_prefix(weights)
    got = _bound_sweep(pref, np.array(weights), MAX, 1 << 62)
    lows = _bound_sweep(pref, np.array(weights), MIN, 1 << 62)
    assert got.tolist() == naive_weighted_max_sums(weights).tolist()
    assert (-lows).tolist() == naive_weighted_max_sums([-w for w in weights]).tolist()


# bits of a drawn density, around each parity change of the rounded 2 mean
biased = st.builds(lambda n, density, seed: (np.random.default_rng(seed).random(n) < density)
                   .astype(int).tolist(),
                   sizes, st.sampled_from([0.05, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.8, 0.95]),
                   st.integers(0, 2 ** 32 - 1))


def _fibonacci(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


# Sturmian words, bit k = floor((k + 1) a + c) - floor(k a + c): the gaps
# between their 1s take two values, and so do the gaps between those gaps,
# so the gap sweep nests; the Fibonacci word is one of them
sturmian = st.one_of(
    sizes.map(_fibonacci),
    st.builds(lambda n, a, c: [int((k + 1) * a + c) - int(k * a + c) for k in range(n)],
              sizes, st.floats(0.01, 0.99), st.floats(0, 1)))

PRICED_OUT = dict(_BOUND_CALL_COST=0, _BOUND_PASS_COST=0, _BOUND_CELL_COST=0)


@SETTINGS
@given(st.one_of(adversarial, biased, sturmian))
def test_rle_profile_through_the_bound_sweep(bits):
    # at no price for the bound sweep rle leaves the run sweep on every
    # input, however short: the bits take the gap sweep, their gap rows of
    # more than two values the bound sweep, whose block pass never gives up
    with mock.patch.multiple(strings, **PRICED_OUT):
        got = rle_profile(bits)
    assert got == naive_profile(bits)


@SETTINGS
@given(st.one_of(adversarial, biased, sturmian),
       st.one_of(st.just(0), st.integers(-10 ** 6, -1)), st.integers(1, 10 ** 6))
def test_rle_weighted_two_values_through_the_gap_sweep(bits, lo, step):
    # weights lo and lo + step laid out as the bits, lo = 0 or negative
    weights = [lo + step * bit for bit in bits]
    with mock.patch.multiple(strings, **PRICED_OUT):
        got = rle_weighted_max_sums(weights)
    assert got.tolist() == naive_weighted_max_sums(weights).tolist()


@SETTINGS
@given(adversarial)
def test_profile_csv_round_trip(bits):
    p = naive_profile(bits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_profile_csv(p, path)
        assert read_profile_csv(path) == p


# row counts on each side of a chunk boundary, and several chunks
CSV_ROWS = st.sampled_from([1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                            3 * _CSV_CHUNK_ROWS + 5])
INT64_ENDS = [-2 ** 63, 2 ** 63 - 1]


# entries of any order, sentinels included: occurs reads what the arrays hold
bounds = st.lists(st.one_of(st.integers(-3, MAX_N + 3), st.sampled_from([INF, NEG_INF])),
                  min_size=1, max_size=MAX_N)


@SETTINGS
@given(bounds, st.data())
def test_occurs_reads_the_interval(lows, data):
    n = len(lows)
    highs = data.draw(st.lists(st.one_of(st.integers(-3, MAX_N + 3), st.just(INF)),
                               min_size=n, max_size=n))
    p = Profile(lows, highs)
    queries = st.tuples(st.integers(-2, n + 2),
                        st.one_of(st.integers(-3, n + 3), st.sampled_from([INF, NEG_INF])))
    for i, j in data.draw(st.lists(queries, min_size=1, max_size=20)):
        want = 1 <= i <= n and bool(lows[i - 1] <= j <= highs[i - 1])
        assert occurs(p, i, j) is want
        assert p.occurs(i, j) is want


@SETTINGS
@given(CSV_ROWS, st.integers(0, 2 ** 32 - 1), st.integers(-1, 1), st.integers(-1, 1))
def test_writer_range_check_is_the_whole_array_rule(n, seed, low_shift, high_shift):
    # valid rows, then one row moved across a rule at a drawn size
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, n + 1)
    mins = rng.integers(0, sizes + 1)
    maxs = rng.integers(mins, sizes + 1)
    at = int(rng.integers(0, n))
    mins[at] += low_shift
    maxs[at] += high_shift
    valid = bool((mins >= 0).all() and (mins <= maxs).all() and (maxs <= sizes).all())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        if valid:
            write_profile_csv(Profile(mins, maxs), path)
            assert read_profile_csv(path) == Profile(mins, maxs)
        else:
            with pytest.raises(ValueError, match="min <= max <= size"):
                write_profile_csv(Profile(mins, maxs), path)
            assert not path.exists()


def _written(write, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(value, path)
        return path.read_bytes()


@SETTINGS
@given(CSV_ROWS, st.integers(0, 2 ** 32 - 1), st.floats(0, 1), st.floats(0, 1))
def test_profile_writer_is_percent_d(n, seed, zeros, spread):
    # valid rows of every digit width up to n's: a share of zero minima, and
    # maxima from min up to min + spread * (size - min)
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, n + 1)
    mins = np.where(rng.random(n) < zeros, 0, rng.integers(0, sizes + 1))
    maxs = mins + (spread * rng.random(n) * (sizes - mins)).astype(np.int64)
    p = Profile(mins, maxs)
    assert _written(write_profile_csv, p) == \
        csv_rows_one_at_a_time(CSV_HEADER, p.min_ones, p.max_ones)


@SETTINGS
@given(CSV_ROWS, st.integers(0, 2 ** 32 - 1), st.integers(1, 19), st.floats(0, 1),
       st.lists(st.tuples(st.floats(0, 1), st.sampled_from(INT64_ENDS)), max_size=4))
def test_sums_writer_is_percent_d(n, seed, widest, negatives, ends):
    # magnitudes of 0 to ``widest`` digits each, a share of them negative,
    # and the int64 extremes at drawn rows
    rng = np.random.default_rng(seed)
    highs = np.uint64(10) ** rng.integers(0, widest + 1, n).astype(np.uint64)
    sums = np.minimum(rng.integers(0, highs, dtype=np.uint64), 2 ** 63 - 1).astype(np.int64)
    sums[rng.random(n) < negatives] *= -1
    for at, end in ends:
        sums[int(at * (n - 1))] = end
    assert _written(write_sums_csv, sums) == csv_rows_one_at_a_time(SUMS_CSV_HEADER, sums)


# ---------------------------------------------------------------------------
# the tree sweep; n reaches past trees.SMALL, so every seam of the sweep runs

TREE_SETTINGS = settings(max_examples=60, deadline=None, database=None)
SHAPES = {"path": path_parents, "star": star_parents, "caterpillar": caterpillar_parents,
          "broom": broom_parents, "complete-binary": complete_binary_parents}


@st.composite
def labeled_trees(draw):
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(sorted(SHAPES) + ["random"]))
    if shape == "random":
        parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    else:
        parents = SHAPES[shape](n)
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    seed = draw(st.integers(0, 2 ** 16))
    rng = random.Random(seed)
    labels = [int(rng.random() < density) for _ in range(n)]
    weights = [rng.randint(-9, 9) for _ in range(n)]
    return shape, parents, labels, weights


def _check_order_and_sizes(parents):
    bt = binarize(LabeledTree(parents, [0] * len(parents)))
    assert bt.post_order.tolist() == binary_post_order(bt.left, bt.right, bt.root)
    assert bt.size.tolist() == real_descendant_counts(bt.parent, bt.n_real).tolist()
    assert bt.size.dtype == narrow_dtype(0, 2 * bt.n_total + 1)


@TREE_SETTINGS
@given(labeled_trees())
def test_tree_sweep_matches_references(case):
    shape, parents, labels, weights = case
    _check_order_and_sizes(parents)
    t = LabeledTree(parents, labels)
    assert simple_tree_profile(binarize(t)) == tree_profile(t)
    got = weighted_tree_max_sums(LabeledTree(parents, weights)).tolist()
    if shape == "path":
        assert got == naive_weighted_max_sums(weights).tolist()
    else:
        assert got == tree_extremes(parents, weights, max)


# sizes around SMALL on every shape, and both sides of the tour's index-dtype
# switch: n_total = 16383 is the last tree of int16 events, 16384 the first of
# int32 (a star of n nodes binarizes to 2n - 3)
@pytest.mark.parametrize("shape, n", [(shape, n) for shape in sorted(SHAPES) + ["random"]
                                      for n in (1, 2, SMALL - 1, SMALL + 1)]
                         + [("path", 16383), ("path", 16384), ("star", 8193), ("star", 8194)])
def test_binarized_order_and_sizes_at_seams(shape, n):
    _check_order_and_sizes(random_parents(random.Random(n), n) if shape == "random"
                           else SHAPES[shape](n))


# ---------------------------------------------------------------------------
# parsers: the vectorised pass and the line-by-line reading agree, errors
# and their positions included

def _outcome(parse, text, *args):
    try:
        result = parse(text, *args)
    except inputs.ParseError as exc:
        return "error", str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return "ok", [(a.dtype.str, a.tolist()) for a in arrays]


# the fast path reads at most 18 digits; 19 go to the line readers, which
# take -2**63 and refuse 2**63 and 20 digits
LONG = ["123456789012345678", "-123456789012345678", "1234567890123456789",
        "-9223372036854775808", "9223372036854775808"]
fields = st.sampled_from(["0", "1", "7", "-3", "12", "-0", "-", "+4", "x", "1_0", "\xa0",
                          "99999999999999999999", "\x0b", *LONG])
gaps = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r", "\n\n"])
blank_lines = st.sampled_from(["", "", "", "", "\n", "\n\n", " \n", "\r\n"])
texts = st.tuples(blank_lines, st.lists(st.tuples(fields, gaps), max_size=14)).map(
    lambda parts: parts[0] + "".join(f + g for f, g in parts[1]))


@st.composite
def tree_texts(draw):
    n = draw(st.integers(0, 6))
    labels = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(["-0", *LONG]))
    lines = [str(n)] + [str(draw(st.integers(-1, n + 1))) + draw(st.sampled_from([" ", "\t"]))
                        + draw(labels) for _ in range(n)]
    text = draw(blank_lines) + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])).join(lines)
    text += draw(st.sampled_from(["", "\n", "\n\n", " \n", "\r"]))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["", "", "", " 1", "\n", "x"])) + text[at:]


@SETTINGS
@given(st.one_of(texts, st.text(alphabet="01 \n\tx\x0b\xa0", max_size=40)))
def test_string_and_weight_parsers_match_line_readings(text):
    assert _outcome(inputs.parse_binary_string_text, text) == \
        _outcome(inputs._parse_bits_per_char, text)
    assert _outcome(inputs.parse_weights_text, text) == \
        _outcome(inputs._parse_weights_per_token, text)


@SETTINGS
@given(tree_texts(), st.booleans())
def test_tree_parser_matches_line_reading(text, weighted):
    assert _outcome(inputs.parse_tree_text, text, weighted) == \
        _outcome(inputs._parse_tree_lines, text, weighted)


# texts the byte pass must take whole: tokens of mixed lengths up to 18
# digits, so a short token's gather reaches into the gap and the token
# before it
@SETTINGS
@given(blank_lines, st.lists(st.tuples(st.one_of(st.integers(-12, 12),
                                                 st.integers(-10 ** 18 + 1, 10 ** 18 - 1)),
                                       st.sampled_from([" ", "\t", "\n", "\r\n", "\r", " \n "])),
                             min_size=1, max_size=30), st.booleans())
def test_weights_of_at_most_18_digits_take_the_byte_pass(lead, parts, strip):
    text = lead + "".join(f"{v}{gap}" for v, gap in parts)
    text = text.rstrip() if strip else text
    tokens = inputs._int_tokens(text)
    assert tokens is not None and tokens[0].tolist() == [v for v, _ in parts]
    assert _outcome(inputs.parse_weights_text, text) == \
        _outcome(inputs._parse_weights_per_token, text)


@st.composite
def tree_texts_with_a_moved_break(draw):
    """A valid tree text, then at most one gap changed: two adjacent gaps
    swapped (a line break moves by one token), a line break made a space, a
    space made a line break, or the final line break dropped."""
    n = draw(st.integers(1, 12))
    weighted = draw(st.booleans())
    label = st.integers(-30, 30) if weighted else st.integers(0, 1)
    tokens = [str(n)]
    for v in range(n):   # node v + 1 hangs below an earlier node, the first is the root
        tokens += [str(draw(st.integers(1, v)) if v else 0), str(draw(label))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    gaps = [draw(st.sampled_from([" ", "\t"])) if k % 2 else end for k in range(len(tokens))]
    k = draw(st.integers(0, len(gaps) - 1))
    move = draw(st.sampled_from(["none", "swap", "to space", "to break", "strip"]))
    if move == "swap" and k + 1 < len(gaps):
        gaps[k], gaps[k + 1] = gaps[k + 1], gaps[k]
    elif move in ("to space", "to break"):
        gaps[k] = " " if move == "to space" else end
    elif move == "strip":
        gaps[-1] = ""
    return "".join(t + g for t, g in zip(tokens, gaps)), weighted


@SETTINGS
@given(tree_texts_with_a_moved_break())
def test_tree_parser_places_line_breaks_as_the_line_reading(case):
    text, weighted = case
    assert _outcome(inputs.parse_tree_text, text, weighted) == \
        _outcome(inputs._parse_tree_lines, text, weighted)
