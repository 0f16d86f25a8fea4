"""Property tests of the string profile on adversarial bit strings: long
runs, all-0, all-1, alternating and a single 1, drawn by hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jumbled.strings import naive_profile
from _support import window_profile

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
