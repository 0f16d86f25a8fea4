import random

import numpy as np
import pytest

from jumbled.bitvec import RankBitvector


def test_empty():
    bv = RankBitvector([])
    assert bv.m == 0
    assert bv.rank1(0) == 0


def test_small_prefix_counts():
    bv = RankBitvector([1, 0, 1, 1, 0])
    assert bv.rank1(0) == 0
    assert bv.rank1(3) == 2
    assert bv.rank1(5) == 3


def test_saturated_word():
    bv = RankBitvector([1] * 64)
    assert bv.rank1(64) == 64


def test_out_of_range():
    bv = RankBitvector([1, 0, 1])
    with pytest.raises(IndexError):
        bv.rank1(4)
    with pytest.raises(IndexError):
        bv.rank1(-1)


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        RankBitvector([0, 2, 1])
    # out-of-range values are refused before the uint8 cast could wrap them
    with pytest.raises(ValueError):
        RankBitvector([0, 256, 1])


def test_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 200))]
        assert RankBitvector(bits).to_array().tolist() == bits


def test_rank_matches_prefix_sums():
    # lengths straddling the 64-bit word boundary get extra attention
    rng = random.Random(7)
    lengths = [1, 2, 63, 64, 65, 127, 128, 129] + \
        [rng.randint(1, 300) for _ in range(30)]
    for n in lengths:
        bits = [rng.randint(0, 1) for _ in range(n)]
        bv = RankBitvector(np.asarray(bits))
        acc = 0
        assert bv.rank1(0) == 0
        for i, b in enumerate(bits, start=1):
            acc += b
            assert bv.rank1(i) == acc


def test_module_level_helper():
    assert RankBitvector([1, 0, 1, 1, 0]).rank1(3) == 2
