"""The package's public surface and its input boundaries."""

import numpy as np
import pytest

import jumbled
from jumbled.minplus import min_plus_product, min_plus_product_tiled
from jumbled.strings import (
    blocked_profile, naive_profile, naive_weighted_max_sums, recursive_profile,
    rle_weighted_max_sums, weighted_max_sums,
)
from jumbled.trees import LabeledTree, tree_profile

USER_API = [
    "Profile", "occurs", "read_profile_csv", "write_profile_csv", "write_sums_csv",
    "ParseError",
    "BinaryString", "naive_profile", "naive_weighted_max_sums", "blocked_profile",
    "recursive_profile", "weighted_max_sums", "rle_profile", "rle_weighted_max_sums",
    "LabeledTree", "binarize", "simple_tree_profile", "weighted_tree_max_sums",
    "tree_profile", "enumerate_connected_oracle", "enumerate_max_sums",
]


def test_all_is_the_user_api():
    assert sorted(jumbled.__all__) == sorted(USER_API)
    assert len(jumbled.__all__) == len(USER_API)
    for name in USER_API:
        assert callable(getattr(jumbled, name))


# a value that is not an integer within int64 is refused with ValueError,
# never truncated (0.9 -> 0) or wrapped, at every boundary that casts to int64
BOUNDARIES = {
    "tree-parents": lambda bad: LabeledTree([-1, bad], [0, 1]),
    "tree-labels": lambda bad: LabeledTree([-1, 0], [bad, 1]),
    "naive-weights": lambda bad: naive_weighted_max_sums([1, bad]),
    "recursive-weights": lambda bad: weighted_max_sums([1, bad]),
    "product": lambda bad: min_plus_product([[bad, 2]], [[1], [0]]),
}


@pytest.mark.parametrize("bad", [0.9, -0.5, float("nan"), float("inf"), 2 ** 63, 2 ** 70, "1"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundaries_refuse_non_int64_values(boundary, bad):
    with pytest.raises(ValueError):
        BOUNDARIES[boundary](bad)


# the reductions' size parameters: an integer >= 1 (anything operator.index
# takes), and ValueError for everything else instead of an IndexError, a
# silent round down or a string taken as a number
PARAMETERS = {
    "blocked-b": lambda value: blocked_profile("0110101", b=value),
    "tree-r": lambda value: tree_profile(LabeledTree([-1, 0, 0, 1], [1, 0, 1, 1]), r=value),
    "recursive-cutoff": lambda value: recursive_profile("0110101", cutoff=value),
    "weighted-cutoff": lambda value: weighted_max_sums([1, -2, 3], cutoff=value),
    "product-tile": lambda value: min_plus_product_tiled([[1, 2]], [[0], [3]], tile=value),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", 0, -1, np.float64(3.0)])
@pytest.mark.parametrize("parameter", sorted(PARAMETERS))
def test_reduction_parameters_refuse_non_positive_integers(parameter, bad):
    with pytest.raises(ValueError, match="integer >= 1"):
        PARAMETERS[parameter](bad)


@pytest.mark.parametrize("good", [1, 3, np.int64(2), np.uint8(5)])
@pytest.mark.parametrize("parameter", sorted(PARAMETERS))
def test_reduction_parameters_take_integers(parameter, good):
    PARAMETERS[parameter](good)


# a block at least as long as the string is one block of it, which is
# naive_profile's, however far past int64 it reaches
@pytest.mark.parametrize("b", [7, 2 ** 63 - 1, 2 ** 63, 99999999999999999999])
def test_blocked_profile_takes_any_block_past_the_string(b):
    assert blocked_profile("0110101", b=b) == naive_profile("0110101")


# a wrong number of dimensions is named as such, not as an empty input
DIMENSIONS = {
    "tree": lambda: LabeledTree([[-1]], [[1]]),
    "naive-weights": lambda: naive_weighted_max_sums([[1, 2]]),
    "rle-weights": lambda: rle_weighted_max_sums([[1, 2]]),
    "recursive-weights": lambda: weighted_max_sums([[1, 2]]),
}


@pytest.mark.parametrize("boundary", sorted(DIMENSIONS))
def test_boundaries_name_a_wrong_number_of_dimensions(boundary):
    with pytest.raises(ValueError, match=r"must be 1-dimensional, got shape \(1, "):
        DIMENSIONS[boundary]()


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint32, np.int64, bool])
def test_boundaries_take_every_int64_compatible_dtype(dtype):
    t = LabeledTree(np.array([-1, 0, 0], dtype=np.int64), np.array([1, 0, 1], dtype=dtype))
    assert t.labels.dtype == np.int64 and t.labels.tolist() == [1, 0, 1]
    w = np.array([1, 0, 1], dtype=dtype)
    assert naive_weighted_max_sums(w).tolist() == [1, 1, 2]
    assert min_plus_product(np.array([[1, 0]], dtype=dtype),
                            np.array([[1], [0]], dtype=dtype)).tolist() == [[0]]


@pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=object),
                                     np.array([1, 0, 1], dtype=np.uint64)])
def test_boundaries_take_integral_values_of_any_dtype(weights):
    assert naive_weighted_max_sums(weights).tolist() == [1, 1, 2]
