"""Jumbled-pattern-matching indexes for binary strings and labeled trees.

A profile records, for every size i, the minimum and maximum number of
1-labels over all substrings (strings) or connected subgraphs (trees) of
size i. Because the feasible 1-counts per size form a contiguous interval,
the profile answers every occurrence query (i, j) in constant time.
"""

from .inputs import ParseError
from .minplus import lazy_names
from .profiles import Profile, occurs, read_profile_csv, write_profile_csv, write_sums_csv
from .strings import (BinaryString, naive_profile, naive_weighted_max_sums, rle_profile,
                      rle_weighted_max_sums)
from .trees import LabeledTree, binarize, simple_tree_profile, weighted_tree_max_sums

# the reference backends, imported from reference.py on first read
__getattr__ = lazy_names(__name__, {".reference": (
    "blocked_profile recursive_profile weighted_max_sums tree_profile "
    "enumerate_connected_oracle enumerate_max_sums")})

__all__ = [
    "Profile", "occurs", "read_profile_csv", "write_profile_csv", "write_sums_csv",
    "ParseError",
    "BinaryString", "naive_profile", "naive_weighted_max_sums", "blocked_profile",
    "recursive_profile", "weighted_max_sums", "rle_profile", "rle_weighted_max_sums",
    "LabeledTree", "binarize", "simple_tree_profile", "weighted_tree_max_sums",
    "tree_profile", "enumerate_connected_oracle", "enumerate_max_sums",
]

__version__ = "0.1.0"
