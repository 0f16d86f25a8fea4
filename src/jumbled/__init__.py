"""Jumbled-pattern-matching indexes for binary strings and labeled trees.

A profile records, for every size i, the minimum and maximum number of
1-labels over all substrings (strings) or connected subgraphs (trees) of
size i. Because the feasible 1-counts per size form a contiguous interval,
the profile answers every occurrence query (i, j) in constant time.
"""

from .bitvec import RankBitvector
from .inputs import ParseError
from .minplus import (
    FINITE_BOUND,
    INF,
    NEG_INF,
    max_plus_convolution,
    max_plus_convolution_blocked,
    max_plus_product,
    min_plus_convolution,
    min_plus_convolution_blocked,
    min_plus_product,
    min_plus_product_tiled,
)
from .profiles import (
    Profile,
    merge_profiles,
    occurs,
    read_profile_csv,
    write_profile_csv,
    write_sums_csv,
)
from .strings import (
    BinaryString,
    BlockPartition,
    CrossBlockTables,
    blocked_profile,
    build_cross_tables,
    make_block_partition,
    naive_profile,
    naive_weighted_max_sums,
    recursive_profile,
    weighted_max_sums,
)
from .trees import (
    BinarizedTree,
    CorruptedProfileError,
    DeltaBits,
    LabeledTree,
    MicroMacroDecomposition,
    binarize,
    combine_children,
    encode_delta,
    enumerate_connected_oracle,
    feasible_size_sets,
    micro_macro,
    simple_tree_profile,
    tree_profile,
    weighted_tree_max_sums,
)

__version__ = "0.1.0"
