"""Plane trees with strictly decreasing labels: counts, bijections, spectra.

The package computes the number of n-node plane trees labelled from {1..k}
with strictly decreasing labels by three independent methods, realises the
bijection between those trees and closed root walks in regular leaning
trees, locates the dominant singularity of the counting series to extract
growth constants, and evaluates eigenvalue bounds for trees through the
Ulam-Harris number.
"""

from .asymptotics import (
    BeyondRoot,
    Dual,
    RootBracket,
    alpha,
    alpha_bounds,
    ck,
    eval_gk,
    eval_gk_dual,
    eval_sk,
    growth_constants,
    zstar,
    zstar_lower_bound,
    zstar_upper_bound,
)
from .bijection import (
    UP,
    Walk,
    build_tree_from_walk,
    build_walk_from_tree,
    enumerate_closed_walks,
    format_walk,
    parse_walk,
    validate_walk,
)
from .errors import LimitError, TreeParseError, WalkError
from .series import (
    TruncatedSeries,
    count_trees,
    count_trees_by_compositions,
    count_with_root_label,
    gk_series,
    series_from_json,
    series_invert_unit,
    series_to_json,
    sk_series,
)
from .spectral import (
    lambda1,
    leaning_eigen_bound,
    leaning_lambda1,
    stevanovic_bounds,
    walk_count_table,
    walk_growth_estimate,
)
from .trees import (
    PlaneTree,
    enumerate_decreasing_trees,
    format_tree,
    is_decreasing,
    iter_decreasing_trees,
    leaning_tree,
    max_degree,
    node_count,
    parse_tree,
    random_plane_tree,
    subtree_plan,
)
from .ulam_harris import (
    UhReport,
    enumerate_unordered_shapes,
    uh_min,
    uh_min_bruteforce,
    uh_number,
    uh_ordered,
)

__version__ = "0.1.0"

__all__ = [
    "BeyondRoot",
    "Dual",
    "LimitError",
    "PlaneTree",
    "RootBracket",
    "TreeParseError",
    "TruncatedSeries",
    "UP",
    "UhReport",
    "Walk",
    "WalkError",
    "alpha",
    "alpha_bounds",
    "build_tree_from_walk",
    "build_walk_from_tree",
    "ck",
    "count_trees",
    "count_trees_by_compositions",
    "count_with_root_label",
    "enumerate_closed_walks",
    "enumerate_decreasing_trees",
    "enumerate_unordered_shapes",
    "eval_gk",
    "eval_gk_dual",
    "eval_sk",
    "format_tree",
    "format_walk",
    "gk_series",
    "growth_constants",
    "is_decreasing",
    "iter_decreasing_trees",
    "lambda1",
    "leaning_eigen_bound",
    "leaning_lambda1",
    "leaning_tree",
    "max_degree",
    "node_count",
    "parse_tree",
    "parse_walk",
    "random_plane_tree",
    "series_from_json",
    "series_invert_unit",
    "series_to_json",
    "sk_series",
    "stevanovic_bounds",
    "subtree_plan",
    "uh_min",
    "uh_min_bruteforce",
    "uh_number",
    "uh_ordered",
    "validate_walk",
    "walk_count_table",
    "walk_growth_estimate",
    "zstar",
    "zstar_lower_bound",
    "zstar_upper_bound",
]
