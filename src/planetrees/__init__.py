"""Plane trees with strictly decreasing labels: counts, bijections, spectra.

The package computes the number of n-node plane trees labelled from {1..k}
with strictly decreasing labels by three independent methods, realises the
bijection between those trees and closed root walks in regular leaning
trees, locates the dominant singularity of the counting series to extract
growth constants, and evaluates eigenvalue bounds for trees through the
Ulam-Harris number.

Importing the package loads none of its modules.  Each exported name, and
each module as an attribute (``planetrees.spectral``), is imported on first
use (PEP 562), so a command line that counts never compiles the spectral or
enumeration code.  An export is read from its module on every access: the
package holds no binding of its own that a replaced function could outlive.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each exported name and the module that defines it
_EXPORTS = {
    "LimitError": "errors",
    "PlaneTree": "trees",
    "RootBracket": "asymptotics",
    "TreeParseError": "errors",
    "TruncatedSeries": "series",
    "UP": "bijection",
    "UhReport": "ulam_harris",
    "Walk": "bijection",
    "WalkError": "errors",
    "alpha_bounds": "asymptotics",
    "build_tree_from_walk": "bijection",
    "build_walk_from_tree": "bijection",
    "count_trees": "series",
    "count_trees_by_compositions": "series",
    "count_trees_by_enumeration": "trees",
    "count_trees_by_literal_compositions": "series",
    "count_with_root_label": "series",
    "eval_gk_with_derivative": "asymptotics",
    "eval_sk": "asymptotics",
    "format_tree": "trees",
    "format_walk": "bijection",
    "gk_series": "series",
    "growth_constants": "asymptotics",
    "is_decreasing": "trees",
    "iter_closed_walks": "bijection",
    "iter_decreasing_trees": "trees",
    "lambda1": "spectral",
    "leaning_eigen_bound": "spectral",
    "leaning_lambda1": "spectral",
    "leaning_tree": "trees",
    "max_degree": "trees",
    "node_count": "trees",
    "parse_plan": "trees",
    "parse_tree": "trees",
    "parse_walk": "bijection",
    "random_plane_tree": "trees",
    "series_to_json": "series",
    "sk_series": "series",
    "stevanovic_bounds": "spectral",
    "subtree_plan": "trees",
    "uh_min": "ulam_harris",
    "uh_min_bruteforce": "ulam_harris",
    "uh_number": "ulam_harris",
    "uh_ordered": "ulam_harris",
    "validate_walk": "bijection",
    "walk_count_table": "spectral",
    "walk_growth_estimate": "spectral",
    "zstar": "asymptotics",
    "zstar_lower_bound": "asymptotics",
    "zstar_upper_bound": "asymptotics",
}

#: the package's modules, each reachable as an attribute of the package
_MODULES = frozenset(_EXPORTS.values()) | {"cli", "intstr", "verify"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULES})
