#!/usr/bin/env python3
"""Counting decreasing-label plane trees three independent ways.

A plane tree on n nodes gets labels from {1..k}; along every path away from
the root the labels must strictly decrease.  This script prints the count
table, shows that the power-series route, the composition recurrence, and
brute-force enumeration give identical numbers, and demonstrates the exact
JSON exchange format for coefficient lists.
"""

from planetrees import (
    count_trees,
    count_trees_by_compositions,
    count_trees_by_enumeration,
    count_trees_by_literal_compositions,
    format_tree,
    gk_series,
    iter_decreasing_trees,
    series_to_json,
)


def main():
    print("Count table (rows n = 1..8, columns k = 1..6):")
    for n in range(1, 9):
        row = [count_trees(n, k) for k in range(1, 7)]
        print(f"  n={n}: " + "  ".join(f"{c:>8d}" for c in row))

    print()
    print("One label only allows the single node:")
    print("  counts for k=1:", [count_trees(n, 1) for n in range(1, 6)])
    print("Two labels allow exactly one tree per size beyond n=1")
    print("  counts for k=2:", [count_trees(n, 2) for n in range(1, 8)])

    print()
    print("All six trees with 3 nodes and labels up to 3:")
    for t in iter_decreasing_trees(3, 3):
        print("  ", format_tree(t))

    print()
    print("Three methods, same numbers (n=7, k=5):")
    print("  series       ", count_trees(7, 5))
    print("  compositions ", count_trees_by_compositions(7, 5))
    print("  enumeration  ", count_trees_by_enumeration(7, 5))
    print("  literal sweep", count_trees_by_literal_compositions(7, 5))

    print()
    print("Counts grow fast; the series keeps exact integers throughout:")
    g = gk_series(4, 41)
    print("  count(40, 4) =", g.coeffs[40])
    print()
    print("Exchange format (decimal strings, bit-exact):")
    print("  ", series_to_json(gk_series(3, 6)))


if __name__ == "__main__":
    main()
