#!/usr/bin/env python3
"""Closed root walks in a leaning tree versus decreasing trees.

The regular leaning tree of order k has a root with k children carrying the
leaning trees of orders k-1 down to 0.  Every closed walk of length 2n from
its root encodes an (n+1)-node decreasing tree with root label k+1:
descending into an order-j subtree appends a child labelled j+1, ascending
closes it.  The two directions invert each other, and the walk counts equal
a difference of tree counts.
"""

from planetrees import (
    Walk,
    build_tree_from_walk,
    build_walk_from_tree,
    count_trees,
    format_tree,
    format_walk,
    iter_closed_walks,
    leaning_tree,
    parse_tree,
    walk_count_table,
)


def main():
    print("The order-2 leaning tree is the 4-vertex path:", format_tree(leaning_tree(2)))
    print()

    walk = Walk(2, (1, 1, -1, -1))
    tree = build_tree_from_walk(walk)
    print(f"walk  {format_walk(walk)!r}  ->  tree {format_tree(tree)}")
    back = build_walk_from_tree(tree)
    print(f"tree  {format_tree(tree)}      ->  walk {format_walk(back)!r}")
    print()

    tree = parse_tree("4(3(1) 2 1)")
    walk = build_walk_from_tree(tree)
    print(f"{format_tree(tree)} encodes as {format_walk(walk)!r} (ambient order {walk.order})")
    print()

    print("All closed walks of length 4 at the root of the order-2 tree:")
    for w in iter_closed_walks(2, 4):
        print(f"  {format_walk(w):14s} -> {format_tree(build_tree_from_walk(w))}")
    print()

    print("Walk counts are differences of tree counts:")
    print("  2n   walks(order 3)   count(n+1,4) - count(n+1,3)")
    table = walk_count_table(leaning_tree(3), 12)
    for n in range(0, 7):
        walks = table[2 * n]
        diff = count_trees(n + 1, 4) - count_trees(n + 1, 3)
        print(f"  {2*n:2d}   {walks:>12d}   {diff:>12d}")


if __name__ == "__main__":
    main()
