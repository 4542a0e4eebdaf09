#!/usr/bin/env python3
"""Ulam-Harris numbers and the eigenvalue bound they induce.

Label the root 1; a node labelled r with s children labels them r+1 ... r+s.
The Ulam-Harris number of an ordered tree is the largest label; for an
unordered tree, the minimum over child orderings (computed exactly by a
greedy sort).  A tree with Ulam-Harris number u embeds into the leaning tree
of order u-1, whose eigenvalue is about sqrt(2u); when u + 1 < 2 * degree
this beats the classical degree bound 2 sqrt(degree - 1).
"""

import random

from planetrees import (
    format_tree,
    lambda1,
    leaning_eigen_bound,
    leaning_tree,
    max_degree,
    parse_tree,
    random_plane_tree,
    stevanovic_bounds,
    uh_min,
    uh_ordered,
)


def main():
    examples = ["1", "1(1 1 1)", "1(1(1) 1)", "1(1(1(1)))", format_tree(leaning_tree(3))]
    print("Ulam-Harris numbers (as given, and minimised over child orderings):")
    for text in examples:
        t = parse_tree(text)
        o = uh_ordered(t)
        m = uh_min(t)
        print(f"  {text:14s} ordered {o.uh}   minimal {m.uh}   witness {format_tree(m.witness)}")
    print()

    t = parse_tree("1(1 1(1 1) 1(1))")
    m = uh_min(t)
    print("Per-node labels of a witness ordering (preorder):")
    print("  tree   ", format_tree(m.witness))
    print("  labels ", list(m.labels))
    print()

    print("Random trees (30 nodes): the two eigenvalue bounds compared")
    print("  degree  uh   lambda1    degree bound   uh bound   winner")
    rng = random.Random(2024)
    improved = 0
    for _ in range(12):
        t = random_plane_tree(30, rng)
        d = max_degree(t)
        u = uh_min(t).uh
        lam = lambda1(t)
        degree_bound = stevanovic_bounds(d)[1]
        uh_bound = leaning_eigen_bound(u)
        winner = "uh" if uh_bound < degree_bound else "degree"
        improved += winner == "uh"
        print(
            f"   {d:4d}  {u:3d}   {lam:.5f}    {degree_bound:.5f}        "
            f"{uh_bound:.5f}    {winner}"
        )
    print(f"  uh bound tighter on {improved}/12 samples")
    print()
    print("The bound is sharp on leaning trees: order k has uh = k + 1 and")
    print("embeds into itself; e.g. order 5:",
          uh_min(leaning_tree(5)).uh, "=",
          f"{lambda1(leaning_tree(5)):.6f} bound "
          f"{leaning_eigen_bound(6):.6f}")


if __name__ == "__main__":
    main()
