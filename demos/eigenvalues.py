#!/usr/bin/env python3
"""Largest adjacency eigenvalues of leaning trees, two independent ways.

Bisection on the pivots of xI - A (all positive exactly when x is above the
largest eigenvalue), and exact closed-walk growth (the count of closed
2n-walks to the power 1/2n).  The pivot bisection runs on any tree; on
leaning trees it costs O(order) per evaluation point, so it reaches orders
whose explicit trees would have 2^order vertices.
"""

import math

from planetrees import (
    lambda1,
    leaning_lambda1,
    leaning_tree,
    max_degree,
    stevanovic_bounds,
    walk_growth_estimate,
)


def main():
    print("Order-2 leaning tree (the 4-vertex path): eigenvalue is the golden ratio")
    print("  pivot bisection, explicit tree:", lambda1(leaning_tree(2), 1e-12))
    print("  pivot bisection, order chain  :", leaning_lambda1(2))
    print("  (1+sqrt(5))/2                 :", (1 + math.sqrt(5)) / 2)
    print()

    print("The degree sandwich sqrt(d) <= lambda1 <= 2 sqrt(d-1), d scanned:")
    print("  k    degree   sqrt(d)   lambda1     2 sqrt(d-1)   lambda1^2/(2k)")
    for k in range(2, 13):
        t = leaning_tree(k)
        d = max_degree(t)
        lam = lambda1(t)
        lo, hi = stevanovic_bounds(d)
        print(f"  {k:2d}   {d:4d}     {lo:.4f}    {lam:.6f}   {hi:.4f}        {lam*lam/(2*k):.4f}")
    print("  (the last column drifts toward 1: the eigenvalue behaves like sqrt(2k))")
    print()

    print("Walk growth converges to the eigenvalue (order 6, 64 vertices):")
    t6 = leaning_tree(6)
    lam6 = lambda1(t6)
    for half in (5, 10, 20):
        root = walk_growth_estimate(t6, half)
        print(f"  2n={2*half:3d}   root {root:.5f}   target {lam6:.5f}")
    print("  (the root estimate approaches from below)")
    print()

    print("Bisection reaches orders far beyond explicit trees:")
    for order in (20, 100, 1000):
        lam = leaning_lambda1(order)
        print(
            f"  order {order:5d}: lambda1 = {lam:10.6f}, lambda1^2/(2k) = "
            f"{lam*lam/(2*order):.4f}   (explicit tree would need 2^{order} vertices)"
        )


if __name__ == "__main__":
    main()
