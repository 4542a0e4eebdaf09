#!/usr/bin/env python3
"""Dominant singularities and the growth law of the counts.

The complement series s_k = 1 - g_k obeys s_k = s_(k-1) - z/s_(k-1); its
smallest positive root is a simple pole of the next counting series, so the
counts with k labels grow like c * alpha^n with alpha the reciprocal root.
This script certifies root brackets, evaluates the proved bounds, and shows
the empirical ratios locking onto alpha.
"""

from planetrees import (
    alpha_bounds,
    count_trees,
    gk_series,
    growth_constants,
    zstar,
    zstar_lower_bound,
    zstar_upper_bound,
)


def main():
    print("Certified root brackets (width at most 1e-12):")
    print("  k   proved lower   bracket midpoint   proved upper")
    for k in range(1, 9):
        b = zstar(k)
        print(
            f"  {k}   {zstar_lower_bound(k):.10f}   {b.midpoint:.14f}   "
            f"{zstar_upper_bound(k):.10f}"
        )
    print()

    print("k = 2 is exactly solvable: (1-z)^2 = z, root (3 - sqrt(5))/2")
    print("  bracket midpoint:", zstar(2).midpoint)
    print()

    print("Growth constants, with proved alpha brackets:")
    print("  k    alpha          c           [alpha lower, alpha upper]")
    for k in range(2, 9):
        lo, hi = alpha_bounds(k)
        a, c = growth_constants(k)
        print(f"  {k}   {a:10.6f}   {c:.7f}   [{lo:.4f}, {hi:.4f}]")
    print()

    print("Successive count ratios converge to alpha (k = 4):")
    g = gk_series(4, 82)
    a = growth_constants(4)[0]
    for n in (10, 20, 40, 80):
        ratio = g.coeffs[n + 1] / g.coeffs[n]
        print(f"  n={n:3d}   ratio {ratio:.12f}   alpha {a:.12f}   gap {abs(ratio-a):.2e}")
    print()

    print("And count/alpha^n flattens onto c (k = 3):")
    g = gk_series(3, 61)
    a, c = growth_constants(3)
    for n in (20, 40, 60):
        print(f"  n={n:3d}   count/alpha^n = {g.coeffs[n]/a**n:.10f}   c = {c:.10f}")
    print()

    print("Counts never exceed the reciprocal-root power (k = 5, n <= 12):")
    hi = zstar(5).hi
    for n in range(1, 13):
        bound = (1.0 / hi) ** n
        print(f"  n={n:2d}   count {count_trees(n, 5):>12d}   bound {bound:16.1f}")


if __name__ == "__main__":
    main()
