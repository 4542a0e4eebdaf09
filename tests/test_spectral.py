"""Walk counts, eigenvalue estimates, and the degree/embedding bounds."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from planetrees import (
    LimitError,
    PlaneTree,
    count_trees,
    enumerate_closed_walks,
    enumerate_decreasing_trees,
    lambda1,
    leaning_eigen_bound,
    leaning_lambda1,
    leaning_tree,
    max_degree,
    parse_tree,
    random_plane_tree,
    stevanovic_bounds,
    uh_min,
    walk_count_table,
    walk_growth_estimate,
)
from planetrees.spectral import adjacency_lists, lambda1_bracket, leaning_lambda1_bracket

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def dense_eigenvalue(t):
    """Independent oracle: full symmetric eigendecomposition."""
    adj = adjacency_lists(t)
    size = len(adj)
    matrix = np.zeros((size, size))
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            matrix[v, w] = 1.0
    return float(np.linalg.eigvalsh(matrix)[-1])


def path(n):
    t = PlaneTree(1)
    for _ in range(n - 1):
        t = PlaneTree(1, (t,))
    return t


def test_walk_count_trivial_lengths():
    t = leaning_tree(3)
    assert walk_count_table(t, 0) == {0: 1}
    for k in range(1, 7):
        assert walk_count_table(leaning_tree(k), 2)[2] == k  # root degree


def test_walk_count_hand_value():
    # fourth power of the path adjacency, diagonal entry at an interior vertex
    assert walk_count_table(leaning_tree(2), 4, 0)[4] == 5


def test_walk_counts_match_enumeration():
    for k in range(1, 5):
        table = walk_count_table(leaning_tree(k), 8)
        for n in range(0, 5):
            assert table[2 * n] == len(enumerate_closed_walks(k, 2 * n))


def test_walk_count_table_consistency():
    t = leaning_tree(4)
    table = walk_count_table(t, 10)
    assert table[0] == 1
    assert table[2] == 4
    for length, value in table.items():
        assert value == walk_count_table(t, length)[length]
    # appending a down-up pair injects, so counts never decrease
    values = [table[m] for m in sorted(table)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_walk_count_rejects_odd_and_budget():
    with pytest.raises(ValueError):
        walk_count_table(leaning_tree(2), 3)
    with pytest.raises(LimitError):
        walk_count_table(leaning_tree(10), 40, max_work=100)


def test_walk_budget_is_checked_before_building():
    # a million logical vertices: the guard must fire before any per-vertex
    # structure is allocated
    tree = leaning_tree(20)
    tracemalloc.start()
    try:
        with pytest.raises(LimitError):
            walk_count_table(tree, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_path_walk_counts_are_fibonacci():
    # the 4-vertex path: interior diagonal of A^(2n) walks the odd Fibonacci line
    t = leaning_tree(2)
    assert walk_count_table(t, 20, 0)[20] == 10946
    assert walk_count_table(t, 20, 2)[20] == 4181  # a leaf vertex


def test_lambda1_anchors():
    assert lambda1(parse_tree("1")) == 0.0
    assert abs(lambda1(leaning_tree(1)) - 1.0) < 1e-9
    assert abs(lambda1(leaning_tree(2)) - PHI) < 1e-9


def test_lambda1_closed_forms():
    tol = 1e-10
    cases = [(path(n), 2.0 * math.cos(math.pi / (n + 1))) for n in (100, 300, 800)]
    for nodes in (5, 10, 200, 500):
        star = parse_tree("2(%s)" % " ".join(["1"] * (nodes - 1)))
        cases.append((star, math.sqrt(nodes - 1)))
    for t, exact in cases:
        assert abs(lambda1(t, tol) - exact) <= tol * max(1.0, exact)


def test_lambda1_matches_dense_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        t = random_plane_tree(rng.randint(2, 25), rng)
        exact = dense_eigenvalue(t)
        assert abs(lambda1(t) - exact) < 1e-10
        lo, hi = lambda1_bracket(t, 1e-10)
        assert hi - lo <= 1e-10 and lo - 1e-12 <= exact <= hi + 1e-12


def test_root_growth_estimate_close_at_length_40():
    for k in (2, 6, 10):
        t = leaning_tree(k)
        est = walk_growth_estimate(t, 20)
        lam = lambda1(t)
        assert abs(est - lam) / lam < 0.05


def test_stevanovic_values():
    low, high = stevanovic_bounds(2)
    assert low == pytest.approx(math.sqrt(2))
    assert high == 2.0
    assert stevanovic_bounds(1) == (1.0, 0.0)  # degenerate, vacuous upper formula
    with pytest.raises(ValueError):
        stevanovic_bounds(0)


def test_sandwich_on_leaning_and_random_trees():
    rng = random.Random(7)
    cases = [leaning_tree(k) for k in range(2, 13)]
    cases += [random_plane_tree(rng.randint(3, 25), rng) for _ in range(20)]
    for t in cases:
        delta = max_degree(t)
        if delta < 2:
            continue
        low, high = stevanovic_bounds(delta)
        lam = lambda1(t)
        assert low - 1e-8 <= lam <= high + 1e-8


def test_leaning_bisection_matches_lambda1():
    # the explicit tree and the per-order pivot chain bisect the same pivots
    for k in range(0, 15):
        assert lambda1(leaning_tree(k), 1e-12) == leaning_lambda1(k, 1e-12)
    lo, hi = leaning_lambda1_bracket(2, 1e-12)
    assert lo <= PHI <= hi


def test_lambda1_eliminates_shared_subtrees_once():
    # 2^24 logical vertices, 25 distinct subtree objects
    assert abs(lambda1(leaning_tree(24)) - leaning_lambda1(24)) < 1e-10


def test_leaning_bisection_scales_to_large_orders():
    # far beyond any explicit 2^k-vertex tree
    lam = leaning_lambda1(200)
    assert 0.5 <= lam * lam / 400 <= 1.1


def test_leaning_eigen_bound_values():
    assert abs(leaning_eigen_bound(2) - 1.0) < 1e-9
    assert abs(leaning_eigen_bound(3) - PHI) < 1e-9
    value = leaning_eigen_bound(11)
    assert 0.5 * 20 <= value * value <= 1.1 * 20
    assert abs(leaning_eigen_bound(9) - lambda1(leaning_tree(8))) < 1e-10
    assert leaning_eigen_bound(40) > 0  # far beyond any explicit tree


def test_embedding_bound_on_enumerated_trees():
    # every decreasing tree is dominated by the leaning tree of its own
    # minimised Ulam-Harris order
    for n in range(2, 7):
        for t in enumerate_decreasing_trees(n, 4):
            uh = uh_min(t).uh
            assert lambda1(t) <= leaning_eigen_bound(uh) + 1e-8


def test_walk_count_identity_with_coefficients():
    for k in range(1, 6):
        table = walk_count_table(leaning_tree(k), 12)
        for n in range(0, 7):
            walks = table[2 * n]
            assert walks == count_trees(n + 1, k + 1) - count_trees(n + 1, k)
