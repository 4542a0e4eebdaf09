"""Walk counts, eigenvalue estimates, and the degree/embedding bounds."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (
    LimitError,
    PlaneTree,
    count_trees,
    iter_closed_walks,
    iter_decreasing_trees,
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
from planetrees import spectral
from planetrees.asymptotics import zstar_lower_bound, zstar_upper_bound
from planetrees.spectral import adjacency_lists, plan_lambda1_bracket
from planetrees.trees import plan_max_degree, subtree_plan

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


def from_parents(parents):
    """The plane tree of a parent array with parents[v] < v, children in index order."""
    kids = [[] for _ in parents]
    for v in range(1, len(parents)):
        kids[parents[v]].append(v)
    nodes = [None] * len(parents)
    for v in range(len(parents) - 1, -1, -1):
        nodes[v] = PlaneTree(1, tuple(nodes[c] for c in kids[v]))
    return nodes[0]


def broom(n, rng):
    handle = rng.randint(1, n - 1)
    return from_parents([-1] + list(range(handle - 1)) + [handle - 1] * (n - handle))


def caterpillar(n, rng):
    spine = rng.randint(1, n)
    legs = [rng.randrange(spine) for _ in range(n - spine)]
    return from_parents([-1] + list(range(spine - 1)) + legs)


def binary(n, rng):
    parents, free = [-1], [0, 0]  # a node offers two child slots
    for v in range(1, n):
        slot = rng.randrange(len(free))
        parents.append(free[slot])
        free[slot] = free[-1]
        free[-1:] = [v, v]
    return from_parents(parents)


#: tree shapes for the eigenvalue bracket, each drawn as (node count, rng) -> tree
SHAPES = {
    "path": lambda n, rng: path(n),
    "star": lambda n, rng: from_parents([-1] + [0] * (n - 1)),
    "broom": broom,
    "caterpillar": caterpillar,
    "binary": binary,
    "random": random_plane_tree,
}


def bisection_passes(plan, tol):
    """Pivot passes of plain bisection on [0, 2 sqrt(delta) + 1] down to ``tol``."""
    lo, hi = 0.0, 2.0 * math.sqrt(plan_max_degree(plan)) + 1.0
    passes = 1  # the seed check at hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        passes += 1
        top = spectral._root_pivot(mid, plan)
        if top is not None and top > 0.0:
            hi = mid
        else:
            lo = mid
    return passes


def test_walk_count_trivial_lengths():
    t = leaning_tree(3)
    assert walk_count_table(t, 0) == {0: 1}
    for k in range(1, 7):
        assert walk_count_table(leaning_tree(k), 2)[2] == k  # root degree


def test_walk_count_hand_value():
    # fourth power of the path adjacency, diagonal entry at an interior vertex
    assert walk_count_table(leaning_tree(2), 4)[4] == 5


def test_walk_counts_match_enumeration():
    for k in range(1, 5):
        table = walk_count_table(leaning_tree(k), 8)
        for n in range(0, 5):
            assert table[2 * n] == len(list(iter_closed_walks(k, 2 * n)))


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


def test_walk_count_rejects_odd_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        walk_count_table(leaning_tree(2), 3)
    # 4096 nodes: 4096 * 351 = 1,437,696 <= 5,000,000 and
    # 4096 * 350^2 = 501,760,000 > 500,000,000
    with pytest.raises(LimitError, match="half-length squared"):
        walk_count_table(leaning_tree(12), 700)
    # the caps are read on each call
    monkeypatch.setattr(spectral, "WALK_WORK_LIMIT", 100)
    with pytest.raises(LimitError, match=r"\(node count times half-length\)"):
        walk_count_table(leaning_tree(10), 40)


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
    assert walk_count_table(leaning_tree(2), 20)[20] == 10946


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
        lo, hi = plan_lambda1_bracket(subtree_plan(t), 1e-10)
        assert hi - lo <= 1e-10 and lo - 1e-12 <= exact <= hi + 1e-12


@pytest.mark.parametrize("tol", [1e-4, 1e-10, 1e-13, 1e-300])
@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), size=st.integers(2, 300), seed=st.integers(0, 2**32))
def test_lambda1_bracket_is_certified(tol, shape, size, seed):
    t = SHAPES[shape](size, random.Random(seed))
    plan = subtree_plan(t)
    lo, hi = plan_lambda1_bracket(plan, tol)
    # every pivot positive at hi; some pivot not positive at lo, unless lo is 0
    top = spectral._root_pivot(hi, plan)
    assert top is not None and top > 0.0
    if lo != 0.0:
        bottom = spectral._root_pivot(lo, plan)
        assert bottom is None or bottom <= 0.0
    assert hi - lo <= tol or 0.5 * (lo + hi) in (lo, hi)  # or the float floor
    if size <= 60:
        exact = dense_eigenvalue(t)
        assert lo - 1e-12 <= exact <= hi + 1e-12


def test_regula_falsi_saves_pivot_passes(monkeypatch):
    real = spectral._root_pivot
    calls = []

    def counted(x, plan):
        calls.append(x)
        return real(x, plan)

    monkeypatch.setattr(spectral, "_root_pivot", counted)
    rng = random.Random(20231)
    for shape, draw in SHAPES.items():
        ours = bisection = 0
        for _ in range(12):
            t = draw(rng.randint(2, 1500), rng)
            base = bisection_passes(subtree_plan(t), 1e-10)
            calls.clear()
            plan_lambda1_bracket(subtree_plan(t), 1e-10)
            assert len(calls) <= base + 2, shape
            ours += len(calls)
            bisection += base
        if shape in ("random", "star", "binary"):
            assert 3 * ours <= 2 * bisection, shape


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
    # pivots of the explicit tree against the complement chain under z = 1/x^2
    for k in range(0, 15):
        assert abs(lambda1(leaning_tree(k), 1e-12) - leaning_lambda1(k, 1e-12)) <= 1e-12
    assert abs(leaning_lambda1(2, 1e-12) - PHI) <= 1e-12  # the path on four vertices
    assert leaning_lambda1(0) == 0.0 and leaning_lambda1(1) == 1.0


def test_leaning_lambda1_matches_dense_eigenvalue():
    for k in range(0, 11):
        assert abs(leaning_lambda1(k) - dense_eigenvalue(leaning_tree(k))) <= 1e-11


def test_leaning_lambda1_at_large_orders():
    # beyond about 3.5e5 the cancelling seed formula put the chain past its root
    order = 4 * 10**5
    lam = leaning_lambda1(order)
    assert 1.0 / zstar_upper_bound(order) <= lam * lam <= 1.0 / zstar_lower_bound(order)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_eigenvalue_bisections_reject_bad_tolerance(tol):
    with pytest.raises(ValueError):
        lambda1(leaning_tree(2), tol)
    with pytest.raises(ValueError):
        plan_lambda1_bracket(subtree_plan(parse_tree("1(1 1)")), tol)
    with pytest.raises(ValueError):
        leaning_lambda1(5, tol)
    with pytest.raises(ValueError):
        leaning_eigen_bound(3, tol)


def test_a_tolerance_whose_z_width_underflows_reads_the_float_floor():
    # tol * zlow^(3/2) is 0.0 here, and asymptotics.zstar rejects a width of 0
    for order in (1, 7, 4 * 10**5):
        assert leaning_lambda1(order, 5e-324) == leaning_lambda1(order, 1e-300)


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
        for t in iter_decreasing_trees(n, 4):
            uh = uh_min(t).uh
            assert lambda1(t) <= leaning_eigen_bound(uh) + 1e-8


def test_walk_count_identity_with_coefficients():
    for k in range(1, 6):
        table = walk_count_table(leaning_tree(k), 12)
        for n in range(0, 7):
            walks = table[2 * n]
            assert walks == count_trees(n + 1, k + 1) - count_trees(n + 1, k)
