"""Closed-walk counts and largest-eigenvalue machinery for trees.

Walk counts are exact integers throughout (they grow like the largest
eigenvalue to the walk length, so floats would drop digits quickly);
eigenvalue estimates are floats.  Vertices are addressed by preorder index,
root = 0.

The largest adjacency eigenvalue has one engine: bisection on whether every
pivot of xI - A is positive, the pivots computed leaves upward by
d(v) = x - sum over children c of 1/d(c) (Jacobs and Trevisan, "Locating the
eigenvalues of trees", Linear Algebra Appl. 434 (2011) 81-88).  All pivots
are positive exactly when x is above the largest eigenvalue.  On any tree
each distinct subtree object is eliminated once per point, so trees built
with shared children cost their distinct nodes, not their logical size.  For
leaning trees every vertex of order j has the same pivot, which gives an
O(order) test per point and reaches orders no tree can be built for.

Walk-growth estimates ``W^(1/2n)`` from exact closed-walk counts are a
second, independent route to the same eigenvalue.  Closed walks are counted
by replaying the adjacency operator on every vertex, or, for root walks, by
first return over the distinct subtree objects, each solved only to the
terms a root walk of the given length can use at its depth; root walks take
first return unless its work is well above the replay's (see
``walk_growth_estimate``).
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul

from .errors import LimitError
from .trees import PlaneTree, node_count, plan_max_degree, plan_node_count, subtree_plan

#: default work cap for single-vertex walk counts (node count times half-length)
WALK_WORK_LIMIT = 5_000_000
#: cap on node count times half-length squared for single-vertex walk counts:
#: the counts gain digits at every step, so the arithmetic and the decimal
#: output grow with the square of the length
WALK_GROWTH_LIMIT = 500_000_000
#: first return counts root walks while its work is at most this many times
#: the replay's (see ``walk_growth_estimate``): the measured crossover
FIRST_RETURN_COST_RATIO = 12


def adjacency_lists(t: PlaneTree) -> list[list[int]]:
    """Neighbour lists of the underlying tree, vertices in preorder."""
    adj: list[list[int]] = []
    stack: list[tuple[PlaneTree, int]] = [(t, -1)]
    while stack:
        node, parent = stack.pop()
        index = len(adj)
        adj.append([])
        if parent >= 0:
            adj[parent].append(index)
            adj[index].append(parent)
        for child in reversed(node.children):
            stack.append((child, index))
    return adj


def walk_count_table(
    t: PlaneTree,
    max_length: int,
    vertex: int = 0,
    *,
    max_work: float = WALK_WORK_LIMIT,
    max_growth: float = WALK_GROWTH_LIMIT,
) -> dict[int, int]:
    """Closed-walk counts from ``vertex`` for every even length up to ``max_length``.

    One replay serves all lengths: after m applications of the adjacency
    operator to the indicator vector, the entry at ``vertex`` is the count of
    closed m-walks.  The work is capped at ``max_work`` for node count times
    half-length and at ``max_growth`` for node count times half-length
    squared (pass ``math.inf`` to lift either cap).
    """
    return _replay(t, node_count(t), max_length, vertex, max_work, max_growth)


def _replay(
    t: PlaneTree, size: int, max_length: int, vertex: int, max_work: float, max_growth: float
) -> dict[int, int]:
    """``walk_count_table`` on a tree whose node count ``size`` is known."""
    if max_length < 0 or max_length % 2:
        raise ValueError("max_length must be even and nonnegative")
    if not 0 <= vertex < size:
        raise ValueError(f"vertex {vertex} out of range")
    half = max_length // 2
    if size * (half + 1) > max_work:
        raise LimitError("walk-count budget exceeded (node count times half-length)")
    if size * half * half > max_growth:
        raise LimitError("walk-count budget exceeded (node count times half-length squared)")
    adj = adjacency_lists(t)
    counts = {0: 1}
    x = [0] * len(adj)
    x[vertex] = 1
    for step in range(1, max_length + 1):
        get = x.__getitem__
        x = [sum(map(get, nbrs)) for nbrs in adj]
        if step % 2 == 0:
            counts[step] = x[vertex]
    return counts


def walk_growth_estimate(
    t: PlaneTree,
    half_length: int,
    vertex: int = 0,
    *,
    max_work: int = WALK_WORK_LIMIT,
) -> float:
    """Single-vertex walk-growth estimate ``count^(1/length)``.

    The root count comes from first return over the distinct subtree
    objects (``_root_walk_counts``) when its work, the sum of
    (half-length - depth + 1)^2 over the objects no deeper than the
    half-length, is at most ``FIRST_RETURN_COST_RATIO`` times node count
    times half-length, the work of the adjacency replay of
    ``walk_count_table``, and at most ``max_work``, its budget.  Other
    vertices and the other trees take the replay, under its own budgets.
    Both give the same exact count.
    """
    length = 2 * half_length
    plan = subtree_plan(t)
    size = plan_node_count(plan)
    if vertex == 0 and plan:
        depths = _plan_depths(plan)
        work = sum([(half_length - d + 1) ** 2 for d in depths if d <= half_length])
        if work <= min(FIRST_RETURN_COST_RATIO * size * half_length, max_work):
            count = _root_walk_counts(plan, half_length, depths)[half_length]
            return _int_root(count, 1.0 / length)
    count = _replay(t, size, length, vertex, max_work, WALK_GROWTH_LIMIT)[length]
    return _int_root(count, 1.0 / length)


def _plan_depths(plan: list) -> list[int]:
    """Smallest depth at which each object of ``plan`` occurs, the root at 0.

    One pass from the root down: ``trees.subtree_plan`` lists every parent
    after its children, so an object's depth is final when it is reached.
    """
    depths = [len(plan)] * len(plan)  # above any depth: objects on a root path differ
    depths[-1] = 0
    for i in range(len(plan) - 1, -1, -1):
        below = depths[i] + 1
        for c in plan[i][2]:
            if below < depths[c]:
                depths[c] = below
    return depths


def _root_walk_counts(plan: list, half: int, depths: list[int] | None = None) -> list[int]:
    """Closed root walks of lengths 0, 2, ..., 2*half, by first return.

    A closed walk from v inside v's subtree is a sequence of excursions,
    each a step down to a child c, a closed walk from c inside c's subtree
    and a step back.  With z marking a pair of steps, the generating series
    obey R_v = 1/(1 - z * sum over children of R_c), and a leaf has R = 1
    (Flajolet, "Combinatorial aspects of continued fractions", Discrete
    Math. 32 (1980) 125-161).  A root walk of length 2*half reaches depth d
    with at most half - d pairs of steps left, so each distinct object of
    ``plan`` (``trees.subtree_plan``) is solved once, to half - d + 1 terms
    at its smallest depth d (``depths``, from ``_plan_depths`` when not
    given), and objects deeper than half are skipped.
    """
    if depths is None:
        depths = _plan_depths(plan)
    series: list[list[int]] = []
    for (_, leaves, kids), depth in zip(plan, depths):
        n = half - depth  # R_v needs the children's sum S to z^(n-1)
        if n < 0:
            series.append([])  # no root walk of length 2*half gets here
            continue
        if n == 0 or not kids:
            # S = leaves gives R_v = 1/(1 - z * leaves); n = 0 needs R_0 = 1 only
            series.append([leaves**m for m in range(n + 1)])
            continue
        # the children's series summed (leaf children add 1 to z^0); a
        # child sits at most one level deeper, so it has at least n terms
        s = [sum(col) for col in islice(zip(*[series[c] for c in kids]), n)]
        s[0] += leaves
        # r_m = sum over j = 1..m of s_(j-1) r_(m-j), since R_v (1 - z S) = 1
        r = [1]
        for m in range(1, n + 1):
            r.append(sum(map(mul, s[:m], reversed(r))))
        series.append(r)
    return series[-1]


def _int_root(value: int, exponent: float) -> float:
    if value == 0:
        return 0.0
    return math.exp(math.log(value) * exponent)


def stevanovic_bounds(delta: int) -> tuple[float, float]:
    """The degree sandwich (sqrt(delta), 2*sqrt(delta - 1)) for trees.

    Any tree with maximum vertex degree delta has its largest adjacency
    eigenvalue between the two values.  At delta = 1 the upper formula
    collapses to 0 and the pair is degenerate (a single edge has eigenvalue
    1); callers should treat that case as vacuous rather than a bound.
    """
    if delta < 1:
        raise ValueError("maximum degree must be at least 1")
    return (math.sqrt(delta), 2.0 * math.sqrt(delta - 1))


def leaning_pivot_chain(x: float, order: int) -> int | None:
    """LDL pivot recursion for xI - A on the order-``order`` leaning tree.

    Every vertex is the root of a smaller leaning tree, so the pivot of an
    order-j vertex depends only on j: pivot(j) = x - sum over i < j of
    1/pivot(i).  Returns None if all pivots up to ``order`` are positive
    (equivalently, x exceeds the largest eigenvalue), else the first j whose
    pivot is nonpositive.
    """
    inv_sum = 0.0
    for j in range(order + 1):
        pivot = x - inv_sum
        if pivot <= 0.0:
            return j
        inv_sum += 1.0 / pivot
    return None


def leaning_lambda1_bracket(order: int, tol: float = 1e-12) -> tuple[float, float]:
    """Bracket of width at most ``tol`` around the largest eigenvalue of a
    leaning tree.

    Bisection on the pivot positivity predicate; O(order) per point, so this
    works for orders far beyond what an explicit 2^order-vertex tree allows.
    The maximum degree of the order-``order`` leaning tree is ``order``.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _bisect(lambda x: leaning_pivot_chain(x, order) is None, order, tol)


def leaning_lambda1(order: int, tol: float = 1e-12) -> float:
    """Largest eigenvalue of the order-``order`` leaning tree, via bisection."""
    lo, hi = leaning_lambda1_bracket(order, tol)
    return 0.5 * (lo + hi)


def lambda1_bracket(t: PlaneTree, tol: float = 1e-10) -> tuple[float, float]:
    """Bracket of width at most ``tol`` around the largest adjacency
    eigenvalue of ``t``, by bisection on the pivots of xI - A."""
    plan = subtree_plan(t)
    return _bisect(lambda x: _pivots_positive(x, plan), plan_max_degree(plan), tol)


def lambda1(t: PlaneTree, tol: float = 1e-10) -> float:
    """Largest adjacency eigenvalue of ``t``: the midpoint of a bracket of
    width at most ``tol``."""
    lo, hi = lambda1_bracket(t, tol)
    return 0.5 * (lo + hi)


def leaning_eigen_bound(uh: int, tol: float = 1e-10) -> float:
    """Largest eigenvalue of the leaning tree of order uh - 1.

    Any rooted tree with Ulam-Harris number uh embeds into that leaning
    tree, so the value is an upper bound for the tree's own largest
    adjacency eigenvalue.
    """
    if uh < 1:
        raise ValueError("Ulam-Harris number must be positive")
    return leaning_lambda1(uh - 1, min(tol, 1e-10))


def _bisect(positive, delta: int, tol: float) -> tuple[float, float]:
    """Shrink a bracket around the largest eigenvalue of a tree with maximum
    degree ``delta``; ``positive(x)`` says whether every pivot of xI - A is
    positive, that is whether x lies above the eigenvalue."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if delta == 0:
        return (0.0, 0.0)  # a single vertex
    lo = 0.0  # a leaf's pivot is x itself, so the predicate fails: lo <= lambda1
    hi = 2.0 * math.sqrt(delta) + 1.0  # above the bound 2 sqrt(delta - 1)
    if not positive(hi):
        raise RuntimeError("seed bracket does not straddle the eigenvalue")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution floor
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def _pivots_positive(x: float, plan: list) -> bool:
    """True iff every pivot of xI - A is positive, eliminating in the order
    of ``trees.subtree_plan``: a subtree object has the same pivot wherever
    it occurs, so a shared object is eliminated once per point.

    ``x`` must be positive: it is the pivot of every leaf.
    """
    leaf = 1.0 / x
    inverse: list[float] = []
    for _, leaves, kids in plan:
        pivot = x - leaves * leaf
        for c in kids:
            pivot -= inverse[c]
        if pivot <= 0.0:
            return False
        inverse.append(1.0 / pivot)
    return True
