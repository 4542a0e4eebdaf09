"""Closed-walk counts and largest-eigenvalue machinery for trees.

Walk counts are exact integers throughout (they grow like the largest
eigenvalue to the walk length, so floats would drop digits quickly);
eigenvalue estimates are floats.  Vertices are addressed by preorder index,
root = 0.

The largest adjacency eigenvalue has one engine: a bracket on whether every
pivot of xI - A is positive, the pivots computed leaves upward by
d(v) = x - sum over children c of 1/d(c) (Jacobs and Trevisan, "Locating the
eigenvalues of trees", Linear Algebra Appl. 434 (2011) 81-88).  All pivots
are positive exactly when x is above the largest eigenvalue.  Where every
pivot but the root's is positive, the root pivot is increasing and concave
in x and crosses 0 at the eigenvalue, so once the lower end is there the
next point is the Illinois regula-falsi point on the root pivot (Dowell and
Jarratt, BIT 11 (1971) 168-174), and otherwise the midpoint.  On any tree
each distinct labelled shape (``trees.subtree_plan``) is eliminated once per
point, so trees with repeated subtrees, whether shared objects or parsed
copies, cost their distinct shapes, not their logical size.  The ``plan_*``
functions take the plan alone, its last entry the root, and ``lambda1`` and
``walk_growth_estimate`` wrap them over ``subtree_plan``.  For leaning trees
every vertex of order j has the same pivot, and under z = 1/x^2 these
pivots are the complement chain of ``asymptotics``, so ``leaning_lambda1``
reads its bracket off that chain's root, ``asymptotics.zstar`` (Newton,
then a certificate): O(order) per point, at orders no tree can be built
for.

Walk-growth estimates ``W^(1/2n)`` from exact closed-walk counts are a
second, independent route to the same eigenvalue.  Closed walks are counted
by replaying the adjacency operator on every vertex, or, for root walks, by
first return over the distinct labelled shapes, each solved only to the
terms a root walk of the given length can use at its depth; root walks take
first return unless its work is well above the replay's (see
``walk_growth_estimate``).  On leaning trees the root walks of length 2h
are [z^h] 1/s_K of ``series``, with no tree (``leaning_walk_counts`` and
``leaning_walk_growth``).
"""

from __future__ import annotations

import math
from itertools import islice

from . import asymptotics, series
from .errors import LimitError
from .trees import PlaneTree, node_count, plan_max_degree, plan_node_count, subtree_plan

#: default width of a largest-eigenvalue bracket (``lambda1`` and its kin),
#: and the widest that ``leaning_eigen_bound`` reads its value at
DEFAULT_EIGEN_TOL = 1e-10
#: default width of the bracket ``leaning_lambda1`` takes its midpoint of
DEFAULT_LEANING_TOL = 1e-12
#: work cap for single-vertex walk counts (node count times half-length)
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


def walk_count_table(t: PlaneTree, max_length: int) -> dict[int, int]:
    """Closed root-walk counts for every even length up to ``max_length``.

    One replay serves all lengths: after m applications of the adjacency
    operator to the root's indicator vector, the entry at the root is the
    count of closed m-walks.  The work is capped at ``WALK_WORK_LIMIT`` for node
    count times half-length and at ``WALK_GROWTH_LIMIT`` for node count
    times half-length squared.
    """
    return _replay(t, node_count(t), max_length, WALK_WORK_LIMIT, WALK_GROWTH_LIMIT)


def _replay(
    t: PlaneTree, size: int, max_length: int, max_work: float, max_growth: float
) -> dict[int, int]:
    """``walk_count_table`` on a tree whose node count ``size`` is known."""
    if max_length < 0 or max_length % 2:
        raise ValueError("max_length must be even and nonnegative")
    half = max_length // 2
    if size * (half + 1) > max_work:
        raise LimitError("walk-count budget exceeded (node count times half-length)")
    if size * half * half > max_growth:
        raise LimitError("walk-count budget exceeded (node count times half-length squared)")
    adj = adjacency_lists(t)
    counts = {0: 1}
    x = [0] * len(adj)
    x[0] = 1  # the root, first in preorder
    for step in range(1, max_length + 1):
        get = x.__getitem__
        x = [sum(map(get, nbrs)) for nbrs in adj]
        if step % 2 == 0:
            counts[step] = x[0]
    return counts


def leaning_walk_counts(
    order: int,
    max_length: int,
    *,
    max_work: float = WALK_WORK_LIMIT,
    max_growth: float = WALK_GROWTH_LIMIT,
) -> dict[int, int]:
    """``walk_count_table(leaning_tree(order), max_length)`` without the tree,
    read off [z^h] 1/s_order.  Refused before any work when the chain's
    product count P is over ``max_work``, or P times half the half-length
    (the operands grow linearly along the series) is over ``max_growth``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    half = max_length // 2
    terms = half + 1
    products = series._complement_inverse_products(order, terms)
    if products > max_work:
        raise LimitError(f"walk counts limited to {max_work:,} products ({products:,} here)")
    if products * half // 2 > max_growth:
        raise LimitError(f"walk counts limited to {max_growth:,} products times half-length / 2")
    return {2 * h: count for h, count in enumerate(series._complement_inverse(order, terms))}


def leaning_walk_growth(order: int, half_length: int, **budgets: float) -> float:
    """``walk_growth_estimate(leaning_tree(order), half_length)`` without the
    tree, off ``leaning_walk_counts`` under its ``budgets``."""
    length = 2 * half_length
    return _int_root(leaning_walk_counts(order, length, **budgets)[length], 1.0 / length)


def walk_growth_estimate(t: PlaneTree, half_length: int) -> float:
    """Root walk-growth estimate ``count^(1/length)``.

    The root count comes from first return over the distinct labelled
    shapes (``_root_walk_counts``) when its work, the sum of
    (half-length - depth + 1)^2 over the shapes no deeper than the
    half-length, is at most ``FIRST_RETURN_COST_RATIO`` times node count
    times half-length, the work of the adjacency replay of
    ``walk_count_table``, and at most ``WALK_WORK_LIMIT``, its budget.
    Other trees take the replay, under its own budgets.  Both give the same
    exact count.  The work is summed over shapes, not objects, so a tree
    with many repeated subtrees takes first return, and stays within the
    budget, at half-lengths where the replay is refused.
    """
    return plan_walk_growth(subtree_plan(t), half_length)


def plan_walk_growth(
    plan: list,
    half_length: int,
    max_work: float = WALK_WORK_LIMIT,
    max_growth: float = WALK_GROWTH_LIMIT,
) -> float:
    """``walk_growth_estimate`` of the tree whose ``subtree_plan`` is
    ``plan``, the replay under ``max_growth`` too."""
    length = 2 * half_length
    size = plan_node_count(plan)
    depths = _plan_depths(plan)
    work = sum([(half_length - d + 1) ** 2 for d in depths if d <= half_length])
    if work <= min(FIRST_RETURN_COST_RATIO * size * half_length, max_work):
        count = _root_walk_counts(plan, half_length, depths)[half_length]
    else:
        count = _replay(plan[-1][0], size, length, max_work, max_growth)[length]
    return _int_root(count, 1.0 / length)


def _plan_depths(plan: list) -> list[int]:
    """Smallest depth at which each shape of ``plan`` occurs, the root at 0.

    One pass from the root down: ``trees.subtree_plan`` lists every parent
    after its children, so a shape's depth is final when it is reached.
    """
    # above any depth: shapes on a root path differ (sizes strictly decrease)
    depths = [len(plan)] * len(plan)
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
    with at most half - d pairs of steps left, so each distinct labelled
    shape of ``plan`` (``trees.subtree_plan``) is solved once, to half - d + 1
    terms at its smallest depth d (``depths``, from ``_plan_depths`` when not
    given), and shapes deeper than half are skipped.  Each R_v is one
    division by the series kernel of ``series`` (``_quotient``), whose
    negated denominator tail is the children's sum.  The series are exact
    integers, so the order in which a shape's children are summed does not
    matter.
    """
    if depths is None:
        depths = _plan_depths(plan)
    solved: list[list[int]] = []
    for (_, leaves, kids), depth in zip(plan, depths):
        n = half - depth  # R_v needs the children's sum S to z^(n-1)
        if n < 0:
            solved.append([])  # no root walk of length 2*half gets here
            continue
        # the children's series summed (none without children), and leaf
        # children add 1 to z^0; a child sits at most one level deeper, so
        # it has at least n terms
        s = [sum(col) for col in islice(zip(*[solved[c] for c in kids]), n)] or [0]
        s[0] += leaves
        solved.append(series._quotient((1,), s, n + 1))
    return solved[-1]


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


def leaning_lambda1(order: int, tol: float = DEFAULT_LEANING_TOL) -> float:
    """Largest eigenvalue of the order-``order`` leaning tree: the midpoint of
    a bracket of width at most ``tol`` (above order about 3e5 at tol 1e-12,
    the root routine's float floor of 16 ulps in z is wider).

    Every order-j vertex has the pivot d_j = d_(j-1) - 1/d_(j-1), d_0 = x, so
    z = 1/x^2 and s_j = d_j/x give the complement chain s_j = s_(j-1) -
    z/s_(j-1) of ``asymptotics``, and the eigenvalue is 1/sqrt(zstar_order).
    ``asymptotics.zstar`` certifies a z-bracket [lo, hi], by the rule of
    ``asymptotics.RootBracket``, no wider than tol * zlow^(3/2), with zlow
    the proved lower bound on the root, read as x = [1/sqrt(hi), 1/sqrt(lo)]:
    since dx/dz = -x^3/2, that is at most tol/2 wide in x.  O(order) per
    point, so this works for orders far beyond what an explicit
    2^order-vertex tree allows.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if order == 0:
        return 0.0  # a single vertex
    lower = asymptotics.zstar_lower_bound(order)
    # a width that underflows to 0 is below the 16-ulp floor all the same
    bracket = asymptotics.zstar(order, max(tol * lower * math.sqrt(lower), math.ulp(0.0)))
    return 0.5 * (1.0 / math.sqrt(bracket.hi) + 1.0 / math.sqrt(bracket.lo))


def lambda1(t: PlaneTree, tol: float = DEFAULT_EIGEN_TOL) -> float:
    """Largest adjacency eigenvalue of ``t``: the midpoint of a bracket of
    width at most ``tol``."""
    return plan_lambda1(subtree_plan(t), tol)


def plan_lambda1_bracket(plan: list, tol: float = DEFAULT_EIGEN_TOL) -> tuple[float, float]:
    """Bracket of width at most ``tol`` (or two adjacent floats) around the
    largest adjacency eigenvalue of the tree whose ``subtree_plan`` is
    ``plan``: some pivot of xI - A is not positive at its lower end, or that
    end is 0, and every pivot is positive at its upper end.

    From [0, 2 sqrt(delta) + 1], the next point is the Illinois regula-falsi
    point on the root pivot, at least tol/2 inside the bracket, when that
    pivot is known at the lower end (every other pivot is positive there),
    and the midpoint otherwise or when the last two points together did not
    halve the bracket; so any three points at least halve it.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    delta = plan_max_degree(plan)
    if delta == 0:
        return (0.0, 0.0)  # a single vertex
    lo = 0.0  # a leaf's pivot is x itself, so the predicate fails: lo <= lambda1
    hi = 2.0 * math.sqrt(delta) + 1.0  # above the bound 2 sqrt(delta - 1)
    f_hi = _root_pivot(hi, plan)
    if f_hi is None or f_hi <= 0.0:
        raise RuntimeError("seed bracket does not straddle the eigenvalue")
    f_lo = None  # the root pivot at lo, once every other pivot is positive there
    moved = 0  # the end the last point replaced: -1 lo, 1 hi
    earlier = last = math.inf  # the bracket's width two points ago and one point ago
    while hi - lo > tol:
        x = 0.5 * (lo + hi)
        if f_lo is not None and hi - lo <= 0.5 * earlier:
            # Illinois regula falsi, at least tol/2 inside the bracket
            secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            secant = min(max(secant, lo + 0.5 * tol), hi - 0.5 * tol)
            if lo < secant < hi:
                x = secant
        if x <= lo or x >= hi:
            break  # float resolution floor
        earlier, last = last, hi - lo
        f_x = _root_pivot(x, plan)
        if f_x is not None and f_x > 0.0:
            hi, f_hi = x, f_x
            if moved == 1 and f_lo is not None:
                f_lo *= 0.5
            moved = 1
        else:
            lo, f_lo = x, f_x
            if moved == -1:
                f_hi *= 0.5
            moved = -1
    return (lo, hi)


def plan_lambda1(plan: list, tol: float = DEFAULT_EIGEN_TOL) -> float:
    """``lambda1`` of the tree whose ``subtree_plan`` is ``plan``."""
    lo, hi = plan_lambda1_bracket(plan, tol)
    return 0.5 * (lo + hi)


def leaning_eigen_bound(uh: int, tol: float = DEFAULT_EIGEN_TOL) -> float:
    """Largest eigenvalue of the leaning tree of order uh - 1.

    Any rooted tree with Ulam-Harris number uh embeds into that leaning
    tree, so the value is an upper bound for the tree's own largest
    adjacency eigenvalue.
    """
    if uh < 1:
        raise ValueError("Ulam-Harris number must be positive")
    return leaning_lambda1(uh - 1, min(tol, DEFAULT_EIGEN_TOL))


def _root_pivot(x: float, plan: list) -> float | None:
    """The root's pivot of xI - A, or None if another pivot is not positive,
    eliminating in the order of ``trees.subtree_plan``: a labelled shape has
    the same pivot wherever it occurs, so a repeated shape is eliminated
    once per point.  Each entry's children are subtracted in its
    representative's child order.  Every pivot is positive, so x is above
    the largest eigenvalue, exactly when the value returned is positive.

    ``x`` must be positive: it is the pivot of every leaf.
    """
    leaf = 1.0 / x
    inverse: list[float] = []
    for _, leaves, kids in plan:
        pivot = x - leaves * leaf
        for c in kids:
            pivot -= inverse[c]
        if pivot <= 0.0:
            return pivot if len(inverse) == len(plan) - 1 else None
        inverse.append(1.0 / pivot)
    return pivot
