"""Self-verification harness: every advertised identity, bound, and budget.

Each check compares at least two independent routes to the same quantity
(series vs composition recurrence vs enumeration, walk counts vs coefficient
differences, walk growth vs pivot bisection, greedy minimisation vs
exhaustive orderings) or tests a proved bound at a pinned tolerance.

A check is a module-level function returning ``(ok, detail)``.  The ordered
``CHECKS`` table says where each one is reported (its scope and name) and how
it is judged (advisory or asserted, and an optional wall-clock budget that
fails it on overrun); ``run_checks`` runs the rows and builds the results.
Adding a check means one function and one row.

Functions are resolved through their modules (``series.gk_series`` rather
than a from-import), and checks through this module's namespace when their
row runs, so that replacing a module attribute, as fault injection in tests
and tracing do, is actually exercised by the harness.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import asymptotics, bijection, series, spectral, trees, ulam_harris

#: fixed seeds for the randomised sweeps, so reports are reproducible
UH_DEGREE_SEED = 20250612
EMBEDDING_SEED = 20250613

#: pinned tolerances and budgets
COUNT_SWEEP_BUDGET_S = 10.0
WALK_IDENTITY_BUDGET_S = 10.0
ROOT_GROUP_BUDGET_S = 5.0
EIGEN_ANCHOR_TOL = 1e-9
SANDWICH_TOL = 1e-8
GROWTH_WINDOW = (0.5, 1.1)
TRACE_REL_TOL = 0.05
EMBEDDING_TOL = 1e-8
GROWTH_CONSTANT_TOL = 1e-9
SERIES_RATIO_TOL = 1e-6
ROOT_PIN_TOL = 1e-10


@dataclass(frozen=True)
class Check:
    """One registry row: the check ``function`` (a name in this module),
    reported as ``name`` under ``scope``.

    ``advisory`` rows are shown but never flip the overall verdict (used for
    claims that are reported rather than asserted).  A row with a ``budget``
    in seconds fails when its check takes that long or longer.
    """

    scope: str
    name: str
    function: str
    advisory: bool = False
    budget: float | None = None


CHECKS = (
    Check("series", "count-triple-agreement", "check_count_triple_agreement",
          budget=COUNT_SWEEP_BUDGET_S),
    Check("series", "series-complement", "check_series_complement"),
    Check("series", "literal-compositions", "check_literal_compositions"),
    Check("bijection", "walk-count-identity", "check_walk_count_identity",
          budget=WALK_IDENTITY_BUDGET_S),
    Check("bijection", "roundtrip-walks", "check_roundtrip_walks"),
    Check("bijection", "roundtrip-trees", "check_roundtrip_trees"),
    Check("bijection", "image-match", "check_image_match"),
    Check("roots", "root-brackets", "check_root_brackets", budget=ROOT_GROUP_BUDGET_S),
    Check("roots", "growth-constants", "check_growth_constants"),
    Check("roots", "alpha-in-bounds", "check_alpha_in_bounds"),
    Check("roots", "count-upper-bound", "check_count_upper_bound"),
    Check("roots", "ratio-convergence", "check_ratio_convergence"),
    Check("spectral", "eigen-anchors", "check_eigen_anchors"),
    Check("spectral", "degree-sandwich", "check_degree_sandwich"),
    Check("spectral", "degree-sandwich-offset-claim", "check_degree_sandwich_offset_claim",
          advisory=True),
    Check("spectral", "eigen-growth-window", "check_growth_window"),
    Check("spectral", "trace-agreement", "check_trace_agreement"),
    Check("spectral", "embedding-bound", "check_embedding_bound"),
    Check("uh", "uh-exhaustive", "check_uh_exhaustive"),
    Check("uh", "uh-leaning", "check_uh_leaning"),
    Check("uh", "uh-degree-bound", "check_uh_degree_bound"),
)

SCOPES = tuple(dict.fromkeys(row.scope for row in CHECKS))


@dataclass
class CheckResult:
    """Outcome of one row: its check's verdict and detail, the elapsed time,
    and the row's ``advisory`` flag and ``budget``."""

    name: str
    scope: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    advisory: bool = False
    budget: float | None = None

    @property
    def status(self) -> str:
        if self.passed:
            return "pass"
        return "known-fail" if self.advisory else "FAIL"


def run_check(row: Check) -> CheckResult:
    """Run one row's check, timed, and fail it if it reaches its budget."""
    start = time.perf_counter()
    ok, detail = globals()[row.function]()
    elapsed = time.perf_counter() - start
    if row.budget is not None and elapsed >= row.budget:
        ok = False
    return CheckResult(row.name, row.scope, ok, detail, elapsed, row.advisory, row.budget)


def run_checks(scope: str = "all") -> list[CheckResult]:
    """Run every row in the scope ("all" or one of SCOPES), in order."""
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected 'all' or one of {SCOPES}")
    return [run_check(row) for row in CHECKS if scope in ("all", row.scope)]


def overall_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if not r.advisory)


# ---------------------------------------------------------------- series --


def check_count_triple_agreement() -> tuple[bool, str]:
    """Three counting methods agree exactly for all n <= 8, k <= 6.

    The enumeration count builds and visits every child list of the tree
    stream once and leaves out the root nodes; it reads no count off a pool
    or list size, so it stays independent of the series and compositions
    routes it is compared with.
    """
    anchors = (
        series.count_trees(1, 1) == 1
        and all(series.count_trees(n, 1) == 0 for n in range(2, 9))
        and series.count_trees(3, 3) == 6
    )
    if not anchors:
        return False, "anchor values wrong"
    cells = 0
    for n in range(1, 9):
        for k in range(1, 7):
            a = series.count_trees(n, k)
            b = series.count_trees_by_compositions(n, k)
            c = trees.count_trees_by_enumeration(n, k)
            if not a == b == c:
                return False, (
                    f"methods disagree at n={n}, k={k}: series={a}, "
                    f"compositions={b}, enumeration={c}"
                )
            cells += 1
    return True, f"{cells} cells agree"


def check_series_complement() -> tuple[bool, str]:
    """The two series recurrences are exact complements: s + g = 1."""
    order = 30
    for k in range(1, 9):
        g = series.gk_series(k, order)
        s = series.sk_series(k, order)
        total = tuple(a + b for a, b in zip(g.coeffs, s.coeffs))
        expected = (1,) + (0,) * (order - 1)
        if total != expected:
            bad = next(i for i in range(order) if total[i] != expected[i])
            return False, f"g + s differs from 1 at k={k}, coefficient {bad}"
    return True, "g + s = 1 coefficientwise for k <= 8"


def check_literal_compositions() -> tuple[bool, str]:
    """Literal composition enumeration matches the convolution route."""
    for n in range(1, 11):
        for k in range(1, 6):
            lit = series.count_trees_by_literal_compositions(n, k)
            conv = series.count_trees_by_compositions(n, k)
            if lit != conv:
                return False, f"literal {lit} != convolution {conv} at n={n}, k={k}"
    return True, "literal sweep matches for n <= 10, k <= 5"


# ------------------------------------------------------------- bijection --


def check_walk_count_identity() -> tuple[bool, str]:
    """Closed root walks in the order-k leaning tree are counted by the
    coefficient difference: W(2n) = count(n+1, k+1) - count(n+1, k)."""
    for k in range(1, 6):
        tree = trees.leaning_tree(k)
        table = spectral.walk_count_table(tree, 12)
        for n in range(0, 7):
            walks = table[2 * n]
            coeff = series.count_trees(n + 1, k + 1) - series.count_trees(n + 1, k)
            if walks != coeff:
                return False, (
                    f"W_{2*n} = {walks} but coefficient difference is {coeff} at k={k}"
                )
    return True, "exact for n <= 6, k <= 5"


def check_roundtrip_walks() -> tuple[bool, str]:
    """Tree-then-walk is the identity on every closed walk of length <= 10 in
    the order-4 leaning tree."""
    total = 0
    for length in range(0, 11, 2):
        for walk in bijection.iter_closed_walks(4, length):
            again = bijection.build_walk_from_tree(bijection.build_tree_from_walk(walk))
            if again != walk:
                return False, f"round trip failed for {bijection.format_walk(walk)!r}"
            total += 1
    return True, f"identity on {total} walks"


def check_roundtrip_trees() -> tuple[bool, str]:
    """Walk-then-tree is the identity on every decreasing tree with <= 7
    nodes and root label exactly k+1, for k <= 5."""
    total = 0
    for k in range(1, 6):
        for n in range(1, 8):
            for t in trees.iter_decreasing_trees(n, k + 1, root_label=k + 1):
                again = bijection.build_tree_from_walk(bijection.build_walk_from_tree(t))
                if again != t:
                    return False, f"round trip failed for {trees.format_tree(t)!r}"
                total += 1
    return True, f"identity on {total} trees"


def check_image_match() -> tuple[bool, str]:
    """The tree map is a bijection from the enumerated walks onto the
    enumerated tree family, for k <= 5 and n <= 5.

    A counting argument over finite sets, in two streamed passes that hold
    O(depth) memory.  Let V be the decreasing trees with n + 1 nodes and
    root label k + 1, of size N = ``series.count_with_root_label(n + 1, k + 1)``.

    - Family pass: every tree of the stream lies in V (one walk checks the
      root label, strictly decreasing labels and the node count), comes
      strictly after the one before under ``_precedes``, so none repeats,
      and the stream holds N trees.  So the family F is V.
    - Walk pass: every walk of ``bijection.iter_closed_walks(k, 2n)`` has
      order k and length 2n, comes strictly after the one before in the
      enumerator's depth-first order (``UP`` after every descent), and
      ``walk(tree(w)) == w``, so the tree map is injective on the walks.
      ``build_walk_from_tree`` refuses trees that are not decreasing, and
      the walk's order and length fix tree(w)'s root label and size, so
      tree(w) lies in V.  The stream holds N walks.

    An injective map from N walks into a set of N trees is onto it, so the
    tree map is a bijection from the walks onto V = F.  The family stream,
    the walk enumerator, the predicate and the series count stay separate
    code.
    """
    for k in range(1, 6):
        up = k + 1  # UP's rank in the enumerator's order: after every descent
        for n in range(0, 6):
            size = series.count_with_root_label(n + 1, k + 1)
            differs = f"image differs from the tree family at k={k}, n={n}"
            count, last = 0, None
            for t in trees.iter_decreasing_trees(n + 1, k + 1, root_label=k + 1):
                if not _in_family(t, n + 1, k + 1) or (last is not None and not _precedes(last, t)):
                    return False, differs
                count += 1
                last = t
            if count != size:
                return False, differs
            count, last = 0, None
            for w in bijection.iter_closed_walks(k, 2 * n):
                key = [m if m > 0 else up for m in w.moves]
                if last is not None and key <= last:
                    return False, f"duplicate image at k={k}, n={n}" if key == last else differs
                if w.order != k or len(w.moves) != 2 * n:
                    return False, differs
                if bijection.build_walk_from_tree(bijection.build_tree_from_walk(w)) != w:
                    return False, differs
                count += 1
                last = key
            if count != size:
                return False, differs
    return True, "image equals the tree family for k <= 5, n <= 5"


def _in_family(t: trees.PlaneTree, size: int, root_label: int) -> bool:
    """True iff ``t`` has ``size`` nodes, root label ``root_label`` and
    positive labels that strictly decrease away from the root."""
    if t.label != root_label:
        return False
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        label = node.label
        for child in node.children:
            if not 0 < child.label < label:
                return False
        stack += node.children
    return count == size


def _precedes(a: trees.PlaneTree, b: trees.PlaneTree) -> bool:
    """True iff ``a`` comes strictly before ``b`` in the canonical order of
    ``trees.iter_decreasing_trees``: by root label, then at the first child
    where the two differ, by its node count, root label and own children."""
    if a.label != b.label:
        return a.label < b.label
    for x, y in zip(a.children, b.children):
        if x is not y and x != y:
            size_x, size_y = _size(x), _size(y)
            return size_x < size_y if size_x != size_y else _precedes(x, y)
    return len(a.children) < len(b.children)


def _size(t: trees.PlaneTree) -> int:
    # a plain walk: ``trees.node_count`` builds a subtree plan, far more
    # than these trees of at most five nodes need
    size, stack = 0, [t]
    while stack:
        size += 1
        stack += stack.pop().children
    return size


# ----------------------------------------------------------------- roots --


def check_root_brackets() -> tuple[bool, str]:
    """Bracket precision, proved bounds, the value bound at 1/(2k), and
    midpoint monotonicity, for k <= 50."""
    target = (3.0 - math.sqrt(5.0)) / 2.0
    mid2 = asymptotics.zstar(2).midpoint
    if abs(mid2 - target) >= ROOT_PIN_TOL:
        return False, f"root for k=2 off by {abs(mid2 - target):.2e}"
    previous_mid = None
    for k in range(1, 51):
        bracket = asymptotics.zstar(k)
        if bracket.lo < asymptotics.zstar_lower_bound(k) - 1e-15:
            return False, f"lower bound violated at k={k}"
        if bracket.hi > asymptotics.zstar_upper_bound(k) + 1e-15:
            return False, f"upper bound violated at k={k}"
        value = asymptotics.eval_sk(1.0 / (2 * k), k)
        if value is None or value > (1.0 / (4 * k)) ** 0.25 + 1e-12:
            return False, f"value bound at 1/(2k) violated at k={k}"
        if previous_mid is not None and bracket.midpoint > previous_mid + 1e-15:
            return False, f"midpoints not nonincreasing at k={k}"
        previous_mid = bracket.midpoint
    return True, f"k <= 50 certified; root(2) off by {abs(mid2 - target):.1e}"


def check_growth_constants() -> tuple[bool, str]:
    """Pinned growth constants and the empirical series-ratio validation."""
    phi_plus = (3.0 + math.sqrt(5.0)) / 2.0
    a2, c2 = asymptotics.growth_constants(2)
    a3, c3 = asymptotics.growth_constants(3)
    if abs(a2 - 1.0) >= GROWTH_CONSTANT_TOL or abs(c2 - 1.0) >= GROWTH_CONSTANT_TOL:
        return False, f"k=2 constants off: {a2}, {c2}"
    if abs(a3 - phi_plus) >= GROWTH_CONSTANT_TOL:
        return False, f"alpha(3) off by {abs(a3 - phi_plus):.2e}"
    ratio = series.gk_series(3, 61).coeffs[60] / a3**60
    if abs(c3 - ratio) >= SERIES_RATIO_TOL:
        return False, f"ck(3)={c3} vs series ratio {ratio} differ by {abs(c3 - ratio):.2e}"
    return True, (
        f"alpha(2)=1, ck(2)=1, alpha(3)={a3:.10f}, ck(3) matches the n=60 "
        f"series ratio to {abs(c3 - ratio):.1e}"
    )


def check_alpha_in_bounds() -> tuple[bool, str]:
    """The computed growth rate sits inside its proved bracket for 2 <= k <= 50."""
    for k in range(2, 51):
        lower, upper = asymptotics.alpha_bounds(k)
        value = asymptotics.growth_constants(k)[0]
        if not lower <= value <= upper:
            return False, f"alpha({k})={value} outside [{lower}, {upper}]"
    return True, "alpha inside bounds for 2 <= k <= 50"


def check_count_upper_bound() -> tuple[bool, str]:
    """Counts never exceed the reciprocal root to the n-th power.

    Uses the certified upper endpoint of the bracket, which makes the test
    strictly harder than the proved inequality."""
    for k in range(1, 7):
        hi = asymptotics.zstar(k).hi
        g = series.gk_series(k, 41)
        for n in range(1, 41):
            if g.coeffs[n] > (1.0 / hi) ** n:
                return False, f"bound violated at n={n}, k={k}"
    return True, "counts below alpha(k+1)^n for n <= 40, k <= 6"


def check_ratio_convergence() -> tuple[bool, str]:
    """Successive count ratios reach the growth rate at n = 80 for k in {2,3,4}."""
    for k in (2, 3, 4):
        g = series.gk_series(k, 82)
        ratio = g.coeffs[81] / g.coeffs[80]
        a = asymptotics.growth_constants(k)[0]
        if abs(ratio - a) >= SERIES_RATIO_TOL:
            return False, f"ratio {ratio} vs alpha({k})={a}, off by {abs(ratio - a):.2e}"
    return True, "ratios match alpha to 1e-6 at n=80 for k in {2,3,4}"


# -------------------------------------------------------------- spectral --


def check_eigen_anchors() -> tuple[bool, str]:
    """Exactly known leaning-tree eigenvalues: order 1 gives 1, order 2 gives
    the golden ratio."""
    lam1 = spectral.lambda1(trees.leaning_tree(1))
    lam2 = spectral.lambda1(trees.leaning_tree(2))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    if abs(lam1 - 1.0) >= EIGEN_ANCHOR_TOL or abs(lam2 - phi) >= EIGEN_ANCHOR_TOL:
        return False, f"anchors off: {lam1}, {lam2}"
    return True, f"lambda1 anchors match to {max(abs(lam1 - 1.0), abs(lam2 - phi)):.1e}"


def check_degree_sandwich() -> tuple[bool, str]:
    """sqrt(max degree) <= lambda1 <= 2 sqrt(max degree - 1) on leaning trees
    of orders 2..12, with the degree scanned from the tree itself."""
    for k in range(2, 13):
        plan = trees.subtree_plan(trees.leaning_tree(k))
        delta = trees.plan_max_degree(plan)
        lam = spectral.plan_lambda1(plan)
        low, high = spectral.stevanovic_bounds(delta)
        if not (low - SANDWICH_TOL <= lam <= high + SANDWICH_TOL):
            return False, f"lambda1={lam} outside [{low}, {high}] at order {k} (degree {delta})"
    return True, "sandwich holds with the scanned degree (= order) for orders 2..12"


def check_degree_sandwich_offset_claim() -> tuple[bool, str]:
    """Report-only: the same sandwich with the degree taken as order + 1.

    The scanned maximum degree of an order-k leaning tree is k, not k+1, and
    with the off-by-one degree the lower bound fails at order 2, where
    lambda1 is the golden ratio 1.618 < sqrt(3).  Reported, not asserted."""
    failures = []
    for k in range(2, 13):
        lam = spectral.lambda1(trees.leaning_tree(k))
        low, high = spectral.stevanovic_bounds(k + 1)
        if not (low - SANDWICH_TOL <= lam <= high + SANDWICH_TOL):
            failures.append(f"order {k}: lambda1={lam:.6f} < sqrt({k + 1})={low:.6f}")
    if failures:
        return False, "fails at " + "; ".join(failures)
    return True, "holds at every order 2..12"


def check_growth_window() -> tuple[bool, str]:
    """lambda1^2 / (2k) stays in a fixed window for orders 6..14.

    A finite-order proxy for square-root growth of the top eigenvalue in the
    order; the drift toward 1 is reported but not asserted."""
    values = []
    for k in range(6, 15):
        lam = spectral.lambda1(trees.leaning_tree(k))
        value = lam * lam / (2.0 * k)
        if not GROWTH_WINDOW[0] <= value <= GROWTH_WINDOW[1]:
            return False, f"lambda1^2/(2k) = {value:.4f} outside {GROWTH_WINDOW} at order {k}"
        values.append(value)
    return True, (
        f"ratios {values[0]:.3f} ... {values[-1]:.3f} inside {GROWTH_WINDOW}, "
        "drifting upward"
    )


def check_trace_agreement() -> tuple[bool, str]:
    """Root walk growth at length 40 is within 5% of the pivot-bisection
    eigenvalue for orders up to 10."""
    for k in range(1, 11):
        plan = trees.subtree_plan(trees.leaning_tree(k))
        estimate = spectral.plan_walk_growth(plan, 20)
        lam = spectral.plan_lambda1(plan)
        if abs(estimate - lam) > TRACE_REL_TOL * lam:
            return False, f"estimate {estimate} vs lambda1 {lam} at order {k}"
    return True, "root growth estimate within 5% of pivot-bisection lambda1 for orders 1..10"


def check_embedding_bound() -> tuple[bool, str]:
    """Random rooted trees never beat the leaning-tree eigenvalue bound.

    For 200 uniform-attachment trees on up to 30 nodes: lambda1(tree) is at
    most lambda1 of the leaning tree of order uh_min - 1 (plus float slack).
    Also reports how often the bound improves on the degree sandwich, and
    whether the improvement cases match the predictor uh + 1 < 2 * degree.

    Each tree's subtree plan gives its eigenvalue, Ulam-Harris number and
    degree, and each distinct uh is bounded once."""
    rng = random.Random(EMBEDDING_SEED)
    improved = 0
    predicted = 0
    predicted_and_improved = 0
    bounds: dict[int, float] = {}
    for _ in range(200):
        t = trees.random_plane_tree(rng.randint(2, 30), rng)
        plan = trees.subtree_plan(t)
        lam = spectral.plan_lambda1(plan)
        uh = ulam_harris.plan_uh_number(plan)
        if uh not in bounds:
            bounds[uh] = spectral.leaning_eigen_bound(uh)
        bound = bounds[uh]
        if lam > bound + EMBEDDING_TOL:
            return False, (
                f"lambda1 {lam} exceeds leaning bound {bound} "
                f"(uh {uh}) on {trees.format_tree(t)!r}"
            )
        delta = trees.plan_max_degree(plan)
        degree_bound = spectral.stevanovic_bounds(delta)[1] if delta >= 2 else math.inf
        if bound < degree_bound:
            improved += 1
        if uh + 1 < 2 * delta:
            predicted += 1
            if bound < degree_bound:
                predicted_and_improved += 1
    return True, (
        f"bound holds on 200 trees; beats the degree bound on {improved}/200; "
        f"uh+1 < 2*degree predicted {predicted}, of which {predicted_and_improved} "
        "actually improved"
    )


# -------------------------------------------------------------------- uh --


def check_uh_exhaustive() -> tuple[bool, str]:
    """Greedy minimisation equals brute force on every shape with <= 8 nodes."""
    tested = 0
    for shapes in ulam_harris.unordered_shape_levels(8):
        for shape in shapes:
            greedy = ulam_harris.uh_min(shape)
            brute = ulam_harris.uh_min_bruteforce(shape)
            if greedy.uh != brute:
                return False, f"greedy {greedy.uh} != brute {brute} on {trees.format_tree(shape)!r}"
            if ulam_harris.uh_ordered(greedy.witness).uh != greedy.uh:
                return False, f"witness does not reproduce uh on {trees.format_tree(shape)!r}"
            tested += 1
    return True, f"greedy = brute on all {tested} shapes with <= 8 nodes"


def check_uh_leaning() -> tuple[bool, str]:
    """Leaning trees of order k have Ulam-Harris number k+1, already minimal."""
    for k in range(0, 11):
        tree = trees.leaning_tree(k)
        if ulam_harris.uh_ordered(tree).uh != k + 1 or ulam_harris.uh_number(tree) != k + 1:
            return False, f"mismatch at order {k}"
    return True, "uh = order + 1 for orders 0..10"


def check_uh_degree_bound() -> tuple[bool, str]:
    """The Ulam-Harris number is at least the maximum degree (500 random trees)."""
    rng = random.Random(UH_DEGREE_SEED)
    for _ in range(500):
        t = trees.random_plane_tree(rng.randint(1, 30), rng)
        plan = trees.subtree_plan(t)
        uh = ulam_harris.plan_uh_number(plan)
        delta = trees.plan_max_degree(plan)
        if uh < delta:
            return False, f"uh {uh} below degree {delta} on {trees.format_tree(t)!r}"
    return True, "uh >= max degree on 500 random trees up to 30 nodes"
