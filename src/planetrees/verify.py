"""Self-verification harness: every advertised identity, bound, and budget.

Each check compares at least two independent routes to the same quantity
(series vs composition recurrence vs enumeration, walk counts vs coefficient
differences, walk growth vs pivot bisection, greedy minimisation vs
exhaustive orderings) or tests a proved bound at a pinned tolerance.  The
checks are grouped into scopes so the command line can run a subset.  Three
sweeps also run against a wall-clock budget, which fails them on overrun.

Functions are resolved through their modules (``series.gk_series`` rather
than a from-import) so that fault injection in tests, replacing a module
attribute, is actually exercised by the harness.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass

from . import asymptotics, bijection, series, spectral, trees, ulam_harris

SCOPES = ("series", "bijection", "roots", "spectral", "uh")

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


@dataclass
class CheckResult:
    """Outcome of one named check.

    ``advisory`` marks report-only checks: they are shown but never flip the
    overall verdict (used for claims that are reported rather than asserted).
    ``budget`` is the wall-clock budget in seconds of a budgeted sweep, which
    fails when ``elapsed`` reaches it.
    """

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


def run_checks(scope: str = "all") -> list[CheckResult]:
    """Run every check in the scope ("all" or one of SCOPES), in order."""
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected 'all' or one of {SCOPES}")
    results: list[CheckResult] = []
    for name in SCOPES:
        if scope in ("all", name):
            results.extend(_SCOPE_RUNNERS[name]())
    return results


def overall_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if not r.advisory)


def _timed(fn) -> CheckResult:
    start = time.perf_counter()
    result = fn()
    if result.budget is None:  # a budgeted check has timed itself
        result.elapsed = time.perf_counter() - start
    return result


def _budgeted(budget_s: float):
    """Time the decorated check and fail it if it takes ``budget_s`` or more.

    The budget is enforced inside the check, so it holds when the check is
    called directly as well as through ``run_checks``.
    """

    def decorate(check):
        @functools.wraps(check)
        def timed() -> CheckResult:
            start = time.perf_counter()
            result = check()
            result.elapsed = time.perf_counter() - start
            result.budget = budget_s
            result.passed = result.passed and result.elapsed < budget_s
            return result

        return timed

    return decorate


# ---------------------------------------------------------------- series --


@_budgeted(COUNT_SWEEP_BUDGET_S)
def check_count_triple_agreement() -> CheckResult:
    """Three counting methods agree exactly for all n <= 8, k <= 6."""
    anchors = (
        series.count_trees(1, 1) == 1
        and all(series.count_trees(n, 1) == 0 for n in range(2, 9))
        and series.count_trees(3, 3) == 6
    )
    if not anchors:
        return CheckResult(
            "count-triple-agreement", "series", False, "anchor values wrong"
        )
    cells = 0
    for n in range(1, 9):
        for k in range(1, 7):
            a = series.count_trees(n, k)
            b = series.count_trees_by_compositions(n, k)
            c = sum(1 for _ in trees.iter_decreasing_trees(n, k))
            if not a == b == c:
                return CheckResult(
                    "count-triple-agreement",
                    "series",
                    False,
                    f"methods disagree at n={n}, k={k}: series={a}, "
                    f"compositions={b}, enumeration={c}",
                )
            cells += 1
    return CheckResult("count-triple-agreement", "series", True, f"{cells} cells agree")


def check_series_complement() -> CheckResult:
    """The two series recurrences are exact complements: s + g = 1."""
    order = 30
    for k in range(1, 9):
        g = series.gk_series(k, order)
        s = series.sk_series(k, order)
        total = tuple(a + b for a, b in zip(g.coeffs, s.coeffs))
        expected = (1,) + (0,) * (order - 1)
        if total != expected:
            bad = next(i for i in range(order) if total[i] != expected[i])
            return CheckResult(
                "series-complement",
                "series",
                False,
                f"g + s differs from 1 at k={k}, coefficient {bad}",
            )
    return CheckResult(
        "series-complement", "series", True, "g + s = 1 coefficientwise for k <= 8"
    )


def check_literal_compositions() -> CheckResult:
    """Literal composition enumeration matches the convolution route."""
    for n in range(1, 11):
        for k in range(1, 6):
            lit = series.count_trees_by_compositions(n, k, literal=True)
            conv = series.count_trees_by_compositions(n, k)
            if lit != conv:
                return CheckResult(
                    "literal-compositions",
                    "series",
                    False,
                    f"literal {lit} != convolution {conv} at n={n}, k={k}",
                )
    return CheckResult(
        "literal-compositions", "series", True, "literal sweep matches for n <= 10, k <= 5"
    )


def _series_checks() -> list[CheckResult]:
    return [
        _timed(check_count_triple_agreement),
        _timed(check_series_complement),
        _timed(check_literal_compositions),
    ]


# ------------------------------------------------------------- bijection --


@_budgeted(WALK_IDENTITY_BUDGET_S)
def check_walk_count_identity() -> CheckResult:
    """Closed root walks in the order-k leaning tree are counted by the
    coefficient difference: W(2n) = count(n+1, k+1) - count(n+1, k)."""
    for k in range(1, 6):
        tree = trees.leaning_tree(k)
        table = spectral.walk_count_table(tree, 12)
        for n in range(0, 7):
            walks = table[2 * n]
            coeff = series.count_trees(n + 1, k + 1) - series.count_trees(n + 1, k)
            if walks != coeff:
                return CheckResult(
                    "walk-count-identity",
                    "bijection",
                    False,
                    f"W_{2*n} = {walks} but coefficient difference is {coeff} at k={k}",
                )
    return CheckResult("walk-count-identity", "bijection", True, "exact for n <= 6, k <= 5")


def check_roundtrip_walks() -> CheckResult:
    """Tree-then-walk is the identity on every closed walk of length <= 10 in
    the order-4 leaning tree."""
    total = 0
    for length in range(0, 11, 2):
        for walk in bijection.enumerate_closed_walks(4, length):
            again = bijection.build_walk_from_tree(bijection.build_tree_from_walk(walk))
            if again != walk:
                return CheckResult(
                    "roundtrip-walks",
                    "bijection",
                    False,
                    f"round trip failed for {bijection.format_walk(walk)!r}",
                )
            total += 1
    return CheckResult(
        "roundtrip-walks", "bijection", True, f"identity on {total} walks"
    )


def check_roundtrip_trees() -> CheckResult:
    """Walk-then-tree is the identity on every decreasing tree with <= 7
    nodes and root label exactly k+1, for k <= 5."""
    total = 0
    for k in range(1, 6):
        for n in range(1, 8):
            for t in trees.iter_decreasing_trees(n, k + 1, root_label=k + 1):
                again = bijection.build_tree_from_walk(bijection.build_walk_from_tree(t))
                if again != t:
                    return CheckResult(
                        "roundtrip-trees",
                        "bijection",
                        False,
                        f"round trip failed for {trees.format_tree(t)!r}",
                    )
                total += 1
    return CheckResult(
        "roundtrip-trees", "bijection", True, f"identity on {total} trees"
    )


def check_image_match() -> CheckResult:
    """The walk enumerator's image is exactly the enumerated tree family."""
    for k in range(1, 6):
        for n in range(0, 6):
            walks = bijection.enumerate_closed_walks(k, 2 * n)
            image = [bijection.build_tree_from_walk(w) for w in walks]
            image_keys = {trees.format_tree(t) for t in image}
            if len(image_keys) != len(image):
                return CheckResult(
                    "image-match", "bijection", False, f"duplicate image at k={k}, n={n}"
                )
            family = {
                trees.format_tree(t)
                for t in trees.iter_decreasing_trees(n + 1, k + 1, root_label=k + 1)
            }
            if image_keys != family:
                return CheckResult(
                    "image-match",
                    "bijection",
                    False,
                    f"image differs from the tree family at k={k}, n={n}",
                )
    return CheckResult(
        "image-match", "bijection", True, "image equals the tree family for k <= 5, n <= 5"
    )


def _bijection_checks() -> list[CheckResult]:
    return [
        _timed(check_walk_count_identity),
        _timed(check_roundtrip_walks),
        _timed(check_roundtrip_trees),
        _timed(check_image_match),
    ]


# ----------------------------------------------------------------- roots --


@_budgeted(ROOT_GROUP_BUDGET_S)
def check_root_brackets() -> CheckResult:
    """Bracket precision, proved bounds, the value bound at 1/(2k), and
    midpoint monotonicity, for k <= 50, inside the runtime budget."""
    target = (3.0 - math.sqrt(5.0)) / 2.0
    mid2 = asymptotics.zstar(2).midpoint
    if abs(mid2 - target) >= ROOT_PIN_TOL:
        return CheckResult(
            "root-brackets", "roots", False, f"root for k=2 off by {abs(mid2 - target):.2e}"
        )
    previous_mid = None
    for k in range(1, 51):
        bracket = asymptotics.zstar(k)
        if bracket.lo < asymptotics.zstar_lower_bound(k) - 1e-15:
            return CheckResult(
                "root-brackets", "roots", False, f"lower bound violated at k={k}"
            )
        if bracket.hi > asymptotics.zstar_upper_bound(k) + 1e-15:
            return CheckResult(
                "root-brackets", "roots", False, f"upper bound violated at k={k}"
            )
        value = asymptotics.eval_sk(1.0 / (2 * k), k)
        if isinstance(value, asymptotics.BeyondRoot) or value > (1.0 / (4 * k)) ** 0.25 + 1e-12:
            return CheckResult(
                "root-brackets", "roots", False, f"value bound at 1/(2k) violated at k={k}"
            )
        if previous_mid is not None and bracket.midpoint > previous_mid + 1e-15:
            return CheckResult(
                "root-brackets", "roots", False, f"midpoints not nonincreasing at k={k}"
            )
        previous_mid = bracket.midpoint
    return CheckResult(
        "root-brackets",
        "roots",
        True,
        f"k <= 50 certified; root(2) off by {abs(mid2 - target):.1e}",
    )


def check_growth_constants() -> CheckResult:
    """Pinned growth constants and the empirical series-ratio validation."""
    phi_plus = (3.0 + math.sqrt(5.0)) / 2.0
    a2 = asymptotics.alpha(2)
    c2 = asymptotics.ck(2)
    a3 = asymptotics.alpha(3)
    c3 = asymptotics.ck(3)
    if abs(a2 - 1.0) >= GROWTH_CONSTANT_TOL or abs(c2 - 1.0) >= GROWTH_CONSTANT_TOL:
        return CheckResult(
            "growth-constants", "roots", False, f"k=2 constants off: {a2}, {c2}"
        )
    if abs(a3 - phi_plus) >= GROWTH_CONSTANT_TOL:
        return CheckResult(
            "growth-constants", "roots", False, f"alpha(3) off by {abs(a3 - phi_plus):.2e}"
        )
    ratio = series.gk_series(3, 61).coeffs[60] / a3**60
    if abs(c3 - ratio) >= SERIES_RATIO_TOL:
        return CheckResult(
            "growth-constants",
            "roots",
            False,
            f"ck(3)={c3} vs series ratio {ratio} differ by {abs(c3 - ratio):.2e}",
        )
    return CheckResult(
        "growth-constants",
        "roots",
        True,
        f"alpha(2)=1, ck(2)=1, alpha(3)={a3:.10f}, ck(3) matches the n=60 "
        f"series ratio to {abs(c3 - ratio):.1e}",
    )


def check_alpha_in_bounds() -> CheckResult:
    """The computed growth rate sits inside its proved bracket for 2 <= k <= 50."""
    for k in range(2, 51):
        lower, upper = asymptotics.alpha_bounds(k)
        value = asymptotics.alpha(k)
        if not lower <= value <= upper:
            return CheckResult(
                "alpha-in-bounds",
                "roots",
                False,
                f"alpha({k})={value} outside [{lower}, {upper}]",
            )
    return CheckResult("alpha-in-bounds", "roots", True, "alpha inside bounds for 2 <= k <= 50")


def check_count_upper_bound() -> CheckResult:
    """Counts never exceed the reciprocal root to the n-th power.

    Uses the certified upper endpoint of the bracket, which makes the test
    strictly harder than the proved inequality."""
    for k in range(1, 7):
        hi = asymptotics.zstar(k).hi
        g = series.gk_series(k, 41)
        for n in range(1, 41):
            if g.coeffs[n] > (1.0 / hi) ** n:
                return CheckResult(
                    "count-upper-bound", "roots", False, f"bound violated at n={n}, k={k}"
                )
    return CheckResult(
        "count-upper-bound", "roots", True, "counts below alpha(k+1)^n for n <= 40, k <= 6"
    )


def check_ratio_convergence() -> CheckResult:
    """Successive count ratios reach the growth rate at n = 80 for k in {2,3,4}."""
    for k in (2, 3, 4):
        g = series.gk_series(k, 82)
        ratio = g.coeffs[81] / g.coeffs[80]
        a = asymptotics.alpha(k)
        if abs(ratio - a) >= SERIES_RATIO_TOL:
            return CheckResult(
                "ratio-convergence",
                "roots",
                False,
                f"ratio {ratio} vs alpha({k})={a}, off by {abs(ratio - a):.2e}",
            )
    return CheckResult(
        "ratio-convergence", "roots", True, "ratios match alpha to 1e-6 at n=80 for k in {2,3,4}"
    )


def _roots_checks() -> list[CheckResult]:
    return [
        _timed(check_root_brackets),
        _timed(check_growth_constants),
        _timed(check_alpha_in_bounds),
        _timed(check_count_upper_bound),
        _timed(check_ratio_convergence),
    ]


# -------------------------------------------------------------- spectral --


def check_eigen_anchors() -> CheckResult:
    """Exactly known leaning-tree eigenvalues: order 1 gives 1, order 2 gives
    the golden ratio."""
    lam1 = spectral.lambda1(trees.leaning_tree(1))
    lam2 = spectral.lambda1(trees.leaning_tree(2))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    if abs(lam1 - 1.0) >= EIGEN_ANCHOR_TOL or abs(lam2 - phi) >= EIGEN_ANCHOR_TOL:
        return CheckResult(
            "eigen-anchors", "spectral", False, f"anchors off: {lam1}, {lam2}"
        )
    return CheckResult(
        "eigen-anchors",
        "spectral",
        True,
        f"lambda1 anchors match to {max(abs(lam1 - 1.0), abs(lam2 - phi)):.1e}",
    )


def check_degree_sandwich() -> CheckResult:
    """sqrt(max degree) <= lambda1 <= 2 sqrt(max degree - 1) on leaning trees
    of orders 2..12, with the degree scanned from the tree itself."""
    for k in range(2, 13):
        tree = trees.leaning_tree(k)
        delta = trees.max_degree(tree)
        lam = spectral.lambda1(tree)
        low, high = spectral.stevanovic_bounds(delta)
        if not (low - SANDWICH_TOL <= lam <= high + SANDWICH_TOL):
            return CheckResult(
                "degree-sandwich",
                "spectral",
                False,
                f"lambda1={lam} outside [{low}, {high}] at order {k} (degree {delta})",
            )
    return CheckResult(
        "degree-sandwich",
        "spectral",
        True,
        "sandwich holds with the scanned degree (= order) for orders 2..12",
    )


def check_degree_sandwich_offset_claim() -> CheckResult:
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
    detail = (
        "holds at every order 2..12"
        if not failures
        else "fails at " + "; ".join(failures)
    )
    return CheckResult(
        "degree-sandwich-offset-claim",
        "spectral",
        not failures,
        detail,
        advisory=True,
    )


def check_growth_window() -> CheckResult:
    """lambda1^2 / (2k) stays in a fixed window for orders 6..14.

    A finite-order proxy for square-root growth of the top eigenvalue in the
    order; the drift toward 1 is reported but not asserted."""
    values = []
    for k in range(6, 15):
        lam = spectral.lambda1(trees.leaning_tree(k))
        value = lam * lam / (2.0 * k)
        if not GROWTH_WINDOW[0] <= value <= GROWTH_WINDOW[1]:
            return CheckResult(
                "eigen-growth-window",
                "spectral",
                False,
                f"lambda1^2/(2k) = {value:.4f} outside {GROWTH_WINDOW} at order {k}",
            )
        values.append(value)
    return CheckResult(
        "eigen-growth-window",
        "spectral",
        True,
        f"ratios {values[0]:.3f} ... {values[-1]:.3f} inside {GROWTH_WINDOW}, "
        "drifting upward",
    )


def check_trace_agreement() -> CheckResult:
    """Root walk growth at length 40 is within 5% of the pivot-bisection
    eigenvalue for orders up to 10."""
    for k in range(1, 11):
        tree = trees.leaning_tree(k)
        estimate = spectral.walk_growth_estimate(tree, 20)
        lam = spectral.lambda1(tree)
        if abs(estimate - lam) > TRACE_REL_TOL * lam:
            return CheckResult(
                "trace-agreement",
                "spectral",
                False,
                f"estimate {estimate} vs lambda1 {lam} at order {k}",
            )
    return CheckResult(
        "trace-agreement",
        "spectral",
        True,
        "root growth estimate within 5% of pivot-bisection lambda1 for orders 1..10",
    )


def check_embedding_bound() -> CheckResult:
    """Random rooted trees never beat the leaning-tree eigenvalue bound.

    For 200 uniform-attachment trees on up to 30 nodes: lambda1(tree) is at
    most lambda1 of the leaning tree of order uh_min - 1 (plus float slack).
    Also reports how often the bound improves on the degree sandwich, and
    whether the improvement cases match the predictor uh + 1 < 2 * degree."""
    rng = random.Random(EMBEDDING_SEED)
    improved = 0
    predicted = 0
    predicted_and_improved = 0
    for _ in range(200):
        t = trees.random_plane_tree(rng.randint(2, 30), rng)
        lam = spectral.lambda1(t)
        uh = ulam_harris.uh_min(t).uh
        bound = spectral.leaning_eigen_bound(uh)
        if lam > bound + EMBEDDING_TOL:
            return CheckResult(
                "embedding-bound",
                "spectral",
                False,
                f"lambda1 {lam} exceeds leaning bound {bound} "
                f"(uh {uh}) on {trees.format_tree(t)!r}",
            )
        delta = trees.max_degree(t)
        degree_bound = spectral.stevanovic_bounds(delta)[1] if delta >= 2 else math.inf
        if bound < degree_bound:
            improved += 1
        if uh + 1 < 2 * delta:
            predicted += 1
            if bound < degree_bound:
                predicted_and_improved += 1
    return CheckResult(
        "embedding-bound",
        "spectral",
        True,
        f"bound holds on 200 trees; beats the degree bound on {improved}/200; "
        f"uh+1 < 2*degree predicted {predicted}, of which {predicted_and_improved} "
        "actually improved",
    )


def _spectral_checks() -> list[CheckResult]:
    return [
        _timed(check_eigen_anchors),
        _timed(check_degree_sandwich),
        _timed(check_degree_sandwich_offset_claim),
        _timed(check_growth_window),
        _timed(check_trace_agreement),
        _timed(check_embedding_bound),
    ]


# -------------------------------------------------------------------- uh --


def check_uh_exhaustive() -> CheckResult:
    """Greedy minimisation equals brute force on every shape with <= 8 nodes."""
    tested = 0
    for n in range(1, 9):
        for shape in ulam_harris.enumerate_unordered_shapes(n):
            greedy = ulam_harris.uh_min(shape)
            brute = ulam_harris.uh_min_bruteforce(shape)
            if greedy.uh != brute:
                return CheckResult(
                    "uh-exhaustive",
                    "uh",
                    False,
                    f"greedy {greedy.uh} != brute {brute} on {trees.format_tree(shape)!r}",
                )
            if ulam_harris.uh_ordered(greedy.witness).uh != greedy.uh:
                return CheckResult(
                    "uh-exhaustive",
                    "uh",
                    False,
                    f"witness does not reproduce uh on {trees.format_tree(shape)!r}",
                )
            tested += 1
    return CheckResult(
        "uh-exhaustive", "uh", True, f"greedy = brute on all {tested} shapes with <= 8 nodes"
    )


def check_uh_leaning() -> CheckResult:
    """Leaning trees of order k have Ulam-Harris number k+1, already minimal."""
    for k in range(0, 11):
        tree = trees.leaning_tree(k)
        if ulam_harris.uh_ordered(tree).uh != k + 1 or ulam_harris.uh_min(tree).uh != k + 1:
            return CheckResult("uh-leaning", "uh", False, f"mismatch at order {k}")
    return CheckResult("uh-leaning", "uh", True, "uh = order + 1 for orders 0..10")


def check_uh_degree_bound() -> CheckResult:
    """The Ulam-Harris number is at least the maximum degree (500 random trees)."""
    rng = random.Random(UH_DEGREE_SEED)
    for _ in range(500):
        t = trees.random_plane_tree(rng.randint(1, 30), rng)
        uh = ulam_harris.uh_min(t).uh
        if uh < trees.max_degree(t):
            return CheckResult(
                "uh-degree-bound",
                "uh",
                False,
                f"uh {uh} below degree {trees.max_degree(t)} on {trees.format_tree(t)!r}",
            )
    return CheckResult(
        "uh-degree-bound", "uh", True, "uh >= max degree on 500 random trees up to 30 nodes"
    )


def _uh_checks() -> list[CheckResult]:
    return [
        _timed(check_uh_exhaustive),
        _timed(check_uh_leaning),
        _timed(check_uh_degree_bound),
    ]


_SCOPE_RUNNERS = {
    "series": _series_checks,
    "bijection": _bijection_checks,
    "roots": _roots_checks,
    "spectral": _spectral_checks,
    "uh": _uh_checks,
}
