"""Acceptance suite: one test per advertised guarantee, pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.  The same registry rows back the command line's ``verify``
subcommand and run through the same runner, so their budgets apply here too;
each one is asserted with its detail message.

One deliberately strict variant is expected to fail and is marked xfail
(strict): it asserts the degree sandwich on leaning trees with the degree
taken as order + 1.  The scanned maximum degree of the order-k leaning tree
is k (the root has k children, and the deepest-order child has k-1 children
plus its parent edge), so with the off-by-one degree the lower bound
sqrt(3) already exceeds the order-2 eigenvalue, the golden ratio.
"""

import math

import pytest

from planetrees import lambda1, leaning_tree, stevanovic_bounds, verify


ROWS = {row.name: row for row in verify.CHECKS}


def run_criterion(number, label, names):
    results = [verify.run_check(ROWS[name]) for name in names]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"ACCEPTANCE criterion {number} ({label}/{result.name}): {status} - {result.detail}")
    bad = [r for r in results if not r.passed]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)


def test_criterion_1_exact_count_triple_agreement():
    run_criterion(1, "counting", ["count-triple-agreement"])


def test_criterion_2_walk_count_identity():
    run_criterion(2, "bijection-counts", ["walk-count-identity"])


def test_criterion_3_bijection_roundtrips():
    run_criterion(3, "bijection-roundtrips", ["roundtrip-walks", "roundtrip-trees", "image-match"])


def test_criterion_4_root_brackets():
    run_criterion(4, "roots", ["root-brackets"])


def test_criterion_5_growth_constants():
    run_criterion(5, "growth", ["growth-constants", "alpha-in-bounds", "count-upper-bound"])


def test_criterion_6_eigen_anchors():
    run_criterion(6, "spectra", ["eigen-anchors"])


def test_criterion_6_degree_sandwich_scanned_degree():
    run_criterion(6, "spectra", ["degree-sandwich"])


@pytest.mark.xfail(
    strict=True,
    reason="the maximum degree of the order-k leaning tree is k, not k+1; "
    "with degree k+1 the lower bound sqrt(3) = 1.732 exceeds the order-2 "
    "eigenvalue (1+sqrt(5))/2 = 1.618, so this variant is false",
)
def test_criterion_6_degree_sandwich_offset_degree():
    for k in range(2, 13):
        lam = lambda1(leaning_tree(k))
        low, high = stevanovic_bounds(k + 1)
        assert low - 1e-8 <= lam <= high + 1e-8, (k, low, lam, high)


def test_criterion_6_growth_window_and_trace():
    run_criterion(6, "spectra", ["eigen-growth-window", "trace-agreement"])


def test_criterion_7_ulam_harris():
    run_criterion(7, "ulam-harris", ["uh-exhaustive", "uh-leaning", "uh-degree-bound"])


def test_criterion_8_embedding_bound():
    # the detail carries the improvement report (reported, not asserted)
    run_criterion(8, "embedding", ["embedding-bound"])


def test_criterion_9_ratio_convergence():
    run_criterion(9, "growth-rate", ["ratio-convergence"])


def test_offset_degree_claim_is_reported_not_asserted():
    # the harness carries the order+1 variant as an advisory record whose
    # failure names the golden-ratio counterexample and never flips the verdict
    result = verify.run_check(ROWS["degree-sandwich-offset-claim"])
    assert result.advisory
    assert not result.passed
    assert "order 2" in result.detail
    assert math.isclose(
        lambda1(leaning_tree(2)), (1 + math.sqrt(5)) / 2, abs_tol=1e-9
    )
