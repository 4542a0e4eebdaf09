"""Root brackets, growth constants, and the derivative of the counting series."""

import math
from fractions import Fraction

import pytest

from planetrees import (
    BeyondRoot,
    alpha,
    alpha_bounds,
    ck,
    eval_gk,
    eval_gk_with_derivative,
    eval_sk,
    gk_series,
    growth_constants,
    zstar,
    zstar_lower_bound,
    zstar_upper_bound,
)
from planetrees.asymptotics import DEFAULT_ROOT_TOL, _chain

ROOT2 = (3.0 - math.sqrt(5.0)) / 2.0  # solves (1-z)^2 = z
ALPHA3 = (3.0 + math.sqrt(5.0)) / 2.0


def test_eval_sk_at_zero_and_small_z():
    for k in range(1, 12):
        assert eval_sk(0.0, k) == 1.0
    assert eval_sk(0.2, 1) == pytest.approx(0.8)


def test_eval_sk_beyond_root_sentinel():
    out = eval_sk(1.5, 7)
    assert isinstance(out, BeyondRoot) and out.index == 1
    out = eval_sk(0.5, 3)
    assert isinstance(out, BeyondRoot)
    assert 1 < out.index <= 3


def test_eval_sk_near_quadratic_root():
    # 1 - z - z/(1-z) in closed form is below 1e-8 in magnitude at a point
    # this close to the root
    for z in (0.3819660112, 0.3819660113):
        assert abs(1.0 - z - z / (1.0 - z)) < 1e-8
    # just below the root the chain still certifies positivity
    value = eval_sk(0.3819660112, 2)
    assert not isinstance(value, BeyondRoot)
    assert 0 < value < 1e-8
    # the rounded-up point lies a hair beyond the root, so the chain reports it
    beyond = eval_sk(0.3819660113, 2)
    assert isinstance(beyond, BeyondRoot) and beyond.index == 2


def test_lemma_value_bound_along_the_chain():
    for k in range(1, 51):
        value = eval_sk(1.0 / (2 * k), k)
        assert not isinstance(value, BeyondRoot)
        assert value <= (1.0 / (4 * k)) ** 0.25 + 1e-12


def test_bound_formulas():
    assert zstar_lower_bound(1) == 1.0
    assert zstar_lower_bound(2) == pytest.approx(2 - math.sqrt(3))
    assert zstar_upper_bound(2) == pytest.approx(0.6166803, abs=1e-6)
    assert zstar_upper_bound(1) == pytest.approx(1.7071067811865475)


def test_zstar_exact_for_one_label():
    bracket = zstar(1)
    assert bracket.lo == bracket.hi == 1.0


def test_zstar_quadratic_root():
    bracket = zstar(2)
    assert abs(bracket.midpoint - ROOT2) < 1e-10
    assert bracket.width <= 1e-12
    # the bracket endpoints certify the sign change
    assert not isinstance(eval_sk(bracket.lo, 2), BeyondRoot)
    assert isinstance(eval_sk(bracket.hi, 2), BeyondRoot)


def test_zstar_brackets_inside_proved_bounds():
    previous = None
    for k in range(1, 51):
        bracket = zstar(k)
        assert bracket.lo >= zstar_lower_bound(k) - 1e-15
        assert bracket.hi <= zstar_upper_bound(k) + 1e-15
        if previous is not None:
            assert bracket.midpoint <= previous + 1e-15  # nonincreasing
        previous = bracket.midpoint


def test_zstar_respects_requested_width():
    for tol in (1e-6, 1e-9, 1e-12):
        assert zstar(5, tol).width <= tol


def test_lower_seed_keeps_the_chain_positive_at_large_k():
    # k - sqrt(k^2 - 1) cancels: from about k = 3.5e5 it lands past the root
    for k in (2, 10, 10**3, 10**4, 10**5, 3 * 10**5, 35 * 10**4, 5 * 10**5, 10**6):
        assert _chain(zstar_lower_bound(k), k)[1] > 0.0, k


def test_zstar_at_a_million_labels():
    k = 10**6
    bracket = zstar(k)
    assert zstar_lower_bound(k) <= bracket.lo < bracket.hi <= zstar_upper_bound(k)
    assert bracket.width <= DEFAULT_ROOT_TOL


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_root_bisections_reject_bad_tolerance(tol):
    with pytest.raises(ValueError):
        zstar(5, tol)
    with pytest.raises(ValueError):
        growth_constants(5, tol)
    with pytest.raises(ValueError):
        alpha(5, tol)


def _chain_positive(z: float, k: int) -> bool:
    z = Fraction(z)
    s = 1 - z
    for _ in range(k - 1):
        if s <= 0:
            return False
        s = s - z / s
    return s > 0


def test_zstar_brackets_are_certified_exactly():
    # in float arithmetic the chain misjudges points within a few ulps of
    # the root; the bracket must still hold in exact arithmetic
    for k in range(2, 11):
        for tol in (1e-12, 1e-16, 1e-20):
            bracket = zstar(k, tol)
            assert _chain_positive(bracket.lo, k), (k, tol)
            assert not _chain_positive(bracket.hi, k), (k, tol)
            assert bracket.width <= max(tol, 16 * math.ulp(bracket.hi)), (k, tol)


def test_growth_constants_match_separate_bisections():
    for k in range(2, 60):
        for tol in (1e-12, 1e-9):
            coarse = zstar(k - 1, 1e-6)
            width = min(1e-12, tol * coarse.lo**2)
            root = zstar(k - 1, min(tol, 1e-12))
            derivative = eval_gk_with_derivative(root.midpoint, k - 1)[1]
            expected = (1.0 / zstar(k - 1, width).midpoint, 1.0 / derivative)
            assert growth_constants(k, tol) == expected == (alpha(k, tol), ck(k, tol))
    with pytest.raises(ValueError):
        growth_constants(1)


def test_dual_derivative_matches_finite_differences():
    k = 4
    root = zstar(k).midpoint
    step = 1e-6
    for i in range(1, 11):
        z = root * i / 11.0
        derivative = eval_gk_with_derivative(z, k)[1]
        numeric = (eval_gk(z + step, k) - eval_gk(z - step, k)) / (2 * step)
        assert derivative == pytest.approx(numeric, rel=1e-5)


def test_growth_constants_are_pinned():
    # every digit: a reordered float operation in the derivative recurrence
    # or the bisection shows here
    assert repr(growth_constants(2)) == "(1.0, 1.0)"
    assert repr(growth_constants(3)) == "(2.6180339887498794, 0.27639320224999386)"
    assert repr(growth_constants(10)) == "(15.787023167569219, 0.021067625865619388)"
    assert repr(growth_constants(50)) == "(94.90299707881988, 0.0014656024976127898)"
    assert repr(growth_constants(245)) == "(484.0903956651321, 0.00012775229494714762)"


def test_eval_gk_matches_series_partial_sums():
    z = 0.05
    g = gk_series(4, 60)
    partial = sum(c * z**i for i, c in enumerate(g.coeffs))
    assert eval_gk(z, 4) == pytest.approx(partial, rel=1e-12)


def test_eval_gk_rejects_pole():
    with pytest.raises(ValueError):
        eval_gk(0.9, 3)  # beyond the first chain root


def test_alpha_values():
    assert alpha(2) == pytest.approx(1.0, abs=1e-12)
    assert alpha(3) == pytest.approx(ALPHA3, abs=1e-9)
    with pytest.raises(ValueError):
        alpha(1)


def test_alpha_bounds_values_and_containment():
    lower, upper = alpha_bounds(2)
    assert upper == pytest.approx(1.0)
    assert lower <= 1.0 <= upper
    lower, upper = alpha_bounds(3)
    assert upper == pytest.approx(1.0 / (2 - math.sqrt(3)))
    assert lower <= ALPHA3 <= upper
    for k in range(2, 51):
        lower, upper = alpha_bounds(k)
        assert lower <= alpha(k) <= upper


def test_ck_values():
    assert ck(2) == pytest.approx(1.0, abs=1e-9)
    closed_form = 1.0 / (1.0 + 1.0 / (1.0 - ROOT2) ** 2)
    assert closed_form == pytest.approx(0.2763932, abs=1e-7)
    assert ck(3) == pytest.approx(closed_form, abs=1e-9)


def test_ck_matches_series_ratio():
    a3 = alpha(3)
    ratio = gk_series(3, 61).coeffs[60] / a3**60
    assert ck(3) == pytest.approx(ratio, abs=1e-6)


def test_ratio_convergence_to_alpha():
    for k in (2, 3, 4):
        g = gk_series(k, 82)
        ratio = g.coeffs[81] / g.coeffs[80]
        assert abs(ratio - alpha(k)) < 1e-6


def test_counts_below_reciprocal_root_power():
    for k in range(1, 7):
        hi = zstar(k).hi
        g = gk_series(k, 41)
        for n in range(1, 41):
            assert g.coeffs[n] <= (1.0 / hi) ** n


def test_growth_law_numerically():
    # counts ~ ck * alpha^n: check the ratio flattens out for k = 3
    c3 = ck(3)
    a3 = alpha(3)
    g = gk_series(3, 61)
    for n in (40, 50, 60):
        assert g.coeffs[n] / a3**n == pytest.approx(c3, abs=1e-4)
