"""Root brackets, growth constants, and the derivative of the counting series."""

import hashlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from planetrees import (
    alpha_bounds,
    eval_gk_with_derivative,
    eval_sk,
    gk_series,
    growth_constants,
    zstar,
    zstar_lower_bound,
    zstar_upper_bound,
)
from planetrees import asymptotics, cli, leaning_lambda1
from planetrees.asymptotics import DEFAULT_ROOT_TOL, _chain

ROOT2 = (3.0 - math.sqrt(5.0)) / 2.0  # solves (1-z)^2 = z
ALPHA3 = (3.0 + math.sqrt(5.0)) / 2.0


def test_eval_sk_at_zero_and_small_z():
    for k in range(1, 12):
        assert eval_sk(0.0, k) == 1.0
    assert eval_sk(0.2, 1) == pytest.approx(0.8)


def test_eval_sk_beyond_root_sentinel():
    assert eval_sk(1.5, 7) is None
    assert eval_sk(0.5, 3) is None


def test_eval_sk_near_quadratic_root():
    # 1 - z - z/(1-z) in closed form is below 1e-8 in magnitude at a point
    # this close to the root
    for z in (0.3819660112, 0.3819660113):
        assert abs(1.0 - z - z / (1.0 - z)) < 1e-8
    # just below the root the chain still certifies positivity
    value = eval_sk(0.3819660112, 2)
    assert value is not None
    assert 0 < value < 1e-8
    # the rounded-up point lies a hair beyond the root, so the chain reports it
    assert eval_sk(0.3819660113, 2) is None


def test_lemma_value_bound_along_the_chain():
    for k in range(1, 51):
        value = eval_sk(1.0 / (2 * k), k)
        assert value is not None
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
    assert eval_sk(bracket.lo, 2) is not None
    assert eval_sk(bracket.hi, 2) is None


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
        assert _chain(zstar_lower_bound(k), k) > 0.0, k


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


def _certificate_points() -> list[tuple[float, int]]:
    """Every ``zstar`` end for k = 2..10 at four tolerances with its float
    neighbours two ulps out, and 300 seeded points a k within 1e-12
    relative of the root."""
    points = []
    for k in range(2, 11):
        for tol in (1e-9, 1e-12, 1e-16, 1e-20):
            bracket = zstar(k, tol)
            for end in (bracket.lo, bracket.hi):
                near = [end]
                for toward in (0.0, 1.0):
                    near.append(math.nextafter(end, toward))
                    near.append(math.nextafter(near[-1], toward))
                points += [(z, k) for z in near]
    rng = random.Random(2718)
    for k in range(2, 11):
        root = zstar(k, 1e-20).midpoint
        points += [(root * (1.0 + rng.uniform(-1e-12, 1e-12)), k) for _ in range(300)]
    return points


CERTIFICATE_POINTS = _certificate_points()


def test_fixed_point_certificate_gives_the_exact_verdict(monkeypatch):
    def unreachable(z, k):
        raise AssertionError(f"the fixed-point chain left z={z!r}, k={k} undecided")

    monkeypatch.setattr(asymptotics, "_chain_positive_exactly", unreachable)
    for z, k in CERTIFICATE_POINTS:
        assert asymptotics._chain_positive_certified(z, k) == _chain_positive(z, k), (z, k)


def test_fixed_point_certificate_falls_back_to_exact_rationals(monkeypatch):
    # with 4 fractional bits the float points do not fit, and near the roots
    # the sixteenths that do fit leave intervals straddling 0: both cases
    # must reach the exact check and keep its verdict
    undecided = []
    exactly = asymptotics._chain_positive_exactly
    monkeypatch.setattr(asymptotics, "_CERTIFICATE_BITS", 4)
    monkeypatch.setattr(
        asymptotics, "_chain_positive_exactly", lambda z, k: undecided.append(z) or exactly(z, k)
    )
    sixteenths = [(j / 16, k) for j in range(1, 16) for k in range(2, 11)]
    for z, k in CERTIFICATE_POINTS[::7] + sixteenths:
        assert asymptotics._chain_positive_certified(z, k) == _chain_positive(z, k), (z, k)
    assert any(z.as_integer_ratio()[1] > 16 for z in undecided)
    assert any(z.as_integer_ratio()[1] <= 16 for z in undecided)
    for k in range(2, 11):
        bracket = zstar(k, 1e-16)
        assert _chain_positive(bracket.lo, k) and not _chain_positive(bracket.hi, k), k


def test_small_k_roots_never_need_exact_rationals(monkeypatch):
    def unreachable(z, k):
        raise AssertionError(f"zstar({k}) reached the exact check at z={z!r}")

    monkeypatch.setattr(asymptotics, "_chain_positive_exactly", unreachable)
    for k in range(2, 11):
        for tolerance in ({}, {"tol": 1e-16}, {"tol": 1e-20}):
            zstar(k, **tolerance)


def test_every_small_k_root_is_certified(monkeypatch):
    # zstar, growth_constants and leaning_lambda1 share _root, which picks
    # one chain test per root: the fixed-point chain up to
    # EXACT_CERTIFICATE_MAX_K, where the float chain is never read, and the
    # float chain alone above.  A Newton root moved off by 1e-9 relative
    # makes _certify step outward and bisect, so those loops read the test too
    checked, floated = [], []
    certified, chain = asymptotics._chain_positive_certified, asymptotics._chain
    newton = asymptotics._newton
    monkeypatch.setattr(
        asymptotics, "_chain_positive_certified", lambda z, k: checked.append(k) or certified(z, k)
    )
    monkeypatch.setattr(asymptotics, "_chain", lambda z, k: floated.append(k) or chain(z, k))
    for shift in (0.0, 1e-9, -1e-9):
        monkeypatch.setattr(asymptotics, "_newton", lambda *args: newton(*args) * (1 + shift))
        reads = 2 if shift == 0.0 else 5
        for k in range(2, 13):
            small = k <= asymptotics.EXACT_CERTIFICATE_MAX_K
            roots = (lambda: zstar(k), lambda: growth_constants(k + 1), lambda: leaning_lambda1(k))
            for root in roots:
                checked.clear()
                floated.clear()
                root()
                used, unused = (checked, floated) if small else (floated, checked)
                assert len(used) >= reads and set(used) == {k} and not unused, (k, shift)
            if small:
                bracket = zstar(k, 1e-16)
                assert _chain_positive(bracket.lo, k) and not _chain_positive(bracket.hi, k), k


def test_small_k_brackets_meet_the_width_rule(monkeypatch):
    # every bracket that zstar, growth_constants and leaning_lambda1 take
    # from _root is at most max(width, 16 ulps) wide and passes the
    # fixed-point chain at lo, not at hi
    brackets = []
    root = asymptotics._root

    def recorded(k, width, **options):
        brackets.append((k, width, root(k, width, **options)))
        return brackets[-1][2]

    monkeypatch.setattr(asymptotics, "_root", recorded)
    for k in range(2, 11):
        for tol in (1e-6, 1e-12, 1e-16, 1e-20, 1e-30):
            brackets.clear()
            zstar(k, tol)
            growth_constants(k + 1, tol)
            leaning_lambda1(k, tol)
            assert [entry[0] for entry in brackets] == [k, k, k], (k, tol)
            for _, width, (lo, hi) in brackets:
                assert hi - lo <= max(width, 16 * math.ulp(hi)), (k, tol, width)
                assert asymptotics._chain_positive_certified(lo, k), (k, tol, width)
                assert not asymptotics._chain_positive_certified(hi, k), (k, tol, width)


def test_growth_constants_match_separate_bisections():
    # alpha and c come from the same root routine as zstar: alpha is the
    # reciprocal midpoint of a certified bracket no wider than tol * zlow^2,
    # and c the reciprocal derivative at the root
    for k in range(2, 60):
        for tol in (1e-12, 1e-9):
            growth, constant = growth_constants(k, tol)
            bracket = zstar(k - 1, tol * zstar_lower_bound(k - 1) ** 2)
            assert 1.0 / bracket.hi <= growth <= 1.0 / bracket.lo, (k, tol)
            assert abs(growth - 1.0 / bracket.midpoint) <= tol, (k, tol)
            derivative = eval_gk_with_derivative(bracket.midpoint, k - 1)[1]
            assert constant == pytest.approx(1.0 / derivative, rel=1e-12), (k, tol)
    with pytest.raises(ValueError):
        growth_constants(1)


def test_dual_derivative_matches_finite_differences():
    k = 4
    root = zstar(k).midpoint
    step = 1e-6
    for i in range(1, 11):
        z = root * i / 11.0
        derivative = eval_gk_with_derivative(z, k)[1]
        above, below = eval_gk_with_derivative(z + step, k), eval_gk_with_derivative(z - step, k)
        numeric = (above[0] - below[0]) / (2 * step)
        assert derivative == pytest.approx(numeric, rel=1e-5)


def test_growth_constants_are_pinned():
    # every digit: a reordered float operation in the derivative recurrence
    # or the root routine shows here; each value is within 1e-13 relative of
    # a 160-bit reference, alpha(3) = phi^2 correctly rounded
    assert repr(growth_constants(2)) == "(1.0, 1.0)"
    assert repr(growth_constants(3)) == "(2.618033988749895, 0.276393202250021)"
    assert repr(growth_constants(10)) == "(15.78702316756929, 0.021067625865843896)"
    assert repr(growth_constants(50)) == "(94.90299707881947, 0.0014656024981003282)"
    assert repr(growth_constants(245)) == "(484.0903956651321, 0.0001277522970891699)"


def _decimal_chain_positive(z, k: int) -> bool:
    """Whether s_1(z), ..., s_k(z) are all positive, with 50 significant
    digits (z a float, taken at its exact binary value, or a Decimal)."""
    with localcontext() as context:
        context.prec = 50
        z = Decimal(z)
        s = 1 - z
        if s <= 0:
            return False
        for _ in range(2, k + 1):
            s = s - z / s
            if s <= 0:
                return False
        return True


def _decimal_ck(k: int) -> Decimal:
    """1/g'_(k-1) at the root of s_(k-1), to about 40 digits: the root by
    bisection on the 50-digit chain, then the g' recurrence."""
    m = k - 1
    with localcontext() as context:
        context.prec = 50
        lo, hi = Decimal(0), Decimal(1)
        while hi - lo > Decimal("1e-42"):
            mid = (lo + hi) / 2
            if _decimal_chain_positive(mid, m):
                lo = mid
            else:
                hi = mid
        z = (lo + hi) / 2
        g, dg = z, Decimal(1)
        for _ in range(2, m + 1):
            denom = 1 - g
            g, dg = g + z / denom, dg + (1 + z * dg / denom) / denom
        return 1 / dg


def test_ck_matches_decimal_reference():
    for k in (3, 10, 50, 245):
        reference = _decimal_ck(k)
        assert abs(Decimal(growth_constants(k)[1]) / reference - 1) <= Decimal("1e-12"), k


def test_zstar_brackets_hold_under_a_decimal_chain():
    # above EXACT_CERTIFICATE_MAX_K the certificate is the float chain;
    # each end sits far enough from the root that 50 digits agree with it
    for tol in (1e-12, 1e-16):
        for k in range(2, 301):
            bracket = zstar(k, tol)
            assert _decimal_chain_positive(bracket.lo, k), (k, tol)
            assert not _decimal_chain_positive(bracket.hi, k), (k, tol)


def test_root_routine_takes_one_derivative_pass_per_root(monkeypatch):
    calls = {"derivative": 0, "chain": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(asymptotics, "_chain", counted("chain", asymptotics._chain))
    monkeypatch.setattr(
        asymptotics,
        "eval_gk_with_derivative",
        counted("derivative", asymptotics.eval_gk_with_derivative),
    )
    rows = range(2, 301)
    for k in rows:
        zstar(k)
    # one Newton step from the fitted seed, then one certificate check per end
    assert calls["derivative"] / len(rows) <= 1.1
    assert calls["chain"] / len(rows) <= 2.1
    calls.update(derivative=0, chain=0)
    for k in rows:
        growth_constants(k + 1)
    # the same, and c from one more derivative pass at the midpoint
    assert calls["derivative"] / len(rows) <= 2.1
    assert calls["chain"] / len(rows) <= 2.1
    # from k = 74 the default bracket is wide enough to centre on the seed:
    # no Newton, one certificate check per end
    for k in range(74, 301):
        calls.update(derivative=0, chain=0)
        zstar(k)
        assert calls == {"derivative": 0, "chain": 2}, k
    # c is read at the Newton root, and tight or leaning widths miss the gate
    for run in (
        lambda: growth_constants(301),
        lambda: growth_constants(301, 1e-3),
        lambda: zstar(300, 1e-20),
        lambda: leaning_lambda1(1500),
    ):
        calls.update(derivative=0, chain=0)
        run()
        assert calls["derivative"] >= 1


def test_newton_seed_is_close_to_a_decimal_root():
    # the root of s_k lies in seed * (1 -/+ _SEED_ERROR) under a 50-digit
    # chain: the envelope that lets _root centre a bracket on the seed
    assert asymptotics._SEED_ERROR == 1.8e-11
    envelope = Decimal(asymptotics._SEED_ERROR)
    far = [500, 1000, 2718, 3000, 10**4, 31416, 10**5]
    for k in [*range(asymptotics._SEED_ERROR_MIN_K, 401), *far]:
        seed = Decimal(asymptotics._seed(k))
        assert _decimal_chain_positive(seed * (1 - envelope), k), k
        assert not _decimal_chain_positive(seed * (1 + envelope), k), k


@pytest.mark.parametrize("error", [1e-9, -1e-9])
def test_seed_centred_brackets_survive_a_wrong_seed(monkeypatch, error):
    # _certify steps a rejected end outward and bisects, so a seed off by
    # 50 times its envelope still yields correct brackets of the width asked
    seed = asymptotics._seed
    monkeypatch.setattr(asymptotics, "_seed", lambda k: seed(k) * (1 + error))
    for k in range(50, 301):
        bracket = zstar(k)
        assert bracket.width <= DEFAULT_ROOT_TOL, k
        assert _decimal_chain_positive(bracket.lo, k), k
        assert not _decimal_chain_positive(bracket.hi, k), k


#: sha256 of the stdout of commands whose brackets the seed-centred gate must
#: leave alone: rows below k = 74, tight widths, alpha (c at the Newton
#: root) and the leaning eigenvalue, as printed before the gate existed
PINNED_ROOT_REPORTS = {
    "root 73": "c08e41a5c64677a6d584429d467438c3f7eea588bb72b98f514570df9e073bcb",
    "root 300 --tol 1e-20": "eaa04971f9b6dcab987393d40534f0095d4e255d2e5ab0645b5029a271f7dab3",
    "alpha 300": "b278ac617c28c592e52eb692eb2ca6d3d6879e2fea0d8c380b0758bc638dff61",
    "eigen --leaning 2000": "243de1120f6e364c243bafcd03ce4d74051a62e07939f40c3b2fb88c68aa255a",
}


def test_reports_outside_the_seed_gate_are_pinned(capsys):
    for command, digest in PINNED_ROOT_REPORTS.items():
        assert cli.main([*command.split(), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_eval_gk_matches_series_partial_sums():
    z = 0.05
    g = gk_series(4, 60)
    partial = sum(c * z**i for i, c in enumerate(g.coeffs))
    assert eval_gk_with_derivative(z, 4)[0] == pytest.approx(partial, rel=1e-12)


def test_eval_gk_rejects_pole():
    with pytest.raises(ValueError):
        eval_gk_with_derivative(0.9, 3)  # beyond the first chain root


def test_alpha_values():
    assert growth_constants(2)[0] == pytest.approx(1.0, abs=1e-12)
    assert growth_constants(3)[0] == pytest.approx(ALPHA3, abs=1e-9)
    with pytest.raises(ValueError):
        growth_constants(1)


def test_alpha_bounds_values_and_containment():
    lower, upper = alpha_bounds(2)
    assert upper == pytest.approx(1.0)
    assert lower <= 1.0 <= upper
    lower, upper = alpha_bounds(3)
    assert upper == pytest.approx(1.0 / (2 - math.sqrt(3)))
    assert lower <= ALPHA3 <= upper
    for k in range(2, 51):
        lower, upper = alpha_bounds(k)
        assert lower <= growth_constants(k)[0] <= upper


def test_ck_values():
    assert growth_constants(2)[1] == pytest.approx(1.0, abs=1e-9)
    closed_form = 1.0 / (1.0 + 1.0 / (1.0 - ROOT2) ** 2)
    assert closed_form == pytest.approx(0.2763932, abs=1e-7)
    assert growth_constants(3)[1] == pytest.approx(closed_form, abs=1e-9)


def test_ck_matches_series_ratio():
    a3, c3 = growth_constants(3)
    ratio = gk_series(3, 61).coeffs[60] / a3**60
    assert c3 == pytest.approx(ratio, abs=1e-6)


def test_ratio_convergence_to_alpha():
    for k in (2, 3, 4):
        g = gk_series(k, 82)
        ratio = g.coeffs[81] / g.coeffs[80]
        assert abs(ratio - growth_constants(k)[0]) < 1e-6


def test_counts_below_reciprocal_root_power():
    for k in range(1, 7):
        hi = zstar(k).hi
        g = gk_series(k, 41)
        for n in range(1, 41):
            assert g.coeffs[n] <= (1.0 / hi) ** n


def test_growth_law_numerically():
    # counts ~ c * alpha^n: check the ratio flattens out for k = 3
    a3, c3 = growth_constants(3)
    g = gk_series(3, 61)
    for n in (40, 50, 60):
        assert g.coeffs[n] / a3**n == pytest.approx(c3, abs=1e-4)
