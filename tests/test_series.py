"""Series arithmetic and the three counting routes."""

import json
import sys
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planetrees import (
    LimitError,
    TruncatedSeries,
    count_trees,
    count_trees_by_compositions,
    count_trees_by_literal_compositions,
    count_with_root_label,
    gk_series,
    series_to_json,
    sk_series,
)
from planetrees import series
from planetrees.series import compositions


def naive_product(a, b):
    """Product of two truncated series by the schoolbook double loop, kept
    here so the round trips below do not check the engine against itself."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += ai * b[j]
    return tuple(out)


def invert_unit(coeffs):
    """The inverse modulo z^len(coeffs) of a series with constant term 1,
    from the division kernel."""
    assert coeffs[0] == 1
    return tuple(series._quotient((1,), [-c for c in coeffs[1:]], len(coeffs)))


def test_invert_geometric():
    assert invert_unit((1, -1, 0, 0, 0, 0)) == (1, 1, 1, 1, 1, 1)


def test_invert_identity():
    assert invert_unit((1, 0, 0, 0)) == (1, 0, 0, 0)


def test_invert_fibonacci():
    s = (1, -1, -1, 0, 0)
    inv = invert_unit(s)
    assert inv == (1, 1, 2, 3, 5)
    # multiply back: must be 1 modulo z^5
    assert naive_product(s, inv) == (1, 0, 0, 0, 0)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=10))
@settings(max_examples=200)
def test_invert_roundtrip_random_units(tail):
    s = (1, *tail)
    assert naive_product(s, invert_unit(s)) == (1,) + (0,) * len(tail)


@given(st.lists(st.integers(min_value=-(2**200), max_value=2**200), min_size=0, max_size=40))
@settings(max_examples=100)
def test_invert_roundtrip_big_coefficients(tail):
    s = (1, *tail)
    assert naive_product(s, invert_unit(s)) == (1,) + (0,) * len(tail)


@st.composite
def _divisions(draw):
    """(num, negated tail, order): a denominator shorter than, as long as or
    longer than the order, and a numerator up to longer than the order."""
    order = draw(st.integers(min_value=0, max_value=24))
    terms = draw(
        st.one_of(
            st.integers(min_value=1, max_value=max(order - 1, 1)),
            st.just(max(order, 1)),
            st.integers(min_value=order + 1, max_value=order + 8),
        )
    )
    coeff = st.integers(min_value=-(2**70), max_value=2**70)
    tail = draw(st.lists(coeff, min_size=terms - 1, max_size=terms - 1))
    num = draw(st.lists(coeff, max_size=order + 8))
    return num, tail, order


@given(_divisions())
@example(([], [], 0))
@example(([1], [], 3))
@example(([0, 1], [4], 1))
@example(([3, 1, 4, 1, 5, 9, 2, 6], [1, 1], 5))
@example(([1], [2, -7, 0, 4, -1, 8, 8], 3))
@settings(max_examples=200)
def test_quotient_times_denominator_is_the_numerator(division):
    num, tail, order = division
    quotient = series._quotient(num, tail, order)
    assert len(quotient) == order
    den = ([1] + [-t for t in tail] + [0] * order)[:order]
    assert naive_product(den, quotient) == tuple((num + [0] * order)[:order])


@given(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=64),
)
@example([5], 1)
@example([-3], 4)
@example([1, -1], 1)
@example([2, -7, 0, 4, -1], 3)
@settings(max_examples=200)
def test_poly_square_matches_poly_mul(p, order):
    assert series._poly_square(p, order) == series._poly_mul(p, p, order)


def test_gk_series_one_label():
    assert gk_series(1, 4).coeffs == (0, 1, 0, 0)
    assert gk_series(1, 1).coeffs == (0,)


def test_gk_series_two_labels():
    # one node: labels 1 or 2; n >= 2 nodes: the root must be 2, children all 1
    assert gk_series(2, 5).coeffs == (0, 2, 1, 1, 1)


def test_gk_series_three_labels():
    assert gk_series(3, 4).coeffs == (0, 3, 3, 6)


def test_sk_series_values():
    assert sk_series(1, 3).coeffs == (1, -1, 0)
    assert sk_series(2, 5).coeffs == (1, -2, -1, -1, -1)
    for k in range(1, 9):
        assert sk_series(k, 6).coeffs[0] == 1


def _complement(k, order):
    s = sk_series(k, order).coeffs
    return (1 - s[0],) + tuple(-c for c in s[1:])


def _rule_boundary(j):
    # the least order at which gk_series computes j + 1 labels rationally
    return -(-4 * 2**j // 3)


def _split_levels(monkeypatch):
    """Record the split label m of every gk_series call."""
    seen = []
    split = series._gk_series

    def spy(k, order, levels):
        seen.append(levels)
        return split(k, order, levels)

    monkeypatch.setattr(series, "_gk_series", spy)
    return seen


def test_both_ends_of_the_split_match_the_complement():
    # orders on both sides of the split rule 2^(m-1) <= 3 * order / 4 and of
    # the retired dispatch rules 2^(k-1) <= order and 4 * 2^(k-1) <= (k-1) * order
    orders = set(range(1, 41)) | {100, 400}
    orders |= {2**j + d for j in range(9) for d in (-1, 0, 1)} - {0}
    orders |= {_rule_boundary(j) + d for j in range(9) for d in (-1, 0)}
    for k in range(1, 11):
        inversions = series._gk_series(k, 400, 1).coeffs
        assert inversions == _complement(k, 400)
        boundary = -(-4 * 2 ** (k - 1) // (k - 1)) if k > 1 else 1
        for order in sorted(orders | {boundary - 1, boundary} - {0}):
            expected = inversions[:order]
            assert series._gk_series(k, order, k).coeffs == expected, (k, order)
            assert gk_series(k, order).coeffs == expected, (k, order)


def test_pure_rational_split_matches_compositions(monkeypatch):
    levels = _split_levels(monkeypatch)
    for n, k in ((1000, 3), (600, 6)):
        assert gk_series(k, n + 1).coeffs[n] == count_trees_by_compositions(n, k)
        assert levels.pop() == k  # the rule runs every label rationally here
        assert series._gk_series(k, n + 1, k).coeffs[n] == count_trees_by_compositions(n, k)


def test_split_label_follows_the_rule(monkeypatch):
    levels = _split_levels(monkeypatch)
    # many labels at small orders: rational up to m, inversions above
    for k, order, m in ((16, 120, 7), (24, 100, 7), (40, 60, 6), (8, 73, 6), (10, 201, 8)):
        assert gk_series(k, order).coeffs[order - 1] == count_trees_by_compositions(order - 1, k)
        assert levels.pop() == m, (k, order)
    for k, order, m in ((41, 101, 7), (10, 422, 9), (6, 451, 6), (8, 74, 6), (12, 600, 9), (5, 1, 1)):
        gk_series(k, order)
        assert levels.pop() == m, (k, order)
    for j in range(1, 9):
        gk_series(j + 2, _rule_boundary(j) - 1)
        gk_series(j + 2, _rule_boundary(j))
        assert levels[-2:] == [j, j + 1], j


_SPLIT_ORDERS = sorted(
    ({2**j + d for j in range(8) for d in (-1, 0, 1)} - {0})
    | {_rule_boundary(j) + d for j in range(8) for d in (-1, 0, 1)}
)


@given(st.integers(min_value=1, max_value=14), st.sampled_from(_SPLIT_ORDERS))
@example(14, 129)
@example(14, 172)
@example(1, 1)
@settings(max_examples=40, deadline=None)
def test_every_split_label_gives_the_same_series(k, order):
    expected = _complement(k, order)
    for levels in range(1, k + 1):
        assert series._gk_series(k, order, levels).coeffs == expected, levels


def test_split_at_twelve_labels_and_order_six_hundred():
    expected = _complement(12, 600)
    assert gk_series(12, 600).coeffs == expected
    for levels in (1, 12):
        assert series._gk_series(12, 600, levels).coeffs == expected, levels


def test_sk_is_complement_of_gk():
    for k in range(1, 9):
        g = gk_series(k, 30)
        s = sk_series(k, 30)
        assert tuple(a + b for a, b in zip(g.coeffs, s.coeffs)) == (1,) + (0,) * 29


def test_series_sign_invariants():
    for k in range(1, 8):
        g = gk_series(k, 20)
        assert g.coeffs[0] == 0
        assert all(c >= 0 for c in g.coeffs)
        s = sk_series(k, 20)
        assert all(c <= 0 for c in s.coeffs[1:])


def test_count_trees_anchors():
    assert count_trees(1, 1) == 1
    assert count_trees(5, 1) == 0
    assert count_trees(3, 3) == 6  # the path 3-2-1 plus five two-child stars
    assert [count_trees(1, k) for k in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert [count_trees(2, k) for k in range(2, 6)] == [1, 3, 6, 10]  # k(k-1)/2


def test_count_monotone_in_labels():
    for n in range(1, 10):
        for k in range(2, 8):
            assert count_trees(n, k) >= count_trees(n, k - 1)


def test_compositions_enumerator():
    assert list(compositions(0)) == [()]
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(8))) == 128  # 2^(n-1)


def test_count_by_compositions_basics():
    assert [count_trees_by_compositions(1, k) for k in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert count_trees_by_compositions(2, 2) == 1


def test_count_methods_agree():
    for n in range(1, 13):
        for k in range(1, 9):
            assert count_trees(n, k) == count_trees_by_compositions(n, k)
    # n = 1 and 2 are the edges of the convolution; at k = 24 count_trees
    # adds most labels by inversions, at k = 3 it runs them all rationally
    for n in (1, 2, 17, 60):
        for k in (3, 10, 24):
            assert count_trees(n, k) == count_trees_by_compositions(n, k)


def _record_routes(monkeypatch):
    """Record the route each count_trees call takes: the half-order read
    above the split, powering, or else the recurrence."""
    seen = []
    for name in ("_inverse_coefficient", "_nth_by_powering"):

        def spy(*args, _name=name, _route=getattr(series, name)):
            seen.append(_name)
            return _route(*args)

        monkeypatch.setattr(series, name, spy)
    return seen


def _route(n, k):
    """The route count_trees should take, from the split rule and the cost
    rule: about n d products by the recurrence against 2 d^2 log2(n) by
    powering, d = 2^(k-1) - 1."""
    if k > series._split_label(n + 1):
        return ["_inverse_coefficient"]
    d = 2 ** (k - 1) - 1
    return ["_nth_by_powering"] if 2 * d * d * n.bit_length() < n * d else []


def test_count_trees_matches_compositions_on_every_route(monkeypatch):
    routes = _record_routes(monkeypatch)
    for k in range(1, 9):
        # n = 1, 2 and two n, odd and even, on each side of every change of
        # route up to n = 700 (k = 2 and 3 switch back and forth near 2^j)
        changes = [n for n in range(2, 701) if _route(n, k) != _route(n - 1, k)]
        cells = {1, 2} | {m for n in changes for m in range(n - 2, n + 2)} - {0}
        for n in sorted(cells):
            del routes[:]
            assert count_trees(n, k) == count_trees_by_compositions(n, k), (n, k)
            assert routes == _route(n, k), (n, k)
        # k = 1 has one route; powering starts past n = 700 from k = 7
        taken = {tuple(_route(n, k)) for n in cells}
        assert len(taken) == (1 if k == 1 else 3 if k < 7 else 2), k


@given(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=30),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=45),
)
@example([], 0, 0)
@example([1], 0, 1)
@example([3, -1], 0, 2)
@example([2, 5, 0, 0], 0, 7)
@settings(max_examples=200)
def test_half_order_read_is_the_full_inverse(tail, zeros, n):
    tail = tail + [0] * zeros
    assert series._inverse_coefficient(tail, n) == series._quotient((1,), tail, n + 1)[n]


def test_powering_matches_the_recurrence():
    # from its least n, 2^(k-1) + 1, where the remainder needs no reduction
    for k in range(1, 9):
        least = 2 ** (k - 1) + 1
        expected = series._gk_series(k, least + 40, k).coeffs
        for n in range(least, least + 40):
            assert series._nth_by_powering(n, k) == expected[n], (n, k)
    for n, k in ((40000, 3), (4000, 6)):
        assert series._nth_by_powering(n, k) == series._gk_series(k, n + 1, k).coeffs[n], (n, k)


def test_count_literal_compositions():
    for n in range(1, 11):
        for k in range(1, 6):
            assert count_trees_by_literal_compositions(n, k) == count_trees(n, k)


def test_count_literal_guard():
    with pytest.raises(LimitError):
        count_trees_by_literal_compositions(13, 3)


def test_count_with_root_label():
    assert all(count_with_root_label(1, k) == 1 for k in range(1, 7))
    assert [count_with_root_label(2, k) for k in range(1, 7)] == [0, 1, 2, 3, 4, 5]
    assert count_with_root_label(3, 3) == 5
    # the root labels partition the family
    for n in range(1, 9):
        for k in range(1, 7):
            assert sum(count_with_root_label(n, j) for j in range(1, k + 1)) == count_trees(n, k)


def test_count_with_root_label_on_both_sides_of_the_split():
    # k - 1 labels at or below the split label read B/A, above it invert g
    # to half the order
    for n in [*range(1, 41), 100, 101]:
        split = series._split_label(n)
        for k in range(1, split + 4):
            expected = count_trees(n, k) - (count_trees(n, k - 1) if k > 1 else 0)
            assert count_with_root_label(n, k) == expected, (n, k)


def test_the_oracles_stay_off_the_chain_readers(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an independent route read the label chain")

    expected = (sk_series(9, 40).coeffs, count_trees_by_compositions(30, 9))
    for name in ("_rational_pairs", "_complement_inverse"):
        monkeypatch.setattr(series, name, forbidden)
    assert (sk_series(9, 40).coeffs, count_trees_by_compositions(30, 9)) == expected


def test_many_labels_at_order_four():
    # up to three nodes: one node takes any label, two a chain, and three
    # either a chain of three labels or a root j over two leaves below it,
    # sum_j (j - 1)^2 = (k - 1) k (2k - 1) / 6; at order 4 labels 3..k
    # are all added by inversions
    for k in (1, 2, 3, 7, 50, 10**4):
        expected = (0, k, comb(k, 2), comb(k, 3) + (k - 1) * k * (2 * k - 1) // 6)
        assert gk_series(k, 4).coeffs == expected, k
        assert sk_series(k, 4).coeffs == (1,) + tuple(-c for c in expected[1:]), k
        assert count_with_root_label(3, k) == comb(k - 1, 2) + (k - 1) ** 2, k


def test_parameter_validation():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            count_trees(bad, 2)
        with pytest.raises(ValueError):
            count_trees(2, bad)
        with pytest.raises(ValueError):
            gk_series(1, bad)


def read_series_json(text):
    """The coefficients of ``series_to_json`` text, read with the standard library."""
    return tuple(int(item) for item in json.loads(text))


def test_series_json_roundtrip():
    s = gk_series(3, 4)
    text = series_to_json(s)
    assert text == '["0","3","3","6"]'
    assert read_series_json(text) == s.coeffs


def test_series_json_preserves_big_integers():
    s = gk_series(4, 61)
    assert s.coeffs[60] > 10**30  # far beyond any fixed-width integer
    assert read_series_json(series_to_json(s)) == s.coeffs


def test_count_by_compositions_needs_no_recursion():
    # the default route is a bottom-up loop, so a thousand nodes do not
    # reach the interpreter's recursion limit
    assert count_trees_by_compositions(1000, 3) == count_trees(1000, 3)


def test_series_json_roundtrip_past_the_int_string_limit():
    big = 7 ** 6000  # 5071 decimal digits, over CPython's default 4300
    s = TruncatedSeries((1, big, -big))
    text = series_to_json(s)  # written under the default limit
    assert len(text) > 2 * 5000
    # CPython 3.11 and later limit int(text); lifted only to read the text back
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        assert read_series_json(text) == s.coeffs
    finally:
        set_limit(limit)
