"""The shared-subtree tree core: one pass over the distinct subtree objects.

``subtree_plan`` feeds node counts, maximum degrees, Ulam-Harris numbers,
eigenvalue pivots and first-return root walk counts.  Each is checked here
against a route that walks every logical vertex (or, for leaning trees, the
counting series), on uniform-attachment trees, paths, brooms and leaning
trees.
"""

import json
import math
import random
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from planetrees import (
    PlaneTree,
    cli,
    count_trees,
    format_tree,
    leaning_tree,
    max_degree,
    node_count,
    parse_tree,
    random_plane_tree,
    subtree_plan,
    uh_min,
    uh_number,
    walk_count_table,
    walk_growth_estimate,
)
from planetrees import spectral
from planetrees.spectral import _root_walk_counts


def path(n):
    t = PlaneTree(1)
    for _ in range(n - 1):
        t = PlaneTree(1, (t,))
    return t


def broom(handle, bristles):
    # a path of ``handle`` nodes whose last node carries ``bristles`` leaves
    t = PlaneTree(1, (PlaneTree(1),) * bristles)
    for _ in range(handle - 1):
        t = PlaneTree(1, (t,))
    return t


def every_vertex(t):
    """(node count, maximum degree) by visiting every logical vertex."""
    count, best = 0, len(t.children)
    stack = [(t, True)]
    while stack:
        node, is_root = stack.pop()
        count += 1
        if not is_root:
            best = max(best, len(node.children) + 1)
        stack.extend((c, False) for c in node.children)
    return count, best


@st.composite
def core_trees(draw):
    kind = draw(st.sampled_from(("uniform", "path", "broom", "leaning")))
    if kind == "uniform":
        size = draw(st.integers(min_value=1, max_value=300))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return random_plane_tree(size, random.Random(seed))
    if kind == "path":
        return path(draw(st.integers(min_value=1, max_value=300)))
    if kind == "broom":
        return broom(draw(st.integers(1, 200)), draw(st.integers(0, 200)))
    return leaning_tree(draw(st.integers(min_value=0, max_value=12)))


@given(core_trees())
@settings(max_examples=60, deadline=None)
def test_plan_quantities_match_a_walk_over_every_vertex(t):
    assert (node_count(t), max_degree(t)) == every_vertex(t)


SHARED = path(3)


@given(core_trees(), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
# one object at depths 1 and 3: it must be solved to the terms depth 1 needs
@example(PlaneTree(1, (SHARED, PlaneTree(1, (PlaneTree(1, (SHARED,)),)))), 5)
@example(path(60), 12)  # objects deeper than the half-length are skipped
@example(PlaneTree(1, (PlaneTree(1),) * 30), 6)  # a star: one object, leaf children only
@example(leaning_tree(4), 0)
def test_first_return_root_counts_match_the_replay(t, half):
    table = walk_count_table(t, 2 * half)
    expected = [table[2 * m] for m in range(half + 1)]
    plan = subtree_plan(t)
    if plan:
        assert _root_walk_counts(plan, half) == expected
    else:
        assert expected == [1] + [0] * half  # a single vertex


@given(core_trees())
@settings(max_examples=60, deadline=None)
def test_uh_number_is_the_minimised_value(t):
    assert uh_number(t) == uh_min(t).uh


@given(core_trees())
@settings(max_examples=60, deadline=None)
def test_text_round_trip_on_deep_and_wide_trees(t):
    text = format_tree(t)
    again = parse_tree(text)
    assert format_tree(again) == text
    assert every_vertex(again) == every_vertex(t)


@given(core_trees())
@settings(max_examples=60, deadline=None)
def test_equality_and_hash_of_a_parsed_copy(t):
    copy = parse_tree(format_tree(t))
    assert copy == t and not copy != t
    assert hash(copy) == hash(t)


def test_deep_trees_compare_and_hash_without_recursion_errors():
    n = 2000
    text = "1(" * (n - 1) + "1" + ")" * (n - 1)
    a, b = parse_tree(text), parse_tree(text)
    assert a == b and hash(a) == hash(b)
    deepest_differs = parse_tree("1(" * (n - 1) + "2" + ")" * (n - 1))
    assert a != deepest_differs and not a == deepest_differs
    assert a != parse_tree("1(" * (n - 2) + "1" + ")" * (n - 2))  # one node shorter
    # the stored hashes are those of the recursive definition
    shallow = parse_tree("3(2(1) 1 2)")
    assert hash(shallow) == hash((3, shallow.children))
    assert hash(a.children[0]) == hash((1, a.children[0].children))


def test_plan_lists_each_shared_object_once():
    for k in range(0, 25):
        plan = subtree_plan(leaning_tree(k))
        assert len(plan) == k  # the order-0 leaves are not listed
        assert [len(node.children) for node, _, _ in plan] == list(range(1, k + 1))
    # a child object repeated under one parent is listed once, positions repeated
    shared = PlaneTree(2, (PlaneTree(1),))
    plan = subtree_plan(PlaneTree(3, (shared, PlaneTree(1), shared)))
    assert [(format_tree(node), leaves, kids) for node, leaves, kids in plan] == [
        ("2(1)", 1, []),
        ("3(2(1) 1 2(1))", 1, [0, 0]),
    ]
    assert node_count(plan[-1][0]) == 6


def test_leaning_eigen_report_matches_the_counting_series(capsys):
    # W(2n) = count(n+1, K+1) - count(n+1, K) is independent of both walk
    # engines; K >= 6 runs first return, smaller K the replay
    for k in range(0, 25):
        assert cli.main(["eigen", "--leaning", str(k), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == str(2**k)
        assert report["max_degree"] == str(k)
        assert report["uh"] == str(k + 1)
        if k == 0:
            assert "walk_growth" not in report
            continue
        half = int(report["walk_growth_halflen"])
        walks = count_trees(half + 1, k + 1) - count_trees(half + 1, k)
        expected = math.exp(math.log(walks) / (2 * half))
        assert abs(float(report["walk_growth"]) - expected) <= 1e-12 * expected


def test_leaning_24_eigen_report_takes_milliseconds(capsys):
    cli.main(["eigen", "--leaning", "1"])  # imports and first calls out of the timing
    start = time.perf_counter()
    code = cli.main(["eigen", "--leaning", "24"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and "nodes: 16777216" in out and "uh: 25" in out
    assert elapsed < 0.1


def test_walk_growth_picks_first_return_on_shared_trees():
    # the replay would touch 2^24 vertices and exceed its budget
    estimate = walk_growth_estimate(leaning_tree(24), 10)
    walks = count_trees(11, 25) - count_trees(11, 24)
    assert abs(estimate - walks ** (1 / 20)) <= 1e-12 * estimate


def test_walk_growth_dispatch_gives_the_replay_value(monkeypatch):
    # a 100-node uniform-attachment tree at half-length 80 takes the replay
    # under the cost rule, a 2000-node path at half-length 10 first return;
    # a 100-node path at half-length 30 would take first return, but its
    # work of 10,416 is over the budget of 5,000 that the replay's 3,100 fits
    routes = []
    replay, first_return = spectral._replay, spectral._root_walk_counts
    monkeypatch.setattr(spectral, "_replay", lambda *a: routes.append("replay") or replay(*a))
    monkeypatch.setattr(
        spectral, "_root_walk_counts", lambda *a: routes.append("first return") or first_return(*a)
    )
    default = spectral.WALK_WORK_LIMIT
    cases = [
        (random_plane_tree(100, random.Random(7)), 80, default, "replay"),
        (path(2000), 10, default, "first return"),
        (path(100), 30, 5000, "replay"),
    ]
    for t, half, budget, route in cases:
        count = walk_count_table(t, 2 * half)[2 * half]
        routes.clear()
        estimate = walk_growth_estimate(t, half, max_work=budget)
        assert routes == [route]
        assert estimate == math.exp(math.log(count) * (1.0 / (2 * half)))
