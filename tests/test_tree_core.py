"""The shared-subtree tree core: one pass over the distinct labelled shapes.

``subtree_plan`` feeds node counts, maximum degrees, Ulam-Harris numbers,
eigenvalue pivots and first-return root walk counts.  Each is checked here
against a route that walks every logical vertex (or, for leaning trees, the
counting series), on uniform-attachment trees (labels all 1, or drawn from
1..3), paths, brooms and leaning trees.
"""

import hashlib
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
from planetrees import spectral, trees, ulam_harris
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


def labelled_tree(size, rng):
    # uniform attachment, as random_plane_tree, with every label drawn from 1..3
    kids = [[] for _ in range(size)]
    for i in range(1, size):
        kids[rng.randrange(i)].append(i)
    built = [None] * size
    for i in range(size - 1, -1, -1):
        built[i] = PlaneTree(rng.randint(1, 3), tuple([built[c] for c in kids[i]]))
    return built[0]


def shape_codes(t):
    """The canonical text of every non-leaf subtree of ``t`` and of ``t``
    itself, its children's texts sorted (the labelled form of the
    Aho-Hopcroft-Ullman tree codes), collected children first without
    recursion."""
    text, codes = {}, set()
    stack = [t]
    while stack:
        node = stack[-1]
        todo = [c for c in node.children if id(c) not in text]
        if todo:
            stack += todo
            continue
        stack.pop()
        if node.children:
            inner = " ".join(sorted(text[id(c)] for c in node.children))
            text[id(node)] = f"{node.label}({inner})"
        else:
            text[id(node)] = str(node.label)
        if node.children or node is t:  # a one-node tree's root is its plan
            codes.add(text[id(node)])
    return codes


@st.composite
def core_trees(draw):
    kind = draw(st.sampled_from(("uniform", "labelled", "path", "broom", "leaning")))
    if kind in ("uniform", "labelled"):
        size = draw(st.integers(min_value=1, max_value=300))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        build = random_plane_tree if kind == "uniform" else labelled_tree
        return build(size, random.Random(seed))
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
# the same, with one shape made of two distinct objects
@example(PlaneTree(1, (path(3), PlaneTree(1, (PlaneTree(1, (path(3),)),)))), 5)
@example(path(60), 12)  # objects deeper than the half-length are skipped
@example(PlaneTree(1, (PlaneTree(1),) * 30), 6)  # a star: one object, leaf children only
@example(leaning_tree(4), 0)
def test_first_return_root_counts_match_the_replay(t, half):
    table = walk_count_table(t, 2 * half)
    expected = [table[2 * m] for m in range(half + 1)]
    assert _root_walk_counts(subtree_plan(t), half) == expected
    if node_count(t) == 1:
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


@given(core_trees())
@settings(max_examples=60, deadline=None)
def test_plan_lists_each_labelled_shape_once(t):
    assert len(subtree_plan(t)) == len(shape_codes(t))


def test_plan_merges_equal_shapes_and_keeps_the_representatives_order():
    # the same labelled shape built twice, and with its children in another order
    a = parse_tree("4(2(1) 1 3(2 1))")
    b = parse_tree("4(3(2 1) 2(1) 1)")
    plan = subtree_plan(PlaneTree(5, (a, b, parse_tree("4(2(1) 1 3(1 2))"))))
    assert [(format_tree(node), leaves, kids) for node, leaves, kids in plan] == [
        ("2(1)", 1, []),
        ("3(2 1)", 2, []),
        ("4(2(1) 1 3(2 1))", 1, [0, 1]),  # the first met, in its own child order
        ("5(4(2(1) 1 3(2 1)) 4(3(2 1) 2(1) 1) 4(2(1) 1 3(1 2)))", 0, [2, 2, 2]),
    ]
    assert node_count(plan[-1][0]) == 22 and max_degree(plan[-1][0]) == 4


def test_plan_keeps_shapes_apart_that_differ_in_one_label():
    for text, entries in [
        ("5(2(1) 3(1) 2(1) 1)", ["2(1)", "3(1)"]),  # a node label
        ("5(2(1) 2(2) 2(1))", ["2(1)", "2(2)"]),  # a leaf label
        ("5(3(2 1) 3(1 1))", ["3(2 1)", "3(1 1)"]),  # one of several leaf labels
    ]:
        plan = subtree_plan(parse_tree(text))
        assert [format_tree(node) for node, _, _ in plan[:-1]] == entries
    # the witness carries the labels of every shape, 3(1) too
    assert format_tree(uh_min(parse_tree("5(2(1) 3(1) 2(1) 1)")).witness) == "5(2(1) 2(1) 3(1) 1)"


def decreasing_tree(size, rng):
    """Uniform attachment with decreasing labels of one to three digits:
    each child's label is 1 or 2 below its parent's, so shapes recur."""
    parent = [0] + [rng.randrange(i) for i in range(1, size)]
    depth = [0] * size
    for i in range(1, size):
        depth[i] = depth[parent[i]] + 1
    labels = [2 * max(depth) + rng.randint(1, 120)] + [0] * (size - 1)
    kids = [[] for _ in range(size)]
    for i in range(1, size):
        labels[i] = labels[parent[i]] - rng.randint(1, 2)
        kids[parent[i]].append(i)
    built = [None] * size
    for i in range(size - 1, -1, -1):
        built[i] = PlaneTree(labels[i], tuple([built[c] for c in kids[i]]))
    return built[0]


def same_plan(plan, other):
    """Entry for entry: the same representative objects, leaf counts and positions."""
    return [(id(node), leaves, kids) for node, leaves, kids in plan] == [
        (id(node), leaves, kids) for node, leaves, kids in other
    ]


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parse_plan_is_the_plan_of_the_parsed_tree(size, seed):
    t = decreasing_tree(size, random.Random(seed))
    tree, plan = trees.parse_plan(format_tree(t))
    assert tree == t and same_plan(plan, subtree_plan(tree))


def test_parse_plan_with_leading_zeros():
    for text in ["01", "01(1)", "3(02(1) 2(01) 002(0001))", "10(010(1) 9(09 9(1)) 010(01))"]:
        tree, plan = trees.parse_plan(text)
        assert tree == parse_tree(text) and same_plan(plan, subtree_plan(tree))
    # "1" and "01" are one label: one shape, whichever way its leaves are written
    assert len(trees.parse_plan("3(2(1) 2(01))")[1]) == 2


def test_parse_plan_of_a_deep_path_needs_no_recursion():
    depth = 5000
    text = "(".join(str(label) for label in range(depth, 0, -1)) + ")" * (depth - 1)
    tree, plan = trees.parse_plan(text)
    assert len(plan) == depth - 1 and same_plan(plan, subtree_plan(tree))
    assert format_tree(tree) == text


# sha256 of `eigen TREE --format json` and `uh TREE --format json` stdout: the
# uh digests recorded while the plan still listed each distinct subtree
# object, the eigen digests since the bracket takes regula-falsi points
PINNED_REPORTS = {
    ("random 1", "eigen"): "df6e4361a68e4b8ffe5e2b4b6a83fe0860c2f02b6f5ce077dd963a5a54061126",
    ("random 1", "uh"): "b1e514b578e42839c4b1d7d9199d2e53276345fa2d145dd7eb7b91b5d746213f",
    ("random 2", "eigen"): "66a357d248aeb5f2fe2c6acf566aa505b9b5835f1984bf8a418823a1a9a14234",
    ("random 2", "uh"): "6f19152be31eb30c09143aef082d53a3a43d1d88681d2c7a99b6171dc1518c27",
    ("random 3", "eigen"): "029e24c09910ac5ce2921ef1c45eb9d8eb83ec3da05c028bf36cc1043fc87da9",
    ("random 3", "uh"): "38fa9a2e097e4600b87c7fc6775e2ede4c58edddf4911218932e2278b867adaf",
    ("labelled", "eigen"): "9228878734806bb61d95dbb94338ca0cad9752536558dd84f9910ec172b9e34d",
    ("labelled", "uh"): "6d755bc4909167facba4a01dd96af4adc1d8d12fd64b60c4e5ec6dbe8bd9b0ab",
    ("path", "eigen"): "ac5622b58e723158dec6cefa7b2e0e83bc997e4c3ea7aae4ea47673c9b264d78",
    ("path", "uh"): "d5237baa46fd4369383dbabb0f797dab2b42914838dd14d7182e600ccb4ccccf",
}
#: lambda1 of the same eigen reports from plain bisection, before regula falsi
#: moved each value inside its certified bracket of width 1e-10
BISECTION_LAMBDA1 = {
    "random 1": 4.172840481494346,
    "random 2": 4.05178174399926,
    "random 3": 4.0122831056788515,
    "labelled": 2.188901059307682,
    "path": 1.9999975350497774,
}


def test_eigen_and_uh_reports_are_pinned(capsys):
    texts = {
        f"random {seed}": format_tree(random_plane_tree(2000, random.Random(seed)))
        for seed in (1, 2, 3)
    }
    texts["labelled"] = "5(2(1) 3(1) 2(1) 1)"
    texts["path"] = format_tree(path(2000))
    for (name, command), digest in PINNED_REPORTS.items():
        assert cli.main([command, texts[name], "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)
        if command == "eigen":
            assert abs(float(json.loads(out)["lambda1"]) - BISECTION_LAMBDA1[name]) <= 1e-10


def test_plan_lists_each_shared_object_once():
    for k in range(0, 25):
        t = leaning_tree(k)
        plan = subtree_plan(t)
        # the order-0 leaves are not listed, but the order-0 tree is its root
        assert len(plan) == max(k, 1) and plan[-1][0] is t
        assert [len(node.children) for node, _, _ in plan] == (list(range(1, k + 1)) or [0])
    # a child object repeated under one parent is listed once, positions repeated
    shared = PlaneTree(2, (PlaneTree(1),))
    plan = subtree_plan(PlaneTree(3, (shared, PlaneTree(1), shared)))
    assert [(format_tree(node), leaves, kids) for node, leaves, kids in plan] == [
        ("2(1)", 1, []),
        ("3(2(1) 1 2(1))", 1, [0, 0]),
    ]
    assert node_count(plan[-1][0]) == 6


def test_a_one_node_plan_is_its_root():
    for text in ("4", "04"):
        tree, plan = trees.parse_plan(text)
        assert plan == [(tree, 0, [])] and same_plan(plan, subtree_plan(tree))
    t = PlaneTree(4)
    plan = subtree_plan(t)
    assert plan == [(t, 0, [])] and plan[-1][0] is t
    assert trees.plan_node_count(plan) == 1 and trees.plan_max_degree(plan) == 0
    assert spectral.plan_lambda1_bracket(plan) == (0.0, 0.0) and spectral.plan_lambda1(plan) == 0.0
    assert ulam_harris.plan_uh_number(plan) == 1
    report = ulam_harris.plan_uh_min(plan)
    assert report.uh == 1 and format_tree(report.witness) == "4" and report.labels == (1,)
    for half in (1, 10, 40):
        assert spectral.plan_walk_growth(plan, half) == 0.0
        assert walk_growth_estimate(t, half) == 0.0
    # the tree-level wrappers read the same plan
    assert (node_count(t), max_degree(t), uh_number(t), uh_min(t).uh) == (1, 0, 1, 1)
    assert spectral.lambda1(t) == 0.0


def test_leaning_eigen_report_matches_the_counting_series(capsys):
    # eigen reads the walks W(2n) off 1/s_K and lambda1 off the chain's
    # root, so W(2n) is checked against count(n+1, K+1) - count(n+1, K),
    # the difference of two counting series, and lambda1 against uh_bound
    for k in range(0, 25):
        assert cli.main(["eigen", "--leaning", str(k), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == str(2**k)
        assert report["max_degree"] == str(k)
        assert report["uh"] == str(k + 1)
        assert report["lambda1"] == report["uh_bound"]
        if k == 0:
            assert "walk_growth" not in report
            continue
        half = int(report["walk_growth_halflen"])
        walks = count_trees(half + 1, k + 1) - count_trees(half + 1, k)
        expected = math.exp(math.log(walks) / (2 * half))
        assert abs(float(report["walk_growth"]) - expected) <= 1e-12 * expected


def test_leaning_eigen_report_calls_the_chain_root_once(capsys, monkeypatch):
    # lambda1 and uh_bound are the same leaning_lambda1(K) call whenever the
    # tolerances agree: without --tol, or with one at most 1e-10
    real = spectral.leaning_lambda1
    calls = []

    def counted(order, tol=1e-12):
        calls.append((order, tol))
        return real(order, tol)

    monkeypatch.setattr(spectral, "leaning_lambda1", counted)
    for options, expected in (([], [(12, 1e-10)]), (["--tol", "1e-12"], [(12, 1e-12)]),
                              (["--tol", "1e-6"], [(12, 1e-6), (12, 1e-10)])):
        calls.clear()
        assert cli.main(["eigen", "--leaning", "12", "--format", "json", *options]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == expected
        assert report["lambda1"] == repr(real(12, expected[0][1]))
        assert report["uh_bound"] == repr(real(12, expected[-1][1]))


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
    # (that budget is plan_walk_growth's; walk_growth_estimate has the default)
    routes = []
    replay, first_return = spectral._replay, spectral._root_walk_counts
    monkeypatch.setattr(spectral, "_replay", lambda *a: routes.append("replay") or replay(*a))
    monkeypatch.setattr(
        spectral, "_root_walk_counts", lambda *a: routes.append("first return") or first_return(*a)
    )
    cases = [
        (random_plane_tree(100, random.Random(7)), 80, None, "replay"),
        (path(2000), 10, None, "first return"),
        (path(100), 30, None, "first return"),
        (path(100), 30, 5000, "replay"),
    ]
    for t, half, budget, route in cases:
        count = walk_count_table(t, 2 * half)[2 * half]
        routes.clear()
        if budget is None:
            estimate = walk_growth_estimate(t, half)
        else:
            estimate = spectral.plan_walk_growth(subtree_plan(t), half, budget)
        assert routes == [route]
        assert estimate == math.exp(math.log(count) * (1.0 / (2 * half)))
