"""Ulam-Harris numbers: labelling rule, greedy minimisation, brute force."""

import random

import pytest

from planetrees import (
    LimitError,
    PlaneTree,
    format_tree,
    leaning_tree,
    max_degree,
    parse_tree,
    random_plane_tree,
    uh_min,
    uh_min_bruteforce,
    uh_ordered,
)
from planetrees import ulam_harris, verify
from planetrees.ulam_harris import _preorder_labels, unordered_shape_levels


def chain(length):
    t = PlaneTree(1)
    for _ in range(length - 1):
        t = PlaneTree(1, (t,))
    return t


def star(leaves):
    return PlaneTree(1, tuple(PlaneTree(1) for _ in range(leaves)))


def test_single_node():
    t = PlaneTree(1)
    assert uh_ordered(t).uh == 1
    assert uh_min(t).uh == 1
    assert uh_min_bruteforce(t) == 1


def test_star_labels():
    report = uh_ordered(star(4))
    assert report.uh == 5
    assert report.labels == (1, 2, 3, 4, 5)
    assert uh_min(star(2)).uh == 3  # both orderings give max(2, 3)


def test_chain_is_labelled_consecutively():
    for m in range(1, 9):
        report = uh_min(chain(m))
        assert report.uh == m
        assert report.labels == tuple(range(1, m + 1))


def test_leaning_trees_attain_order_plus_one():
    for k in range(0, 11):
        t = leaning_tree(k)
        assert uh_ordered(t).uh == k + 1
        assert uh_min(t).uh == k + 1


def test_input_labels_are_ignored():
    a = parse_tree("9(5 1)")
    b = parse_tree("1(1 1)")
    assert uh_min(a).uh == uh_min(b).uh == 3


def test_witness_reproduces_the_minimum():
    rng = random.Random(11)
    for _ in range(100):
        t = random_plane_tree(rng.randint(1, 20), rng)
        report = uh_min(t)
        assert uh_ordered(report.witness).uh == report.uh
        assert report.labels[0] == 1
        assert max(report.labels) == report.uh


def with_decreasing_labels(t, rng):
    """``t`` relabelled at random so that labels decrease away from the root,
    many of them 10 or more."""

    def height(node):
        return 1 + max((height(c) for c in node.children), default=0)

    def relabel(node, cap):
        label = rng.randint(height(node), cap)
        return PlaneTree(label, tuple(relabel(c, label - 1) for c in node.children))

    return relabel(t, height(t) + rng.randint(0, 20))


def test_uh_agrees_with_the_labels():
    # uh is read off the plan values and the internal nodes, not the labels
    rng = random.Random(53)
    trees = [with_decreasing_labels(random_plane_tree(rng.randint(1, 40), rng), rng) for _ in range(200)]
    assert sum(t.label >= 10 for t in trees) >= 50  # the root label is the largest
    path = PlaneTree(1)
    for label in range(2, 2001):
        path = PlaneTree(label, (path,))
    for t in trees + [path]:
        ordered = uh_ordered(t)
        assert ordered.uh == max(ordered.labels)
        report = uh_min(t)
        assert report.uh == uh_ordered(report.witness).uh == max(report.labels)
    assert uh_min(path).uh == 2000


def test_witness_pin_with_nested_ties_and_two_digit_labels():
    # ties at two nested levels, among leaves and among non-leaf shapes,
    # broken by bracket text, so "10" and "20(" sort before "2" and "3("
    report = uh_min(parse_tree("12(3(2(10 3) 10(2 11) 10 2) 20(10(2 11) 2(10 3) 5 12) 7 10 2)"))
    assert report.uh == 7
    assert format_tree(report.witness) == "12(20(10(11 2) 2(10 3) 12 5) 3(10(11 2) 2(10 3) 10 2) 10 2 7)"
    assert report.labels == (1, 2, 3, 4, 5, 4, 5, 6, 5, 6, 3, 4, 5, 6, 5, 6, 7, 6, 7, 4, 5, 6)


def test_shape_enumeration_counts():
    # rooted unordered trees on n nodes
    assert [len(unordered_shape_levels(n)[-1]) for n in range(1, 9)] == [
        1, 1, 2, 4, 9, 20, 48, 115,
    ]
    shapes = unordered_shape_levels(5)[-1]
    assert len({format_tree(s) for s in shapes}) == len(shapes)


def test_shape_levels_are_every_catalog_level_from_one_build(monkeypatch):
    levels = unordered_shape_levels(8)
    assert [len(level) for level in levels] == [1, 1, 2, 4, 9, 20, 48, 115]
    for n, level in enumerate(levels, start=1):
        assert level == unordered_shape_levels(n)[-1]
    # the verify row takes its 200 shapes from one build of the levels
    calls = []
    original = unordered_shape_levels

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(verify.ulam_harris, "unordered_shape_levels", counted)
    ok, detail = verify.check_uh_exhaustive()
    assert ok and detail == "greedy = brute on all 200 shapes with <= 8 nodes"
    assert calls == [8]


def test_greedy_equals_bruteforce_exhaustively():
    for shapes in unordered_shape_levels(8):
        for shape in shapes:
            assert uh_min(shape).uh == uh_min_bruteforce(shape), format_tree(shape)


def test_bruteforce_guard(monkeypatch):
    assert uh_min_bruteforce(chain(9)) == 9
    with pytest.raises(LimitError, match="limited to 9 nodes"):
        uh_min_bruteforce(chain(10))
    # the cap is read on each call
    monkeypatch.setattr(ulam_harris, "BRUTEFORCE_NODE_LIMIT", 10)
    assert uh_min_bruteforce(chain(10)) == 10


def test_exchange_argument_soundness():
    # any shuffle of the children scores at least the greedy descending order
    rng = random.Random(23)
    for _ in range(200):
        values = [rng.randint(1, 12) for _ in range(rng.randint(1, 7))]
        greedy = max(
            pos + val for pos, val in enumerate(sorted(values, reverse=True), start=1)
        )
        rng.shuffle(values)
        shuffled = max(pos + val for pos, val in enumerate(values, start=1))
        assert greedy <= shuffled


def test_uh_dominates_maximum_degree():
    rng = random.Random(31)
    for _ in range(300):
        t = random_plane_tree(rng.randint(1, 30), rng)
        uh = uh_min(t).uh
        assert uh >= max_degree(t)
        if uh > 1:
            # the sharper fact: a node's own label already exceeds 1, so the
            # bound holds with a full unit to spare
            assert uh >= max_degree(t) + 1


def test_min_never_exceeds_any_ordering():
    rng = random.Random(47)
    for _ in range(100):
        t = random_plane_tree(rng.randint(1, 12), rng)
        assert uh_min(t).uh <= uh_ordered(t).uh


def reference_labels(t):
    # one (node, label) pair per node on the stack, the last child stacked first
    labels = []
    stack = [(t, 1)]
    while stack:
        node, label = stack.pop()
        labels.append(label)
        kids = node.children
        stack.extend(zip(reversed(kids), range(label + len(kids), label, -1)))
    return tuple(labels)


def reference_uh(t):
    # the maximum of label + child count over the internal nodes
    uh = 1
    stack = [(t, 1)]
    while stack:
        node, label = stack.pop()
        uh = max(uh, label + len(node.children))
        stack.extend((c, label + i) for i, c in enumerate(node.children, 1))
    return uh


def test_label_walks_match_reference_walks():
    rng = random.Random(2311)
    cases = [random_plane_tree(rng.randint(1, 3000), rng) for _ in range(40)]
    cases += [chain(20_000), star(20_000), leaning_tree(12)]
    for t in cases:
        assert _preorder_labels(t) == reference_labels(t)
        assert uh_ordered(t).uh == reference_uh(t)
