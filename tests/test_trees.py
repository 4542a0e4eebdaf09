"""Plane tree representation, text format, leaning trees, enumeration."""

import math
import random
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (
    LimitError,
    PlaneTree,
    TreeParseError,
    count_trees,
    count_trees_by_enumeration,
    format_tree,
    is_decreasing,
    iter_decreasing_trees,
    leaning_tree,
    max_degree,
    node_count,
    parse_tree,
    random_plane_tree,
)
from planetrees import bijection, trees
from planetrees.series import count_with_root_label
from planetrees.trees import ENUMERATION_TREE_LIMIT


def test_format_leaf_and_nested():
    assert format_tree(PlaneTree(5)) == "5"
    t = PlaneTree(3, (PlaneTree(2, (PlaneTree(1),)), PlaneTree(1)))
    assert format_tree(t) == "3(2(1) 1)"


def test_parse_roundtrip_simple():
    for text in ("5", "3(2(1) 1)", "10(9 8(7) 1)", "2(1 1 1 1)"):
        assert format_tree(parse_tree(text)) == text


def test_parse_errors_carry_positions():
    with pytest.raises(TreeParseError) as err:
        parse_tree("3(2(1) 1")
    assert err.value.position == 8
    with pytest.raises(TreeParseError) as err:
        parse_tree("0")
    assert err.value.position == 0
    with pytest.raises(TreeParseError) as err:
        parse_tree("3(x)")
    assert err.value.position == 2
    with pytest.raises(TreeParseError) as err:
        parse_tree("3(1) 2")
    assert err.value.position == 4


def test_labels_are_ascii_digits_only():
    # str.isdigit admits these: int() refused "²" without a position, and
    # read "٣" and "０" as 3 and 0
    for text, position in [("²", 0), ("٣(1)", 0), ("2(1 ０)", 4), ("1２", 1), ("3(2(1²))", 5)]:
        with pytest.raises(TreeParseError) as err:
            parse_tree(text)
        assert err.value.position == position, text


def test_tree_equality_and_hash():
    a = parse_tree("3(2(1) 1)")
    b = parse_tree("3(2(1) 1)")
    c = parse_tree("3(1 2(1))")
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_is_decreasing():
    assert is_decreasing(PlaneTree(1), 1)
    assert is_decreasing(parse_tree("2(1)"), 2)
    assert not is_decreasing(parse_tree("1(1)"), 2)  # strictness
    assert is_decreasing(parse_tree("3(2(1))"), 3)
    assert not is_decreasing(parse_tree("3(2(1))"), 2)  # label above the bound


def test_leaning_tree_small():
    assert format_tree(leaning_tree(0)) == "1"
    assert format_tree(leaning_tree(1)) == "2(1)"
    # order 2 is a path on four vertices
    assert format_tree(leaning_tree(2)) == "3(2(1) 1)"


def test_leaning_tree_sizes_and_degrees():
    for k in range(0, 11):
        t = leaning_tree(k)
        assert node_count(t) == 2**k
        assert len(t.children) == k
        assert is_decreasing(t, k + 1)
    # the scanned maximum degree is the order itself: the root has k children
    # and the deepest-order child has k-1 children plus its parent edge
    for k in range(1, 11):
        assert max_degree(leaning_tree(k)) == k


def test_leaning_tree_guard(monkeypatch):
    # order k has k(k + 1)/2 child references: 2,001,000 at k = 2000
    assert len(leaning_tree(2000).children) == 2000
    with pytest.raises(LimitError, match="2,001,000 child references"):
        leaning_tree(2001)
    # the cap is read on each call
    monkeypatch.setattr(trees, "LEANING_REFERENCE_LIMIT", 5)
    with pytest.raises(LimitError, match="limited to 5 child references"):
        leaning_tree(3)
    monkeypatch.setattr(trees, "LEANING_REFERENCE_LIMIT", 6)
    assert format_tree(leaning_tree(3)) == "4(3(2(1) 1) 2(1) 1)"
    with pytest.raises(ValueError):
        leaning_tree(-1)


def test_enumerate_single_node():
    ts = list(iter_decreasing_trees(1, 2))
    assert [format_tree(t) for t in ts] == ["1", "2"]


def test_enumerate_three_nodes_three_labels():
    ts = list(iter_decreasing_trees(3, 3))
    assert [format_tree(t) for t in ts] == [
        "2(1 1)",
        "3(1 1)",
        "3(1 2)",
        "3(2 1)",
        "3(2 2)",
        "3(2(1))",
    ]


def test_enumerate_one_label_dies_out():
    for n in range(2, 8):
        assert list(iter_decreasing_trees(n, 1)) == []


def _sized_key(t):
    """``(node count, canonical_key(t))``, in one pass over ``t``."""
    if not t.children:
        return 1, (t.label, [])
    keys = [_sized_key(c) for c in t.children]
    return 1 + sum([size for size, _ in keys]), (t.label, keys)


def canonical_key(t):
    """The stream's order, built apart from the enumerator: the root label,
    then the children in turn, each by node count, then its own key."""
    return _sized_key(t)[1]


def _before(a, b):
    """``canonical_key(a) < canonical_key(b)``, reading only the keys of the
    first child where the two trees differ."""
    if a.label != b.label:
        return a.label < b.label
    for x, y in zip(a.children, b.children):
        if x is not y and x != y:
            return _sized_key(x) < _sized_key(y)
    return len(a.children) < len(b.children)


def test_enumerate_matches_counts():
    for n in range(1, 8):
        for k in range(1, 6):
            ts = list(iter_decreasing_trees(n, k))
            assert len(ts) == count_trees(n, k)
            assert all(is_decreasing(t, k) for t in ts)
            texts = [format_tree(t) for t in ts]
            assert len(set(texts)) == len(texts)  # no duplicates
            assert ts == sorted(ts, key=canonical_key)  # canonical order


def test_enumerate_roundtrips_through_text():
    for t in iter_decreasing_trees(5, 4):
        assert parse_tree(format_tree(t)) == t


def test_enumerate_guards():
    with pytest.raises(LimitError):
        iter_decreasing_trees(24, 3)
    with pytest.raises(LimitError):
        iter_decreasing_trees(3, 100_000)
    assert len(list(iter_decreasing_trees(10, 3))) == count_trees(10, 3)
    assert len(list(iter_decreasing_trees(3, 8))) == count_trees(3, 8)


@st.composite
def plane_trees(draw, max_nodes=12):
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    # randomise labels too; the text format must carry arbitrary positive labels
    def relabel(t):
        return PlaneTree(rng.randint(1, 99), tuple(relabel(c) for c in t.children))

    return relabel(random_plane_tree(size, rng))


@given(plane_trees())
@settings(max_examples=150)
def test_parse_format_identity_random(t):
    assert parse_tree(format_tree(t)) == t


def test_labels_must_be_positive():
    with pytest.raises(ValueError):
        PlaneTree(0)
    with pytest.raises(ValueError):
        PlaneTree(-3)


def test_stream_order_is_canonical_with_multidigit_labels():
    for n in range(1, 5):
        for k in range(1, 13):
            stream = list(iter_decreasing_trees(n, k))
            assert stream == sorted(stream, key=canonical_key)
            assert len(stream) == count_trees(n, k)


def test_stream_order_is_canonical_at_many_labels():
    # labels past 9 compare as numbers, and the subtrees of n - 1 nodes,
    # built as met, follow the pooled first children of every size
    for n, k, r in [(5, 14, 10), (5, 14, 12), (4, 20, None), (3, 120, 100)]:
        stream = list(iter_decreasing_trees(n, k, root_label=r))
        assert stream == sorted(stream, key=canonical_key)
        assert len({format_tree(t) for t in stream}) == len(stream)
        assert len(stream) == (count_trees(n, k) if r is None else count_with_root_label(n, r))
    # the 2,441,637 trees of (6, 12) are compared pairwise, not held: a
    # strictly increasing stream is the sorted order without repeats
    last, size = None, 0
    for t in iter_decreasing_trees(6, 12):
        assert last is None or _before(last, t)
        last, size = t, size + 1
    assert size == count_trees(6, 12)


def test_stream_labels_compare_as_numbers():
    roots = [t.label for t in iter_decreasing_trees(2, 12)]
    assert roots == sorted(roots)
    assert roots.index(10) > roots.index(9)


def test_stream_leaves_of_two_node_trees_are_shared():
    for t in iter_decreasing_trees(2, 12):
        (leaf,) = t.children
        assert leaf is trees._leaf(leaf.label)


def test_stream_root_label_is_the_filtered_stream():
    for n, k in [(1, 1), (1, 11), (3, 11), (4, 11), (5, 1), (5, 3), (6, 5)]:
        full = [(t.label, format_tree(t)) for t in iter_decreasing_trees(n, k)]
        for r in range(1, k + 2):
            only = iter_decreasing_trees(n, k, root_label=r)
            assert [format_tree(t) for t in only] == [text for label, text in full if label == r]


def test_stream_guards_raise_on_the_call():
    with pytest.raises(LimitError):
        iter_decreasing_trees(24, 3)
    with pytest.raises(LimitError):
        iter_decreasing_trees(3, 100_000)
    with pytest.raises(ValueError):
        iter_decreasing_trees(0, 3)
    with pytest.raises(ValueError):
        iter_decreasing_trees(3, 3, root_label=0)


def test_stream_is_lazy():
    # the full (8, 6) family is 1,261,070 trees; the first thousand must not
    # wait for, or hold, the rest
    tracemalloc.start()
    try:
        first = list(islice(iter_decreasing_trees(8, 6), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 1000
    assert peak < 8 * 2**20
    # k = 2 admits any n, and its one tree must not cost a kept list of
    # leaves per size, n^2/2 references in all
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_decreasing_trees(3000, 2)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stream_pools_hold_at_most_n_minus_2_nodes():
    # a subtree of n - 1 nodes is a root's single child, met once: it is
    # built as the stream reaches it and dropped, never pooled
    for n, labels in [(8, range(1, 7)), (7, [6])]:
        family = trees._DecreasingTrees(n)
        size = sum(1 for _ in family.stream(labels))
        assert size == (count_trees(8, 6) if n == 8 else count_with_root_label(7, 6))
        assert family._pools and max(s for s, _ in family._pools) == n - 2


def test_stream_memory_is_bounded_by_the_smaller_pools():
    # a drained (8, 6) stream, 1,261,070 trees, holds pools of at most six
    # nodes and no text per subtree: about 2.3 MB traced, where pooled
    # seven-node subtrees take 16.9 MB
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_decreasing_trees(8, 6)) == count_trees(8, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_stream_guard_counts_the_trees():
    # (9, 7) would yield 51,911,249 trees: no closed-form bound passes the
    # cap there, and the exact count refuses it before any tree is built
    with pytest.raises(LimitError, match="51,911,249"):
        iter_decreasing_trees(9, 7)
    with pytest.raises(LimitError):
        iter_decreasing_trees(9, 7, root_label=7)  # 42,157,968 trees
    assert count_trees(8, 6) <= ENUMERATION_TREE_LIMIT
    iter_decreasing_trees(9, 7, root_label=5)  # 1,155,696 trees: admitted
    # the cap compares with the exact count, with or without a root label
    with pytest.raises(LimitError):
        iter_decreasing_trees(5, 4, max_trees=count_trees(5, 4) - 1)
    assert len(list(iter_decreasing_trees(5, 4, max_trees=count_trees(5, 4)))) == 256
    with pytest.raises(LimitError):
        iter_decreasing_trees(5, 4, root_label=4, max_trees=220)
    assert sum(1 for _ in iter_decreasing_trees(5, 4, root_label=4, max_trees=221)) == 221
    assert list(iter_decreasing_trees(5, 4, root_label=9, max_trees=0)) == []


def test_enumeration_count_is_the_stream_length():
    # the count visits the stream's child lists and leaves out the roots, so
    # it agrees with the stream and the series in every cell
    for n in range(1, 9):
        for k in range(1, 8):
            streamed = sum(1 for _ in iter_decreasing_trees(n, k))
            assert count_trees_by_enumeration(n, k) == streamed == count_trees(n, k)


@pytest.mark.parametrize(
    "args, options",
    [
        ((0, 3), {}),
        ((3, 0), {}),
        ((9, 7), {}),
        ((24, 3), {}),
        ((3, 100_000), {}),
        ((5, 4), {"max_trees": 255}),
    ],
)
def test_enumeration_count_refuses_as_the_stream_does(args, options):
    with pytest.raises(ValueError) as streamed:
        iter_decreasing_trees(*args, **options)
    with pytest.raises(ValueError) as counted:
        count_trees_by_enumeration(*args, **options)
    assert type(counted.value) is type(streamed.value)
    assert str(counted.value) == str(streamed.value)


def test_enumeration_count_takes_an_unbounded_cap():
    assert count_trees_by_enumeration(5, 4, max_trees=math.inf) == 256
    assert count_trees_by_enumeration(2000, 2, max_trees=math.inf) == 1


def test_stream_guard_bounds_never_pass_the_count():
    # a lower bound above the exact count would refuse a call the count
    # admits: at the count itself every call is admitted, one below refused
    for n in range(1, 40):
        for k in (1, 2, 3, 4, 7, 10):
            for r in (None, *range(1, min(k, 3) + 1), k):
                exact = count_trees(n, k) if r is None else count_with_root_label(n, r)
                iter_decreasing_trees(n, k, root_label=r, max_trees=exact)
                if exact:
                    with pytest.raises(LimitError):
                        iter_decreasing_trees(n, k, root_label=r, max_trees=exact - 1)


def test_lower_bounds_refuse_without_the_series(monkeypatch):
    def series(n, k):
        raise AssertionError(f"the series was evaluated for ({n}, {k})")

    monkeypatch.setattr(trees, "count_trees", series)
    monkeypatch.setattr(trees, "count_with_root_label", series)
    # the sizes of the counting workload's --all-methods calls among them
    for n, k in [(24, 3), (3, 100_000), (120, 3), (1000, 3), (300, 6), (120, 24), (10**9, 10**9)]:
        with pytest.raises(LimitError, match="at least"):
            iter_decreasing_trees(n, k)
    for order, length in [(7, 14), (10**6, 2), (2, 40)]:
        with pytest.raises(LimitError, match="at least"):
            bijection.iter_closed_walks(order, length)


def test_trees_of_at_most_two_nodes_are_counted_without_the_series(monkeypatch):
    def series(n, k):
        raise AssertionError(f"the series was evaluated for ({n}, {k})")

    monkeypatch.setattr(trees, "count_trees", series)
    monkeypatch.setattr(trees, "count_with_root_label", series)
    # every tree of one or two nodes is a chain: k of one node, C(k, 2) of
    # two, and under root label r, one and r - 1
    for k in (1, 2, 3, 10, 10**6):
        for n, exact in [(1, k), (2, k * (k - 1) // 2)]:
            iter_decreasing_trees(n, k, max_trees=exact)
            if exact:
                with pytest.raises(LimitError, match=f" {exact:,}\\)"):
                    iter_decreasing_trees(n, k, max_trees=exact - 1)
        for r in sorted({1, min(2, k), k}):
            for n, exact in [(1, 1), (2, r - 1)]:
                iter_decreasing_trees(n, k, root_label=r, max_trees=exact)
                if exact:
                    with pytest.raises(LimitError, match=f" {exact:,}\\)"):
                        iter_decreasing_trees(n, k, root_label=r, max_trees=exact - 1)
    assert list(iter_decreasing_trees(2, 1, max_trees=0)) == []
    assert sum(1 for _ in iter_decreasing_trees(1, 10**6)) == 10**6


def test_stream_stack_depth_does_not_grow_with_n(monkeypatch):
    # the kept child lists are filled smallest first: built on demand, each
    # recursed into the next smaller one, and the stack overflowed near
    # n = 500 (k = 2)
    deepest = []
    forests = trees._DecreasingTrees._forests

    def measured(self, m, bound):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        deepest[-1] = max(deepest[-1], depth)
        return forests(self, m, bound)

    monkeypatch.setattr(trees._DecreasingTrees, "_forests", measured)
    for n in (6, 12):
        deepest.append(0)
        assert sum(1 for _ in iter_decreasing_trees(n, 3)) == count_trees(n, 3)
    assert deepest[1] <= deepest[0]
