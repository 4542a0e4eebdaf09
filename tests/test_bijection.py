"""Walk validity, the two conversion algorithms, and their round trips."""

import copy
import hashlib
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planetrees import (
    UP,
    LimitError,
    Walk,
    WalkError,
    build_tree_from_walk,
    build_walk_from_tree,
    count_with_root_label,
    format_tree,
    format_walk,
    is_decreasing,
    iter_closed_walks,
    iter_decreasing_trees,
    node_count,
    parse_tree,
    parse_walk,
    validate_walk,
    verify,
)


def test_empty_walk_gives_single_node():
    assert format_tree(build_tree_from_walk(Walk(4, ()))) == "5"


def test_hand_traced_examples():
    assert format_tree(build_tree_from_walk(Walk(2, (1, 1, UP, UP)))) == "3(2(1))"
    assert format_tree(build_tree_from_walk(Walk(2, (2, UP, 2, UP)))) == "3(1 1)"


def test_walk_from_tree_examples():
    assert build_walk_from_tree(parse_tree("5")) == Walk(4, ())
    assert build_walk_from_tree(parse_tree("3(2(1))")) == Walk(2, (1, 1, UP, UP))
    assert build_walk_from_tree(parse_tree("3(1 1)")) == Walk(2, (2, UP, 2, UP))


def test_invalid_walks_report_offending_index():
    with pytest.raises(WalkError) as err:
        build_tree_from_walk(Walk(2, (UP,)))
    assert err.value.index == 0
    with pytest.raises(WalkError) as err:
        build_tree_from_walk(Walk(2, (1, 2, UP, UP)))  # rank 2 at an order-1 vertex
    assert err.value.index == 1
    with pytest.raises(WalkError) as err:
        build_tree_from_walk(Walk(2, (1,)))  # does not return to the root
    assert err.value.index == 1
    with pytest.raises(WalkError):
        validate_walk(Walk(3, (3, 1, UP, UP)))  # rank 1 at an order-0 vertex


def test_walk_from_tree_rejects_nondecreasing():
    with pytest.raises(ValueError):
        build_walk_from_tree(parse_tree("2(2)"))
    with pytest.raises(ValueError):
        build_walk_from_tree(parse_tree("3(1(2))"))


def test_walk_is_an_immutable_record():
    w = Walk(2, (1, UP))
    for name in ("order", "moves"):
        with pytest.raises(AttributeError):
            setattr(w, name, 3)
        with pytest.raises(AttributeError):
            delattr(w, name)
    with pytest.raises(AttributeError):
        w.extra = 1
    assert w == Walk(2, (1, UP)) and hash(w) == hash(Walk(2, (1, UP)))
    assert w != Walk(3, (1, UP)) and w != Walk(2, (2, UP))
    assert Walk(2, ()) != (2, ()) and (2, ()) != Walk(2, ())
    assert len({w, Walk(2, (1, UP)), Walk(2, ())}) == 2
    assert repr(w) == "Walk(order=2, moves=(1, -1))"
    assert len(w) == 2
    assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(ValueError, match="nonnegative"):
        Walk(-1, ())


def test_walk_text_roundtrip():
    w = Walk(3, (1, 2, UP, UP, 3, UP))
    assert format_walk(w) == "+1 +2 - - +3 -"
    assert parse_walk("+1 +2 - - +3 -", 3) == w
    assert parse_walk("", 4) == Walk(4, ())
    with pytest.raises(WalkError):
        parse_walk("+1 up", 3)
    with pytest.raises(WalkError):
        parse_walk("+0 -", 3)
    # digits other than ASCII ones: int() refuses "²" and reads "٣" as 3
    for token in ("+²", "+٣", "+０"):
        with pytest.raises(WalkError) as err:
            parse_walk(f"+1 - {token}", 3)
        assert err.value.index == 2


def test_enumerate_closed_walks_smallest():
    assert list(iter_closed_walks(3, 0)) == [Walk(3, ())]
    assert [format_walk(w) for w in iter_closed_walks(2, 2)] == ["+1 -", "+2 -"]
    for k in range(1, 6):
        assert len(list(iter_closed_walks(k, 2))) == k


def test_enumerate_closed_walks_guards():
    with pytest.raises(LimitError, match="at least 823,543"):
        iter_closed_walks(7, 14)  # 7^7 walks at least
    with pytest.raises(LimitError, match="514,229"):
        iter_closed_walks(2, 28)
    # the cap compares with the exact count, the trees of the bijection
    count = count_with_root_label(5, 3)
    with pytest.raises(LimitError):
        iter_closed_walks(2, 8, max_walks=count - 1)
    assert len(list(iter_closed_walks(2, 8, max_walks=count))) == count
    assert len(list(iter_closed_walks(7, 4))) == count_with_root_label(3, 8)
    with pytest.raises(ValueError):
        iter_closed_walks(2, 3)


def test_walk_stream_is_the_walk_list():
    for order, length in ((0, 0), (0, 4), (1, 8), (3, 0), (3, 6), (4, 10), (6, 6)):
        stream = iter_closed_walks(order, length)
        assert not isinstance(stream, list)
        assert list(stream) == list(iter_closed_walks(order, length))
    assert list(iter_closed_walks(2, 8, max_walks=count_with_root_label(5, 3))) == (
        list(iter_closed_walks(2, 8))
    )


def test_walk_stream_checks_its_guard_on_the_call():
    # the refusal comes from the call itself, before any walk is asked for
    with pytest.raises(LimitError, match="at least 823,543"):
        iter_closed_walks(7, 14)
    with pytest.raises(LimitError, match="514,229"):
        iter_closed_walks(2, 28)
    with pytest.raises(LimitError):
        iter_closed_walks(2, 8, max_walks=count_with_root_label(5, 3) - 1)
    with pytest.raises(ValueError):
        iter_closed_walks(2, 3)
    with pytest.raises(ValueError):
        iter_closed_walks(-1, 2)


def test_image_match_holds_no_walk_list():
    # holding the walks of (5, 10) and a text per tree traced 4.6 MB
    verify.check_image_match()
    tracemalloc.start()
    try:
        ok, _ = verify.check_image_match()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 500_000


def test_enumeration_order_is_pinned():
    # the documented order, hashed: depth-first, with the descents by
    # ascending rank before the ascent
    lines = [
        f"{k} {length} {format_walk(w)}"
        for k in range(6)
        for length in range(0, 13, 2)
        for w in iter_closed_walks(k, length)
    ]
    assert len(lines) == 191783
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ef27bb5713f1eedc7acbb2a346658d1ac2ae3b53656a441883881b686612e714"


def test_enumeration_reaches_lengths_past_the_recursion_limit():
    length = 3 * sys.getrecursionlimit()
    walks = list(iter_closed_walks(1, length))
    assert [format_walk(w) for w in walks] == [" ".join(["+1 -"] * (length // 2))]
    assert len(list(iter_closed_walks(2, 20))) == count_with_root_label(11, 3)


def test_walk_counts_match_root_label_counts():
    for k in range(1, 6):
        for n in range(0, 5):
            walks = list(iter_closed_walks(k, 2 * n))
            assert len(walks) == count_with_root_label(n + 1, k + 1)


def test_roundtrip_walk_tree_walk():
    for k in range(0, 5):
        for length in range(0, 9, 2):
            for w in iter_closed_walks(k, length):
                assert build_walk_from_tree(build_tree_from_walk(w)) == w


def test_roundtrip_tree_walk_tree():
    for k in range(1, 5):
        for n in range(1, 7):
            for t in iter_decreasing_trees(n, k + 1):
                if t.label != k + 1:
                    continue
                assert build_tree_from_walk(build_walk_from_tree(t)) == t


def test_image_of_walks_is_the_tree_family():
    for k in range(1, 5):
        for n in range(0, 5):
            image = [
                format_tree(build_tree_from_walk(w))
                for w in iter_closed_walks(k, 2 * n)
            ]
            assert len(set(image)) == len(image)
            family = {
                format_tree(t)
                for t in iter_decreasing_trees(n + 1, k + 1)
                if t.label == k + 1
            }
            assert set(image) == family


@st.composite
def walk_like_moves(draw):
    """Move sequences that mostly follow the leaning tree, with now and then
    an arbitrary move, and closed back to the root about half of the time."""
    order = draw(st.integers(min_value=0, max_value=6))
    moves: list[int] = []
    orders = [order]  # the replay, while the moves stay valid
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        current = orders[-1]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            move = draw(st.integers(min_value=-3, max_value=8))
        elif len(orders) > 1 and (current == 0 or draw(st.booleans())):
            move = UP
        elif current:
            move = draw(st.integers(min_value=1, max_value=current))
        else:
            move = UP  # the root of the order-0 tree: no move is valid
        moves.append(move)
        if move == UP and len(orders) > 1:
            orders.pop()
        elif 1 <= move <= current:
            orders.append(current - move)
    if draw(st.booleans()):
        moves += [UP] * (len(orders) - 1)
    return Walk(order, tuple(moves))


arbitrary_moves = st.builds(
    Walk,
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=-3, max_value=8), max_size=20).map(tuple),
)


@given(st.one_of(walk_like_moves(), arbitrary_moves))
@settings(max_examples=400, deadline=None)
@example(Walk(0, (UP,)))
@example(Walk(3, (3, UP, 3)))  # a leaf left open at the end
@example(Walk(2, (2, UP, UP)))  # a leaf, then an ascent from the root
@example(Walk(4, (1, 3, UP, 4)))  # rank 4 at an order-3 vertex, after a leaf
def test_builder_agrees_with_validate_walk(walk):
    """The builder returns a tree exactly when ``validate_walk`` accepts the
    walk, and otherwise raises the same WalkError."""
    try:
        validate_walk(walk)
    except WalkError as expected:
        with pytest.raises(WalkError) as err:
            build_tree_from_walk(walk)
        assert (str(err.value), err.value.index) == (str(expected), expected.index)
        return
    tree = build_tree_from_walk(walk)
    assert tree.label == walk.order + 1 and is_decreasing(tree, walk.order + 1)
    assert node_count(tree) == len(walk) // 2 + 1
    assert build_walk_from_tree(tree) == walk


def test_non_integer_moves_are_rejected():
    with pytest.raises(ValueError) as err:
        build_tree_from_walk(Walk(2, (1.0, UP)))
    assert not isinstance(err.value, WalkError)  # a label check, not a walk error
    assert "labels must be positive integers" in str(err.value)
    with pytest.raises(ValueError):
        build_tree_from_walk(Walk(2.0, ()))
    with pytest.raises(WalkError):  # the walk error comes first
        build_tree_from_walk(Walk(2, (1.0, UP, UP)))


def test_path_walk_of_a_hundred_thousand_moves():
    depth = 50_000
    walk = Walk(depth, (1,) * depth + (UP,) * depth)
    tree = build_tree_from_walk(walk)
    assert tree.label == depth + 1 and node_count(tree) == depth + 1
    assert build_walk_from_tree(tree) == walk
    assert build_tree_from_walk(walk) == tree


def test_roundtrip_across_the_shared_leaf_table():
    # leaf labels 63 and 64 are shared objects, 65 and 100 fresh ones
    text = "101(100 65 64 63(1) 2)"
    walk = build_walk_from_tree(parse_tree(text))
    assert walk == Walk(100, (1, UP, 36, UP, 37, UP, 38, 62, UP, UP, 99, UP))
    tree = build_tree_from_walk(walk)
    assert format_tree(tree) == text
    leaf100, leaf65, leaf64, inner, _ = tree.children
    assert leaf64 is build_tree_from_walk(Walk(64, (1, UP))).children[0]
    assert inner.children[0] is build_tree_from_walk(Walk(1, (1, UP))).children[0]
    assert leaf100 is not build_tree_from_walk(Walk(100, (1, UP))).children[0]
    assert leaf65 == build_tree_from_walk(Walk(65, (1, UP))).children[0]
    parsed = parse_tree(text)
    assert tree == parsed and hash(tree) == hash(parsed)
    assert build_tree_from_walk(Walk(100, walk.moves[:-2] + (98, UP))) != parsed


def test_enumerated_and_built_trees_share_leaves():
    built = build_tree_from_walk(Walk(4, (4, UP, 3, UP, 1, 3, UP, UP)))
    assert format_tree(built) == "5(1 2 4(1))"
    assert built.children[0] is built.children[2].children[0]
    (listed,) = [t for t in iter_decreasing_trees(5, 5) if format_tree(t) == "5(1 2 4(1))"]
    assert listed == built and listed.children[0] is built.children[0]
