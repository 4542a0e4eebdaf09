"""The bijection between closed root walks in a leaning tree and decreasing trees.

A closed walk of length 2n starting and ending at the root of the order-k
leaning tree corresponds to an (n+1)-node decreasing tree with root label
k+1: every descent into a subtree of order j appends a child labelled j+1
at the current position, and every ascent moves back to the parent.

Walks are stored as move sequences rather than vertex sequences: a positive
move i descends to the current vertex's rank-i child (whose order is the
current order minus i), and ``UP`` ascends to the parent.  Given the frozen
child order of leaning trees this encoding is unambiguous, and the vertex
sequence is recoverable by replay.  Text form: ``+i`` per descent, ``-`` per
ascent, space separated (e.g. ``+1 +1 - -``).

``validate_walk`` is the one source of walk errors: ``build_tree_from_walk``
range-checks each move in its single pass and, at the first invalid move,
calls it for the message and the move index.  Its leaves with labels up to
64 are the process's shared leaf objects of ``trees`` (one per label), so a
walk of length 2n allocates a node for its inner vertices only.
"""

from __future__ import annotations

from typing import Iterator

from .errors import LimitError, WalkError
from .trees import _LEAVES, PlaneTree, _count_over, _leaf

#: move encoding for "ascend to the parent"
UP = -1

#: default cap on the exact number of walks one enumeration yields: the
#: 429,939 of length 12 in the order-6 tree are admitted
WALK_LIMIT = 500_000


class Walk:
    """Move sequence in the leaning tree of the given order, starting at its root.

    An immutable record: equal, and hashed alike, by ``(order, moves)``.
    """

    __slots__ = ("order", "moves")

    def __init__(self, order: int, moves: tuple[int, ...]):
        if order < 0:
            raise ValueError("ambient order must be nonnegative")
        _set_order(self, order)
        _set_moves(self, moves)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.moves) == (other.order, other.moves)

    def __hash__(self) -> int:
        return hash((self.order, self.moves))

    def __repr__(self) -> str:
        return f"Walk(order={self.order!r}, moves={self.moves!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses them
        return Walk, (self.order, self.moves)

    def __len__(self) -> int:
        return len(self.moves)


# the slots' own setters, which ``Walk.__setattr__`` refuses to call
_set_order = Walk.order.__set__
_set_moves = Walk.moves.__set__


def validate_walk(walk: Walk) -> None:
    """Raise WalkError (with the offending move index) unless the walk is closed.

    Closed means: replay never ascends from the root, never descends past a
    vertex's order, and ends back at the root.
    """
    depth_orders = [walk.order]
    for index, move in enumerate(walk.moves):
        current = depth_orders[-1]
        if move == UP:
            if len(depth_orders) == 1:
                raise WalkError("cannot ascend from the root", index)
            depth_orders.pop()
        elif 1 <= move <= current:
            depth_orders.append(current - move)
        else:
            raise WalkError(
                f"descent rank {move} invalid at a vertex of order {current}", index
            )
    if len(depth_orders) != 1:
        raise WalkError("walk does not return to the root", len(walk.moves))


def build_tree_from_walk(walk: Walk) -> PlaneTree:
    """Decreasing tree with root label order+1 built from a closed walk.

    The tree has n+1 nodes for a walk of length 2n.  Invalid walks are
    rejected by ``validate_walk``, with the index of the offending move.
    The order and the moves must be ints, as tree labels are.
    """
    moves = walk.moves
    n = len(moves)
    new = PlaneTree.__new__  # nodes are built as trees._fast_tree does
    leaves = _LEAVES  # the shared leaf of each label below len(leaves)
    shared = len(leaves)
    # the open vertex, and the labels and child lists of the vertices above it
    label = walk.order + 1
    if not isinstance(label, int):
        raise ValueError(f"labels must be positive integers, got {label!r}")
    children: list[PlaneTree] = []
    labels: list[int] = []
    lists: list[list[PlaneTree]] = []
    i = 0
    while i < n:
        move = moves[i]
        i += 1
        if 0 < move < label and isinstance(move, int):
            if i < n and moves[i] == UP:  # a leaf, left at once
                leaf = label - move
                children.append(leaves[leaf] if leaf < shared else _leaf(leaf))
                i += 1
            else:
                labels.append(label)
                lists.append(children)
                label -= move
                children = []
        elif move == UP and labels:
            node = new(PlaneTree)
            node.label = label
            node.children = tuple(children)
            node._hash = None
            label = labels.pop()
            children = lists.pop()
            children.append(node)
        else:
            break
    else:
        if not labels:
            node = new(PlaneTree)
            node.label = label
            node.children = tuple(children)
            node._hash = None
            return node
    validate_walk(walk)  # raises for every malformed walk
    raise ValueError(f"labels must be positive integers, got {label - move!r}")


def build_walk_from_tree(t: PlaneTree) -> Walk:
    """Closed walk in the leaning tree of order root_label - 1 encoding ``t``.

    Inverse of ``build_tree_from_walk``: the walk visits, in depth-first
    order, the subtree roots matching each node's label, descending by rank
    parent_label - child_label.  Rejects trees whose labels do not strictly
    decrease away from the root.
    """
    moves: list[int] = []
    append = moves.append
    # the current vertex's label and remaining children, and those of the
    # vertices above it
    label = t.label
    pending = iter(t.children)
    labels: list[int] = []
    iters = []
    while True:
        for child in pending:
            child_label = child.label
            if child_label >= label:
                raise ValueError(f"not a decreasing tree: child label {child_label} under {label}")
            append(label - child_label)
            if child.children:
                labels.append(label)
                iters.append(pending)
                label = child_label
                pending = iter(child.children)
                break
            append(UP)  # a leaf is left at once
        else:
            if not labels:
                return Walk(t.label - 1, tuple(moves))
            append(UP)
            label = labels.pop()
            pending = iters.pop()


def iter_closed_walks(
    order: int, length: int, *, max_walks: float = WALK_LIMIT
) -> Iterator[Walk]:
    """Every closed root walk of the given even length, streamed in a fixed
    depth-first order.

    At each step the descents are tried by ascending rank before the ascent,
    so the walks come in lexicographic order on moves with ``UP`` ranked
    after every descent.  The search keeps its own stack, so the walk length
    is not bounded by the recursion limit; once only ascents can close the
    walk, they are appended at once.  Arguments and the guard are checked on
    the call itself: the walks, by the bijection the trees of length/2 + 1
    nodes with root label order + 1, must number at most ``max_walks``.
    They are then built one at a time, in memory of the walk length.
    """
    if length < 0 or length % 2:
        raise ValueError("walk length must be even and nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    over = _count_over(max_walks, length // 2 + 1, order + 1, order + 1)
    if over is not None:
        raise LimitError(
            f"walk enumeration limited to {max_walks:,} walks "
            f"(order {order}, length {length} gives {over})"
        )
    return _closed_walks(order, length)


def _closed_walks(order: int, length: int) -> Iterator[Walk]:
    moves: list[int] = []
    path = [order]  # orders of the vertices from the root to the current one
    left: list[int] = []  # order of the vertex each UP in ``moves`` left
    move = 1  # next move to try here: ranks 1..order, then order + 1 for UP
    while True:
        depth = len(path) - 1
        current = path[-1]
        if len(moves) + depth == length:  # only the ascents home remain
            yield Walk(order, tuple(moves) + (UP,) * depth)
        elif move <= current:
            moves.append(move)
            path.append(current - move)
            move = 1
            continue
        elif move == current + 1 and depth:
            moves.append(UP)
            left.append(path.pop())
            move = 1
            continue
        if not moves:
            return
        # backtrack: undo the last move and try the one after it
        last = moves.pop()
        if last == UP:
            path.append(left.pop())
            move = path[-1] + 2
        else:
            path.pop()
            move = last + 1


def format_walk(walk: Walk) -> str:
    """Token text: ``+i`` per descent, ``-`` per ascent, space separated."""
    return " ".join("-" if m == UP else f"+{m}" for m in walk.moves)


def parse_walk(text: str, order: int) -> Walk:
    """Parse the token text into a validated walk in the order-``order`` tree."""
    moves: list[int] = []
    stripped = text.strip()
    if stripped:
        for pos, token in enumerate(stripped.split()):
            digits = token[1:]  # ASCII only: str.isdigit admits others
            if token == "-":
                moves.append(UP)
            elif token[0] == "+" and digits.isascii() and digits.isdigit() and int(digits) >= 1:
                moves.append(int(digits))
            else:
                raise WalkError(f"unrecognised walk token {token!r}", pos)
    walk = Walk(order, tuple(moves))
    validate_walk(walk)
    return walk
