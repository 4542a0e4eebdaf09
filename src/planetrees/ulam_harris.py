"""Ulam-Harris numbers of rooted trees.

Give the root label 1 and, for a node labelled r with s children, label the
children r+1, ..., r+s in order.  The Ulam-Harris number of an ordered tree
is the maximum label assigned this way; for an unordered tree it is the
minimum of that quantity over all child orderings.  Input labels on the
trees are ignored throughout this module; only the shape matters.

The minimisation is exact: at each node the children may be ordered
independently, and placing subtrees in descending order of their own minimal
numbers is optimal by the standard exchange argument (verified against the
brute-force sweep in the tests rather than assumed).  ``plan_uh_number`` and
``plan_uh_min`` take a ``trees.subtree_plan`` alone, compute each distinct
labelled shape's minimal number once, without recursion, and take the number
from the root shape's value, the plan's last entry; ``uh_number`` and
``uh_min`` wrap them.  A shape's witness is built once and shared wherever
the shape occurs; its text depends only on the shape, since leaves and tied
siblings are put in text order, and a shape that ties with a sibling is
serialised once a call, however often it ties.  The witness is walked only
when a report's ``labels`` are read.  The labels stay in the plan's shapes
although the numbers ignore them, because the witness carries them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import LimitError
from .trees import PlaneTree, _fast_tree, format_tree, subtree_plan

#: node-count cap for the brute-force ordering sweep
BRUTEFORCE_NODE_LIMIT = 9


@dataclass(frozen=True)
class UhReport:
    """Ulam-Harris number with a witness ordering and its per-node labels.

    ``labels`` lists the assigned label of every witness node in preorder
    (root first, then each child subtree left to right); ``uh`` is their
    maximum.  The labels are computed from the witness when first read.
    """

    uh: int
    witness: PlaneTree

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return _preorder_labels(self.witness)


def _preorder_labels(t: PlaneTree) -> tuple[int, ...]:
    # the Ulam-Harris label of every node of ``t`` in preorder: one iterator
    # of (label, child) pairs per inner node on the path from the root
    labels = [1]
    stack = [enumerate(t.children, 2)]
    while stack:
        for label, child in stack[-1]:
            labels.append(label)
            if child.children:
                stack.append(enumerate(child.children, label + 1))
                break
        else:
            stack.pop()
    return tuple(labels)


def uh_ordered(t: PlaneTree) -> UhReport:
    """Ulam-Harris number of an ordered tree, children taken as given: the
    largest of its preorder labels."""
    return UhReport(max(_preorder_labels(t)), t)


def uh_number(t: PlaneTree) -> int:
    """Exact minimal Ulam-Harris number over all child orderings.

    The value of ``uh_min`` without its witness: each distinct labelled
    shape's minimal number is computed once, so ``leaning_tree(k)`` costs k
    shapes, not 2^k nodes.
    """
    return plan_uh_number(subtree_plan(t))


def plan_uh_number(plan: list) -> int:
    """``uh_number`` of the tree whose ``trees.subtree_plan`` is ``plan``."""
    return _minimal_values(plan)[-1]


def uh_min(t: PlaneTree) -> UhReport:
    """Exact minimal Ulam-Harris number over all child orderings.

    Each subtree's minimal number is computed children first; sorting the
    children by that value, descending, is optimal because swapping any two
    children out of descending order never decreases the maximum of
    position + subtree value.  The number is the root shape's value; the
    witness is walked only when its ``labels`` are read.  Ties are broken by
    the bracket serialisation of the reordered subtree, which makes the
    witness deterministic; only shapes that tie with a sibling are
    serialised, each at most once a call.
    """
    return plan_uh_min(subtree_plan(t))


def plan_uh_min(plan: list) -> UhReport:
    """``uh_min`` of the tree whose ``trees.subtree_plan`` is ``plan``."""
    values = _minimal_values(plan)
    witnesses: list[PlaneTree] = []
    texts: dict[int, str] = {}  # plan entry -> the bracket text of its witness

    def text(i: int) -> str:
        known = texts.get(i)
        if known is None:
            known = texts[i] = format_tree(witnesses[i])
        return known

    for node, leaves, kids in plan:
        if len(kids) > 1:
            kids = sorted(kids, key=values.__getitem__, reverse=True)
            # each run of equal values in the order of its witness texts
            start = 0
            for end in range(1, len(kids) + 1):
                if end == len(kids) or values[kids[end]] != values[kids[start]]:
                    if end - start > 1:
                        kids[start:end] = sorted(kids[start:end], key=text)
                    start = end
        children = [witnesses[i] for i in kids]
        if leaves:
            # leaves have value 1, below every other child's, and go last
            tail = [c for c in node.children if not c.children]
            if leaves > 1:
                tail.sort(key=format_tree)
            children += tail
        witnesses.append(_fast_tree(node.label, tuple(children)))
    return UhReport(values[-1], witnesses[-1])


def _minimal_values(plan: list) -> list[int]:
    # the minimal Ulam-Harris number of each shape of ``trees.subtree_plan``
    values: list[int] = []
    for node, leaves, kids in plan:
        # leaves (value 1) go last, the largest of them at the last position;
        # a node without children has value 1
        best = len(node.children) + 1 if leaves else 1
        ranked = sorted([values[c] for c in kids], reverse=True)
        for position, value in enumerate(ranked, start=1):
            best = max(best, position + value)
        values.append(best)
    return values


def uh_min_bruteforce(t: PlaneTree) -> int:
    """Minimum over all products of child permutations, by exhaustion: at
    each node, every distinct ordering of its children's minimal numbers,
    for trees of at most ``BRUTEFORCE_NODE_LIMIT`` nodes."""
    # count the nodes only as far as the limit
    seen = 0
    stack = [t]
    while stack:
        seen += 1
        if seen > BRUTEFORCE_NODE_LIMIT:
            raise LimitError(f"brute-force ordering sweep limited to {BRUTEFORCE_NODE_LIMIT} nodes")
        stack.extend(stack.pop().children)

    def minimal(node: PlaneTree) -> int:
        values = [minimal(child) for child in node.children]
        if not values:
            return 1
        best = None
        # an ordering's maximum depends only on its sequence of values, so
        # each distinct sequence is tried once (all of a star's leaves give one)
        for perm in set(permutations(values)):
            candidate = max(position + value for position, value in enumerate(perm, 1))
            if best is None or candidate < best:
                best = candidate
        return max(1, best)

    return minimal(t)


def unordered_shape_levels(n: int) -> list[list[PlaneTree]]:
    """All rooted unordered trees on m nodes, one canonical ordered form
    each, for m = 1..n, in that order, from one build: each level is
    composed from the smaller ones.

    Canonical form: children sorted by their own bracket serialisation.  All
    labels are 1 (shape-only semantics).  The level sizes follow the
    rooted-tree sequence 1, 1, 2, 4, 9, 20, 48, 115, ...
    """
    if n < 1:
        raise ValueError("n must be positive")
    levels: list[list[PlaneTree]] = [[PlaneTree(1)]]  # level m at index m - 1
    for size in range(2, n + 1):
        # pool of all candidate subtrees, smallest first, with a stable index,
        # and their sizes: the level each came from
        pool = [tree for trees in levels for tree in trees]
        sizes = [m for m, trees in enumerate(levels, 1) for _ in trees]
        shapes: list[PlaneTree] = []

        def choose(remaining: int, max_index: int, chosen: tuple[PlaneTree, ...]) -> None:
            if remaining == 0:
                ordered = tuple(sorted(chosen, key=format_tree))
                shapes.append(PlaneTree(1, ordered))
                return
            for index in range(max_index, -1, -1):
                sub_size = sizes[index]
                if sub_size <= remaining:
                    choose(remaining - sub_size, index, chosen + (pool[index],))

        choose(size - 1, len(pool) - 1, ())
        # multisets chosen with nonincreasing pool index appear exactly once
        levels.append(shapes)
    return levels
