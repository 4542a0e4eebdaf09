"""Labelled plane trees: representation, bracket text format, enumeration.

A plane tree is a rooted tree whose children are linearly ordered.  Nodes
carry positive integer labels.  A tree is "decreasing" for a label bound k
when every label lies in {1..k} and each child's label is strictly smaller
than its parent's.

The regular leaning tree of order k is the recursive tree whose root has k
children carrying, left to right, the leaning trees of orders k-1 down to 0.
It has 2^k nodes.  Instances built here share subtree objects (the structure
is immutable), so construction is cheap.  ``subtree_plan`` lists each
distinct subtree object once, children first, and the per-tree quantities
(``node_count``, ``max_degree``, Ulam-Harris values, eigenvalue pivots and
root walk counts) are computed over that list: k objects for the leaning
tree of order k, not its 2^k nodes.  No traversal of a given tree
recurses, so its depth is bounded by memory, not by the interpreter's
recursion limit; only ``PlaneTree.__eq__`` and ``__hash__`` still recurse,
through tuple comparison and hashing.

``iter_decreasing_trees(n, k)`` streams every n-node decreasing tree with
labels in {1..k} in canonical order: lexicographic by bracket text, so
``"1" < "10" < "2"`` and a label whose digits prefix another's comes first.
It builds each tree as it is yielded and holds only memoised pools of
smaller subtrees, never the whole family; ``root_label=r`` generates just
the trees with root label r.  ``enumerate_decreasing_trees`` is the same
stream as a list.  Size guards are checked when either is called.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import LimitError, TreeParseError

#: default cap on the leaning-tree order (the tree has 2^k nodes)
LEANING_ORDER_LIMIT = 24
#: default caps for brute-force enumeration of decreasing trees
ENUMERATION_NODE_LIMIT = 9
ENUMERATION_LABEL_LIMIT = 7


class PlaneTree:
    """Immutable rooted ordered tree with a positive integer label per node."""

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label: int, children: tuple["PlaneTree", ...] = ()):
        if not isinstance(label, int) or label < 1:
            raise ValueError(f"labels must be positive integers, got {label!r}")
        self.label = label
        self.children = tuple(children)
        self._hash = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.label, self.children))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"<PlaneTree {format_tree(self)}>"


def format_tree(t: PlaneTree) -> str:
    """Bracket notation: ``label(child child ...)``, a leaf is its bare label."""
    if not t.children:
        return str(t.label)
    out = ["%d(" % t.label]
    append = out.append
    stack = [iter(t.children)]
    first = True  # no separator before the first child of a list
    while stack:
        for node in stack[-1]:
            if not first:
                append(" ")
            if node.children:
                append("%d(" % node.label)
                stack.append(iter(node.children))
                first = True
                break
            append(str(node.label))
            first = False
        else:
            stack.pop()
            append(")")
            first = False
    return "".join(out)


def parse_tree(text: str) -> PlaneTree:
    """Parse bracket notation, reporting the position of the first error."""
    pos = 0
    n = len(text)
    # nodes whose child list is still open: (label, children so far)
    stack: list[tuple[int, list[PlaneTree]]] = []
    while True:
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise TreeParseError("expected a label", pos)
        label = int(text[start:pos])
        if label == 0:
            raise TreeParseError("label 0 is not allowed", start)
        if pos < n and text[pos] == "(":
            pos += 1
            stack.append((label, []))
            continue
        node = _fast_tree(label, ())  # labels are checked above
        # hand the finished node to its parent, closing every list that ends here
        while stack:
            stack[-1][1].append(node)
            if pos < n and text[pos] == " ":
                pos += 1
                break  # a sibling follows
            if pos >= n or text[pos] != ")":
                raise TreeParseError("expected ')' or ' '", pos)
            pos += 1
            label, children = stack.pop()
            node = _fast_tree(label, tuple(children))
        else:
            break  # the root is finished
    if pos != n:
        raise TreeParseError("trailing input after tree", pos)
    return node


def subtree_plan(t: PlaneTree) -> list[tuple[PlaneTree, int, list[int]]]:
    """Each distinct non-leaf subtree object of ``t`` once, children before
    parents, as ``(object, number of leaf children, positions of the other
    children)``.

    The positions index this list, in child order, repeated when a child
    object repeats.  An object has the same size, degree, Ulam-Harris value,
    pivots and walk counts wherever it occurs, so one pass over the list
    computes them at the cost of the distinct objects: k entries for
    ``leaning_tree(k)``.  Leaves are not listed (callers take them as the
    base case), the root is the last entry, and a one-node tree gives an
    empty list.
    """
    plan: list[tuple[PlaneTree, int, list[int]]] = []
    if t.children:
        position: dict[int, int] = {}
        # (node, its children not yet visited, positions of its listed children)
        stack = [(t, iter(t.children), [])]
        while stack:
            node, pending, kids = stack[-1]
            for child in pending:
                if child.children:
                    listed = position.get(id(child))
                    if listed is None:
                        stack.append((child, iter(child.children), []))
                        break
                    kids.append(listed)  # a shared object, already listed
            else:
                stack.pop()
                listed = position[id(node)] = len(plan)
                plan.append((node, len(node.children) - len(kids), kids))
                if stack:
                    stack[-1][2].append(listed)
    return plan


def node_count(t: PlaneTree) -> int:
    """Number of nodes, counting a shared subtree once per occurrence.

    One pass over ``subtree_plan``: ``leaning_tree(k)`` costs k objects
    although it has 2^k nodes.
    """
    return plan_node_count(subtree_plan(t))


def max_degree(t: PlaneTree) -> int:
    """Maximum vertex degree of the underlying (undirected) tree.

    The root contributes its child count; every other node contributes its
    child count plus one for the parent edge.  Every listed object but the
    root is a non-root vertex, and a leaf's degree 1 never exceeds its
    parent's, so this reads the distinct objects of ``subtree_plan`` only.
    """
    return plan_max_degree(subtree_plan(t))


def plan_node_count(plan: list[tuple[PlaneTree, int, list[int]]]) -> int:
    """``node_count`` of the tree whose ``subtree_plan`` is ``plan``."""
    sizes: list[int] = []
    for _, leaves, kids in plan:
        sizes.append(1 + leaves + sum([sizes[c] for c in kids]))
    return sizes[-1] if sizes else 1


def plan_max_degree(plan: list[tuple[PlaneTree, int, list[int]]]) -> int:
    """``max_degree`` of the tree whose ``subtree_plan`` is ``plan``."""
    if not plan:
        return 0  # a single vertex
    return max([len(plan[-1][0].children)] + [len(node.children) + 1 for node, _, _ in plan[:-1]])


def is_decreasing(t: PlaneTree, k: int) -> bool:
    """True iff all labels lie in {1..k} and strictly decrease away from the root."""
    if t.label > k:
        return False
    stack = [t]
    while stack:
        node = stack.pop()
        for child in node.children:
            if child.label >= node.label:
                return False
            stack.append(child)
    return True


def leaning_tree(k: int) -> PlaneTree:
    """Regular leaning tree of order k, with every node labelled order + 1.

    The labelling makes it a valid decreasing tree with root label k + 1:
    a node of order j has children of orders j-1, ..., 0.  Subtree objects
    are shared, so this is O(k^2) to build despite the 2^k logical nodes.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k > LEANING_ORDER_LIMIT:
        raise LimitError(
            f"leaning tree order {k} exceeds the guard {LEANING_ORDER_LIMIT} (2^k nodes)"
        )
    levels: list[PlaneTree] = [PlaneTree(1)]
    for j in range(1, k + 1):
        levels.append(PlaneTree(j + 1, tuple(levels[i] for i in range(j - 1, -1, -1))))
    return levels[k]


def iter_decreasing_trees(
    n: int,
    k: int,
    *,
    root_label: int | None = None,
    max_nodes: int = ENUMERATION_NODE_LIMIT,
    max_labels: int = ENUMERATION_LABEL_LIMIT,
) -> Iterator[PlaneTree]:
    """Every n-node decreasing tree with labels in {1..k}, each exactly once,
    streamed in canonical order (lexicographic by bracket text).

    With ``root_label`` only the trees with that root label are generated.
    Arguments and guards are checked on the call itself; the trees are then
    built one at a time, so memory is bounded by the pools of subtrees (at
    most n-1 nodes, labels below k), not by the number of trees.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if root_label is not None and (not isinstance(root_label, int) or root_label < 1):
        raise ValueError(f"root_label must be a positive integer, got {root_label!r}")
    if n > max_nodes or k > max_labels:
        raise LimitError(
            f"enumeration limited to n <= {max_nodes}, k <= {max_labels} (got n={n}, k={k})"
        )
    if root_label is None:
        labels = sorted(range(1, k + 1), key=str)
    else:
        labels = [root_label] if root_label <= k else []
    return _DecreasingTrees(n).stream(labels)


def enumerate_decreasing_trees(
    n: int,
    k: int,
    *,
    max_nodes: int = ENUMERATION_NODE_LIMIT,
    max_labels: int = ENUMERATION_LABEL_LIMIT,
) -> list[PlaneTree]:
    """Every n-node decreasing tree with labels in {1..k}, as a list in the
    canonical order of ``iter_decreasing_trees``."""
    return list(iter_decreasing_trees(n, k, max_nodes=max_nodes, max_labels=max_labels))


class _DecreasingTrees:
    """Memoised subtree pools behind ``iter_decreasing_trees``.

    The canonical order splits into pieces.  Trees sort first by the text of
    their root label (a label whose digits are a prefix of another's sorts
    first, because '(' and the end of text precede every digit), then by the
    text of their child list.  Child lists of a fixed total size sort by the
    text of their first child, then by the rest: where one possible first
    child's text is a prefix of another's, the shorter is a leaf, and the
    separator after it sorts before what continues the longer (' ' precedes
    '(' and every digit; ')' follows a leaf only in a one-node list, where
    the longer is a leaf too and continues with a digit).  So sorting the
    small pool of possible first children and recursing on the remaining
    size yields child lists in order, without holding or sorting the whole
    family.
    """

    def __init__(self, n: int):
        self._n = n
        self._pools: dict[tuple[int, int], list[PlaneTree]] = {}
        self._firsts: dict[tuple[int, int], list[tuple[PlaneTree, int]]] = {}
        self._lists: dict[tuple[int, int], list[tuple[PlaneTree, ...]]] = {}
        self._text: dict[int, str] = {}
        # child lists this small are kept once built: they number about as
        # many as the subtree pools, and replaying a list is about twice as
        # fast as generating it again
        self._kept = n - 3

    def stream(self, labels: list[int]) -> Iterator[PlaneTree]:
        n = self._n
        # _fast_tree inlined: a call per tree costs about a tenth of the stream
        new = PlaneTree.__new__
        for label in labels:
            for children in self._forests(n - 1, label - 1) if n > 1 else [()]:
                tree = new(PlaneTree)
                tree.label = label
                tree.children = children
                tree._hash = None
                yield tree

    def _forests(self, m: int, bound: int) -> Iterator[tuple[PlaneTree, ...]]:
        # child lists of m nodes in total with labels <= bound, in text order
        for tree, size in self._first_children(m, bound):
            if size == m:
                yield (tree,)
            else:
                head = (tree,)
                for rest in self._forest_list(m - size, bound):
                    yield head + rest

    def _forest_list(self, m: int, bound: int) -> Iterable[tuple[PlaneTree, ...]]:
        if m > self._kept:
            return self._forests(m, bound)
        key = (m, bound)
        cached = self._lists.get(key)
        if cached is None:
            cached = self._lists[key] = list(self._forests(m, bound))
        return cached

    def _first_children(self, m: int, bound: int) -> list[tuple[PlaneTree, int]]:
        # (subtree, size) for every subtree of at most m nodes with labels
        # <= bound, sorted by text
        key = (m, bound)
        cached = self._firsts.get(key)
        if cached is None:
            text = self._text
            entries = [
                (text[id(tree)], tree, size)
                for size in range(1, m + 1)
                for label in range(1, bound + 1)
                for tree in self._pool(size, label)
            ]
            entries.sort(key=itemgetter(0))
            cached = self._firsts[key] = [(tree, size) for _, tree, size in entries]
        return cached

    def _pool(self, size: int, label: int) -> list[PlaneTree]:
        # every tree of ``size`` nodes with root label ``label``; their texts
        # are recorded by id (pool trees stay alive with the pool)
        key = (size, label)
        cached = self._pools.get(key)
        if cached is None:
            text = self._text
            if size == 1:
                cached = [_fast_tree(label, ())]
                text[id(cached[0])] = str(label)
            else:
                cached = []
                head = "%d(" % label
                for children in self._forests(size - 1, label - 1):
                    tree = _fast_tree(label, children)
                    text[id(tree)] = head + " ".join([text[id(c)] for c in children]) + ")"
                    cached.append(tree)
            self._pools[key] = cached
        return cached


def _fast_tree(label: int, children: tuple[PlaneTree, ...]) -> PlaneTree:
    # construction without argument validation, for enumeration hot paths
    t = PlaneTree.__new__(PlaneTree)
    t.label = label
    t.children = children
    t._hash = None
    return t


def random_plane_tree(size: int, rng: random.Random) -> PlaneTree:
    """Random rooted tree on ``size`` nodes by uniform attachment, labels all 1.

    Each new node picks a uniformly random earlier node as its parent, which
    keeps typical heights logarithmic.  Used by the verification harness and
    the test suite; no uniformity over tree shapes is claimed.
    """
    if size < 1:
        raise ValueError("size must be positive")
    kids: list[list[int]] = [[] for _ in range(size)]
    for i in range(1, size):
        kids[rng.randrange(i)].append(i)
    # every node's children come after it, so build from the last node back
    built: list = [None] * size
    for i in range(size - 1, -1, -1):
        built[i] = PlaneTree(1, tuple([built[c] for c in kids[i]]))
    return built[0]
