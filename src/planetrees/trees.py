"""Labelled plane trees: representation, bracket text format, enumeration.

A plane tree is a rooted tree whose children are linearly ordered.  Nodes
carry positive integer labels.  A tree is "decreasing" for a label bound k
when every label lies in {1..k} and each child's label is strictly smaller
than its parent's.

The regular leaning tree of order k is the recursive tree whose root has k
children carrying, left to right, the leaning trees of orders k-1 down to 0.
It has 2^k nodes.  Instances built here share subtree objects (the structure
is immutable), so construction is cheap.  ``subtree_plan`` lists each
distinct labelled shape once (a subtree with its children taken as a
multiset, however many objects carry it), children first, and the per-tree
quantities (``node_count``, ``max_degree``, Ulam-Harris values, eigenvalue
pivots and root walk counts) are computed over that list: k shapes for the
leaning tree of order k, not its 2^k nodes, and a parsed tree, whose every
inner node is a fresh object, costs its distinct shapes too.  A plan
ends with its root's entry, so ``plan[-1][0]`` is the tree (a one-node
tree's plan is its root alone), and the ``plan_*`` functions here and in
``spectral`` and ``ulam_harris`` take the plan alone.  The parser builds
that list as it reads bracket text, filing each node as its ``)`` closes
(``parse_plan``), so ``eigen`` and ``uh`` take the tree and its plan from
one pass over their input and build no second plan.  No traversal of a
given tree is bounded by the interpreter's recursion limit, only by memory:
``PlaneTree.__hash__`` fills the hashes children first, and
``PlaneTree.__eq__`` compares by recursive tuple comparison, its fast path,
and finishes with an explicit stack where the trees are too deep for it.

``iter_decreasing_trees(n, k)`` streams every n-node decreasing tree with
labels in {1..k} in canonical order: by root label as a number, then child
by child, a child ranked by its node count, then its root label, then its
own children the same way, the order in which the recurrence composes a
root over child subtrees.  It builds each tree as it is yielded and holds
only memoised pools of subtrees of at most n - 2 nodes, never the whole
family: a subtree of n - 1 nodes is the single child of a root, met once,
so it is built when the stream reaches it and dropped.  ``root_label=r``
generates just the trees with root label r.  ``count_trees_by_enumeration``
counts the stream at about half the cost of draining it: it visits every
child list the stream builds, one by one, without the root node that would
wrap it, and reads no count off a pool or list size, so it stays an
enumeration, independent of the series.  The one size guard, the exact
number of trees the call will yield, is checked when either is called.

Leaves with labels up to ``SHARED_LEAF_MAX`` = 64 are one object per label
for the whole process (``_leaf``): every enumerated tree and every tree
that ``bijection.build_tree_from_walk`` builds holds these, so neither
allocates a node per leaf, and equality meets a shared leaf by identity.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

from .errors import LimitError, TreeParseError
from .series import count_trees, count_with_root_label

#: cap on the k(k + 1)/2 child references of the leaning tree of order k,
#: which building it and each plan pass touch (k = 2000: ``lambda1`` in 1 s)
LEANING_REFERENCE_LIMIT = 2_001_000
#: default cap on the exact number of trees yielded, which sets the cost: the
#: 5,510,096 of (n, k) = (8, 7) take about 0.75 s and 24 MB peak RSS through
#: ``count 8 7 --method enumerate``, which counts them without building the
#: roots, and about 1.6 s streamed (CPython 3.11.7, a shared 2-core Linux
#: container), and the 51,911,249 of (9, 7) are refused
ENUMERATION_TREE_LIMIT = 6_000_000
#: the characters of a label: ASCII digits only, where ``str.isdigit`` admits
#: others that ``int`` reads or refuses
_DIGITS = frozenset("0123456789")


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
        try:
            # tuple comparison recurses, one level per call: fast on shallow trees
            return self.label == other.label and self.children == other.children
        except RecursionError:
            return _same_tree(self, other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _fill_hashes(self)
        return h

    def __repr__(self) -> str:
        return f"<PlaneTree {format_tree(self)}>"


def _same_tree(a: PlaneTree, b: PlaneTree) -> bool:
    # ``a == b`` with an explicit stack, for trees too deep to compare by recursion
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.label != b.label or len(a.children) != len(b.children):
            return False
        stack.extend(zip(a.children, b.children))
    return True


def _fill_hashes(t: PlaneTree) -> int:
    # hash every unhashed node of ``t`` children first, so that hashing a
    # node's (label, children) tuple reads its children's stored hashes
    stack = [t]
    while stack:
        node = stack[-1]
        unhashed = [c for c in node.children if c._hash is None]
        if unhashed:
            stack += unhashed
        else:
            stack.pop()
            node._hash = hash((node.label, node.children))
    return t._hash


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
    return parse_plan(text)[0]


def parse_plan(text: str) -> tuple[PlaneTree, list[tuple[PlaneTree, int, list[int]]]]:
    """Parse bracket notation into the tree and its ``subtree_plan``,
    reporting the position of the first error.

    Labels are ASCII decimal digits.  Each node is filed in the plan as its
    ``)`` closes, the order in which ``subtree_plan`` meets the nodes of the
    tree, so the one pass over the text gives the plan entry for entry as
    ``subtree_plan`` of the tree would, a one-node tree's root included.
    Leaves written alike are one object.
    """
    pos = 0
    n = len(text)
    plan: list[tuple[PlaneTree, int, list[int]]] = []
    entries: dict[tuple[int, ...], int] = {}
    # nodes whose child list is still open: (label, children so far,
    # positions of the non-leaf ones, the codes of all of them)
    stack: list[tuple[int, list[PlaneTree], list[int], list[int]]] = []
    leaves: dict[str, PlaneTree] = {}  # one leaf object per label text
    while True:
        start = pos
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        if pos == start:
            raise TreeParseError("expected a label", pos)
        if pos < n and text[pos] == "(":
            label = int(text[start:pos])
            if label == 0:
                raise TreeParseError("label 0 is not allowed", start)
            pos += 1
            stack.append((label, [], [], []))
            continue
        digits = text[start:pos]
        node = leaves.get(digits)
        if node is None:
            label = int(digits)
            if label == 0:
                raise TreeParseError("label 0 is not allowed", start)
            node = leaves[digits] = _fast_tree(label, ())
        code = -node.label
        # hand the finished node to its parent, closing every list that ends here
        while stack:
            _, children, kids, codes = stack[-1]
            children.append(node)
            codes.append(code)
            if code >= 0:
                kids.append(code)
            if pos < n and text[pos] == " ":
                pos += 1
                break  # a sibling follows
            if pos >= n or text[pos] != ")":
                raise TreeParseError("expected ')' or ' '", pos)
            pos += 1
            label, children, kids, codes = stack.pop()
            node = _fast_tree(label, tuple(children))
            code = _file_shape(plan, entries, node, kids, codes)
        else:
            break  # the root is finished
    if pos != n:
        raise TreeParseError("trailing input after tree", pos)
    if not node.children:
        plan.append((node, 0, []))  # a one-node tree: its root is its plan
    return node, plan


def subtree_plan(t: PlaneTree) -> list[tuple[PlaneTree, int, list[int]]]:
    """Each distinct non-leaf labelled shape of ``t`` once, children before
    parents, as ``(representative, number of leaf children, positions of the
    other children)``.

    A shape is a subtree with its children taken as a multiset: two nodes
    share an entry when they have the same label, the same leaf-child labels
    and the same entries for their other children, in any order and whether
    or not they are one object.  The first node met of a shape represents
    it, and its positions index this list in its own child order, repeated
    when a child shape repeats.  A shape has the same size, degree,
    Ulam-Harris value and witness, pivots and walk counts wherever it
    occurs, so one pass over the list computes them at the cost of the
    distinct shapes: k entries for ``leaning_tree(k)`` (one at k = 0), and
    for a parsed tree, a fresh object at every inner node, its shapes rather
    than its nodes.  Leaves are not listed (callers take them as the base
    case) except the root of a one-node tree, whose plan is
    ``[(t, 0, [])]``: the root is always the last entry, so ``plan[-1][0]``
    is ``t``.
    """
    if not t.children:
        return [(t, 0, [])]
    plan: list[tuple[PlaneTree, int, list[int]]] = []
    position: dict[int, int] = {}  # id of a finished object -> its entry
    entries: dict[tuple[int, ...], int] = {}
    # (node, its children not yet visited, positions of its listed
    # children, the codes of its children visited so far)
    stack = [(t, iter(t.children), [], [])]
    while stack:
        node, pending, kids, codes = stack[-1]
        for child in pending:
            if child.children:
                listed = position.get(id(child))
                if listed is None:
                    stack.append((child, iter(child.children), [], []))
                    break
                kids.append(listed)  # an object already finished
                codes.append(listed)
            else:
                codes.append(-child.label)
        else:
            stack.pop()
            listed = position[id(node)] = _file_shape(plan, entries, node, kids, codes)
            if stack:
                parent = stack[-1]
                parent[2].append(listed)
                parent[3].append(listed)
    return plan


def _file_shape(plan: list, entries: dict, node: PlaneTree, kids: list, codes: list) -> int:
    """The plan entry of ``node``'s shape, listed last if it is new.

    ``kids`` are the entries of its non-leaf children in its own child
    order, and ``codes`` hold a code for every child: a leaf's label
    negated, any other child's entry.  A shape's key in ``entries`` is its
    label followed by its codes, sorted together.
    """
    codes.sort()
    key = (node.label, *codes)
    listed = entries.get(key)
    if listed is None:
        listed = entries[key] = len(plan)
        plan.append((node, len(codes) - len(kids), kids))
    return listed


def node_count(t: PlaneTree) -> int:
    """Number of nodes, counting a shared subtree once per occurrence.

    One pass over ``subtree_plan``: ``leaning_tree(k)`` costs k shapes
    although it has 2^k nodes.
    """
    return plan_node_count(subtree_plan(t))


def max_degree(t: PlaneTree) -> int:
    """Maximum vertex degree of the underlying (undirected) tree.

    The root contributes its child count; every other node contributes its
    child count plus one for the parent edge.  Every listed shape but the
    root's occurs as a non-root vertex (sizes strictly decrease down a root
    path, so the root's shape occurs nowhere else), and a leaf's degree 1
    never exceeds its parent's, so this reads the distinct shapes of
    ``subtree_plan`` only.
    """
    return plan_max_degree(subtree_plan(t))


def plan_node_count(plan: list[tuple[PlaneTree, int, list[int]]]) -> int:
    """``node_count`` of the tree whose ``subtree_plan`` is ``plan``."""
    sizes: list[int] = []
    for _, leaves, kids in plan:
        sizes.append(1 + leaves + sum([sizes[c] for c in kids]))
    return sizes[-1]


def plan_max_degree(plan: list[tuple[PlaneTree, int, list[int]]]) -> int:
    """``max_degree`` of the tree whose ``subtree_plan`` is ``plan``."""
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
    are shared, so this is O(k^2) to build despite the 2^k logical nodes:
    its k(k + 1)/2 child references must not exceed ``LEANING_REFERENCE_LIMIT``.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    limit = LEANING_REFERENCE_LIMIT
    if k * (k + 1) // 2 > limit:
        raise LimitError(f"leaning tree limited to {limit:,} child references (order {k})")
    levels: list[PlaneTree] = [PlaneTree(1)]
    for j in range(1, k + 1):
        levels.append(PlaneTree(j + 1, tuple(levels[i] for i in range(j - 1, -1, -1))))
    return levels[k]


def iter_decreasing_trees(
    n: int,
    k: int,
    *,
    root_label: int | None = None,
    max_trees: float = ENUMERATION_TREE_LIMIT,
) -> Iterator[PlaneTree]:
    """Every n-node decreasing tree with labels in {1..k}, each exactly once,
    streamed in canonical order: by root label, then child by child, a
    child ranked by node count, root label and its own children in turn.

    With ``root_label`` only the trees with that root label are generated.
    Arguments and the guard are checked on the call itself; the trees are
    then built one at a time, so memory is bounded by the pools of subtrees
    (at most n-2 nodes, labels below k), not by the number of trees, which
    must not exceed ``max_trees``.
    """
    labels = _admitted_labels(n, k, root_label, max_trees)
    return _DecreasingTrees(n).stream(labels)


def count_trees_by_enumeration(n: int, k: int, *, max_trees: float = ENUMERATION_TREE_LIMIT) -> int:
    """The number of trees ``iter_decreasing_trees`` would yield for the
    same arguments, counted one by one: every child list under each root
    label is built and visited once, in stream order, and only the root node
    that would wrap it is left out.

    This is the enumeration route of the count agreement, kept apart from
    the series: no count is read off a pool or list size.  Arguments and
    the guard are those of ``iter_decreasing_trees``.
    """
    labels = _admitted_labels(n, k, None, max_trees)
    return _DecreasingTrees(n).count(labels)


def _admitted_labels(n: int, k: int, root_label: int | None, max_trees: float) -> Sequence[int]:
    """The root labels an n-node enumeration with labels in {1..k} runs
    over, after the argument checks and the exact-count guard."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if root_label is not None and (not isinstance(root_label, int) or root_label < 1):
        raise ValueError(f"root_label must be a positive integer, got {root_label!r}")
    over = _count_over(max_trees, n, k, root_label)
    if over is not None:
        raise LimitError(f"enumeration limited to {max_trees:,} trees (n={n}, k={k} gives {over})")
    if root_label is None:
        return range(1, k + 1)
    return [root_label] if root_label <= k else []


def _count_over(limit: float, n: int, k: int, root_label: int | None = None) -> str | None:
    """The number of n-node decreasing trees with labels in {1..k} (and
    root label r if given, else r = k) as text if over ``limit``, else None.
    Lower bounds refuse first, without the series: (r - 1)^(n - 1), a root
    over leaves, and C(k, n), chains (C(r - 1, n - 1) under a given root),
    each stopped past the limit within a few dozen factors (C(m, j) >= 2^j
    up to j = m/2, and the power doubles a factor from r = 3).  A tree of at
    most two nodes is a chain, so there the chain count is exact and the
    series is not needed."""
    if limit == math.inf or (root_label is not None and root_label > k):
        return None
    r = k if root_label is None else root_label
    pool, chosen = (k, n) if root_label is None else (r - 1, n - 1)
    power = 1
    for _ in range(n - 1 if r >= 3 else 0):
        power *= r - 1
        if power > limit:
            return f"at least {power:,}"
    chains = 1
    for j in range(min(chosen, pool - chosen)):
        chains = chains * (pool - j) // (j + 1)
        if chains > limit:
            return f"at least {chains:,}"
    if n <= 2:  # 0 if there are fewer labels than chain nodes
        size = chains if chosen <= pool else 0
    else:
        size = count_trees(n, k) if root_label is None else count_with_root_label(n, r)
    return f"{size:,}" if size > limit else None


class _DecreasingTrees:
    """Memoised subtree pools behind ``iter_decreasing_trees``.

    Child lists of m nodes in total, labels up to a bound, come in canonical
    order as their first children do, each followed by the lists of the
    remaining size (of two lists of one total size neither is a proper
    prefix of the other): the pools of sizes 1 .. m - 1, label by label,
    then the subtrees of m nodes as single children.  A pool built from
    lists in order is in order itself, so nothing is sorted.

    Subtrees of n - 1 nodes, most of what pools of every size would hold
    (34,436 of 41,634 at (n, k) = (8, 6)), are not pooled: each is a root's
    single child, used once, and the last of a root's first children, so it
    is built label by label as the stream reaches it, and dropped.
    """

    def __init__(self, n: int):
        self._n = n
        self._pools: dict[tuple[int, int], list[PlaneTree]] = {}
        self._lists: dict[int, list[list[tuple[PlaneTree, ...]]]] = {}  # by bound, size
        # child lists this small are kept once built: they number about as
        # many as the subtree pools, and replaying a list is about twice as
        # fast as generating it again
        self._kept = n - 3

    def stream(self, labels: Iterable[int]) -> Iterator[PlaneTree]:
        n = self._n
        # _fast_tree inlined: a call per tree costs about a tenth of the stream
        new = PlaneTree.__new__
        for label in labels:
            for children in self._forests(n - 1, label - 1):
                tree = new(PlaneTree)
                tree.label = label
                tree.children = children
                tree._hash = None
                yield tree

    def count(self, labels: Iterable[int]) -> int:
        # the trees ``stream(labels)`` yields, one per child list it visits
        n = self._n
        total = 0
        for label in labels:
            for _ in self._forests(n - 1, label - 1):
                total += 1
        return total

    def _forests(self, m: int, bound: int) -> Iterator[tuple[PlaneTree, ...]]:
        # child lists of m nodes in total with labels <= bound, in order
        if m == 0 or bound == 1:  # empty or leaves only: one list, built whole (k = 2 admits any n)
            yield (_leaf(1),) * m
            return
        for size in range(1, m + 1):
            for label in range(1, bound + 1):
                for tree in self._trees(size, label):
                    head = (tree,)
                    for rest in self._forest_list(m - size, bound):
                        yield head + rest

    def _trees(self, size: int, label: int) -> Iterable[PlaneTree]:
        # every tree of ``size`` nodes with root label ``label``, in order:
        # a shared leaf, a pool, or at n - 1 nodes built as met and dropped
        if size == 1:
            return (_leaf(label),)
        if size < self._n - 1:
            return self._pool(size, label)
        return (_fast_tree(label, children) for children in self._forests(size - 1, label - 1))

    def _forest_list(self, m: int, bound: int) -> Iterable[tuple[PlaneTree, ...]]:
        if m > self._kept:
            return self._forests(m, bound)
        # kept smallest first, so that each list is built from kept ones and
        # the stack stays a few frames deep whatever m is
        kept = self._lists.setdefault(bound, [[()]])
        while len(kept) <= m:
            kept.append(list(self._forests(len(kept), bound)))
        return kept[m]

    def _pool(self, size: int, label: int) -> list[PlaneTree]:
        # every tree of ``size`` (2 .. n - 2) nodes with root label ``label``
        key = (size, label)
        cached = self._pools.get(key)
        if cached is None:
            cached = self._pools[key] = [
                _fast_tree(label, children) for children in self._forest_list(size - 1, label - 1)
            ]
        return cached


def _fast_tree(label: int, children: tuple[PlaneTree, ...]) -> PlaneTree:
    # construction without argument validation, for enumeration hot paths
    t = PlaneTree.__new__(PlaneTree)
    t.label = label
    t.children = children
    t._hash = None
    return t


#: leaves labelled 1..SHARED_LEAF_MAX are one shared object per label
SHARED_LEAF_MAX = 64
_LEAVES = (None,) + tuple(_fast_tree(label, ()) for label in range(1, SHARED_LEAF_MAX + 1))


def _leaf(label: int) -> PlaneTree:
    # the process's leaf labelled ``label`` (a positive int), or a fresh one
    # above SHARED_LEAF_MAX
    return _LEAVES[label] if label <= SHARED_LEAF_MAX else _fast_tree(label, ())


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
    # every node's children come after it, so build from the last node back;
    # the leaves are the process's one leaf labelled 1
    built = [_LEAVES[1]] * size
    for i in range(size - 1, -1, -1):
        if kids[i]:
            built[i] = _fast_tree(1, tuple([built[c] for c in kids[i]]))
    return built[0]
