"""Seeded inputs for the workloads: trees as parent arrays and bracket text.

A tree is a parent array in preorder: ``parent[0] == -1`` and every other
vertex's parent comes before it.  The bracket text gives every node the
label 1, as `planetrees eigen` and `planetrees uh` ignore labels.  Nothing
here imports the program or any numerical package, so building inputs costs
the same whatever the program does.
"""

from __future__ import annotations

import random


def uniform_attachment(size: int, rng: random.Random) -> list[int]:
    """Random recursive tree: node i hangs below a uniform earlier node."""
    return preorder([-1] + [rng.randrange(i) for i in range(1, size)])


def path(size: int) -> list[int]:
    return [-1] + list(range(size - 1))


def star(size: int) -> list[int]:
    return [-1] + [0] * (size - 1)


def broom(handle: int, bristles: int) -> list[int]:
    """A path of ``handle`` nodes whose last node carries ``bristles`` leaves."""
    return path(handle) + [handle - 1] * bristles


def children_lists(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)
    return kids


def preorder(parent: list[int]) -> list[int]:
    """Renumber a tree given by any parent array with parent[i] < i in
    preorder, children kept in index order."""
    kids = children_lists(parent)
    out: list[int] = []
    stack = [(0, -1)]
    while stack:
        v, p = stack.pop()
        index = len(out)
        out.append(p)
        stack.extend((c, index) for c in reversed(kids[v]))
    return out


def to_bracket(parent: list[int]) -> str:
    """Bracket text, every label 1, built without recursion."""
    kids = children_lists(parent)
    out = []
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not kids[item]:
            out.append("1")
        else:
            out.append("1(")
            stack.append(")")
            for i, c in enumerate(reversed(kids[item])):
                if i:
                    stack.append(" ")
                stack.append(c)
    return "".join(out)


def from_bracket(text: str) -> list[int]:
    """Parent array of bracket text (labels ignored), without recursion."""
    parent: list[int] = []
    open_nodes: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            parent.append(open_nodes[-1] if open_nodes else -1)
            continue
        if ch == "(":
            open_nodes.append(len(parent) - 1)
        elif ch == ")":
            if not open_nodes:
                raise ValueError("unbalanced tree text")
            open_nodes.pop()
        elif ch != " ":
            raise ValueError(f"unexpected {ch!r} in tree text")
        i += 1
    if open_nodes or parent.count(-1) != 1:
        raise ValueError("unbalanced tree text")
    return parent
