"""The node-by-node walks over ``children()`` that the closed forms replaced.

These are the generic traversals that every tree once shared, kept
verbatim as functions of the tree: a depth-first walk for the postorder
and links, and a breadth-first pass for the evaluation schedule.  The
closed forms of :class:`~nandtree.model.TreeSpec` and
:class:`~nandtree.layout.ChainedTree` must give the same arrays bit for
bit: the same levels, once stacked levels are expanded row by row
(:func:`expanded`), and the same dots, parents and signs once both are
put in ascending id order (:func:`dots`, :func:`by_id`).
:class:`WalkedTree` evaluates a test-built tree through them.
"""

from itertools import chain

import numpy as np

from nandtree.model import Level, Link, RootedTree, _child_slots


def walk(tree) -> tuple[list[int], list[tuple[int, ...]]]:
    """``postorder()`` and each of its nodes' ``children()``."""
    order: list[int] = []
    kids: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...] | None]] = [(tree.root, None)]
    while stack:
        node, cs = stack.pop()
        if cs is None:
            cs = tree.children(node)
            stack.append((node, cs))
            for c in reversed(cs):
                stack.append((c, None))
        else:
            order.append(node)
            kids.append(cs)
    return order, kids


def postorder(tree) -> list[int]:
    """Reachable nodes, children before parents, fixed order."""
    return walk(tree)[0]


def links(tree) -> list[Link]:
    """(parent, child) pairs of the reachable structure."""
    return [(n, c) for n, cs in zip(*walk(tree)) for c in cs]


def postorder_arrays(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``postorder()`` and ``links()`` as int arrays of shape (n,) and
    (m, 2), with each node's ``leaf_sign * leaf_bit`` (0 for internal
    nodes) in postorder.
    """
    order, kids = walk(tree)
    nodes = np.array(order, dtype=np.int64)
    counts = np.fromiter(map(len, kids), np.int64, len(kids))
    children = np.fromiter(chain.from_iterable(kids), np.int64, counts.sum())
    leaves = counts == 0
    signs = np.zeros_like(nodes)
    signs[leaves] = [tree.leaf_sign(n) * tree.leaf_bit(n) for n in nodes[leaves].tolist()]
    return nodes, np.stack([nodes.repeat(counts), children], axis=1), signs


def by_id(dots) -> tuple[np.ndarray, ...]:
    """The arrays of a tree's ``dots()``, reordered by ascending id."""
    order = np.argsort(dots[0])
    return tuple(a[order] for a in dots)


def dots(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dots()`` by the depth-first walk: the nodes of
    :func:`postorder_arrays` in ascending id order, with their parents
    (-1 for the root) and signs."""
    nodes, links, signs = postorder_arrays(tree)
    order = np.argsort(nodes)
    ids = nodes[order]
    parents = np.full_like(ids, -1)
    parents[np.searchsorted(ids, links[:, 1])] = links[:, 0]
    return ids, parents, signs[order]


def levels(tree) -> list[Level]:
    """Bottom-up evaluation schedule by a breadth-first pass: one
    :class:`~nandtree.model.Level` per distance from the root, the
    deepest first, each listing its nodes in breadth-first order."""
    out: list[Level] = []
    nodes = [tree.root]
    while nodes:
        kids = list(map(tree.children, nodes))
        counts = np.fromiter(map(len, kids), np.int64, len(kids))
        slots = _child_slots(counts, int(counts.min()), int(counts.max()))
        out.append(Level(np.array(nodes, dtype=np.intp), slots))
        nodes = list(chain.from_iterable(kids))
    out.reverse()
    return out


def expanded(schedule) -> list[Level]:
    """``schedule`` with each stacked level split into its rows, deepest
    first: a row above the bottom one takes the uniform one-child slot,
    and the top row of a stacked root has no ``up``."""
    same = _child_slots(np.ones(1, np.int64), 1, 1)
    out: list[Level] = []
    for level in schedule:
        if level.nodes.ndim == 1:
            out.append(level)
            continue
        rows = len(level.nodes)
        for r in range(rows):
            up = None if level.up is None or (level is schedule[-1] and r == rows - 1) \
                else level.up[r]
            out.append(Level(level.nodes[r], level.slots if r == 0 else same,
                             None if level.rows is None else level.rows[r], up))
    return out


class WalkedTree(RootedTree):
    """A tree given by ``root`` and ``children()`` alone, its shape
    computed by the walks (``dots()`` also needs ``leaf_bit()`` and
    ``leaf_sign()``)."""

    dots = dots
    levels = levels
