"""The node-by-node walks over ``children()`` that the closed forms replaced.

These are the generic traversals that every tree once shared, kept
verbatim as functions of the tree: a depth-first walk for the postorder
and links, and a breadth-first pass for the evaluation schedule.  The
closed forms of :class:`~nandtree.model.TreeSpec` and
:class:`~nandtree.layout.ChainedTree` must give the same arrays bit for
bit.  :class:`WalkedTree` evaluates a test-built tree through them.
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


class WalkedTree(RootedTree):
    """A tree given by ``root`` and ``children()`` alone, its shape
    computed by the walks (``postorder_arrays()`` also needs
    ``leaf_bit()`` and ``leaf_sign()``)."""

    postorder = postorder
    links = links
    postorder_arrays = postorder_arrays
    levels = levels
