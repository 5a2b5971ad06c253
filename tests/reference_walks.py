"""The node-by-node walks over ``children()`` that the closed forms replaced.

These are the generic traversals that every tree once shared, kept
verbatim as functions of the tree: a depth-first walk for the postorder
and links, and a breadth-first pass for the evaluation schedule.  The
closed forms of :class:`~nandtree.model.TreeSpec` and
:class:`~nandtree.layout.ChainedTree` must give the same arrays bit for
bit: the same levels, once stacked levels are expanded row by row
(:func:`expanded`), and the same dots, parents and signs once both are
put in ascending id order (:func:`dots`, :func:`by_id` of
:func:`tree_dots`).
:class:`WalkedTree` evaluates a test-built tree through them, its levels
located in its own table codes, and :func:`located` finds a schedule's
dots and links in parameter tables by ``ParamTable.find``, the reference
for the rows a closed form gives.

The walks read a tree one node at a time through :func:`children_of`,
:func:`leaf_bit` and :func:`leaf_sign`: the heap rule of a
:class:`~nandtree.model.TreeSpec` and its leaf bit and sign, kept
verbatim from the methods the package once had, a
:class:`~nandtree.layout.ChainedTree`'s children from its ``links()``,
and a test-built tree's own ``children()``.  :func:`as_dict` turns a
parameter table into the dict the verbatim references read key by key,
and :func:`assemble` is the dense oracle's walked assembly.
"""

from itertools import chain

import numpy as np

from nandtree.dense import MAX_ORACLE_DEPTH, HamiltonianMatrix
from nandtree.layout import ChainedTree
from nandtree.model import Level, RootedTree, StructureError, TreeSpec, _child_slots, _pack

Link = tuple[int, int]


def heap_children(tree: TreeSpec, node: int) -> tuple[int, ...]:
    """The children of heap node ``node``: 2 node and 2 node + 1, only the
    left one below a NOT marker, none below a leaf."""
    if node >= tree.n_leaves:
        return ()
    if node in tree.not_markers:
        return (2 * node,)
    return (2 * node, 2 * node + 1)


def children_of(tree):
    """The ``children(node)`` rule of ``tree``, each node's children left
    to right: the heap rule of a :class:`~nandtree.model.TreeSpec`, the
    links of a :class:`~nandtree.layout.ChainedTree` grouped by parent in
    the order ``links()`` lists them (the preorder, left child first), or
    a test-built tree's own ``children`` method."""
    if isinstance(tree, TreeSpec):
        return lambda node: heap_children(tree, node)
    if not isinstance(tree, ChainedTree):
        return tree.children
    ids, parents = tree.links()
    kids: dict[int, tuple[int, ...]] = {}
    for parent, child in zip(parents.tolist(), ids.tolist()):
        kids[parent] = kids.get(parent, ()) + (child,)
    return lambda node: kids.get(node, ())


def leaf_index(tree, node: int) -> int:
    """Input-bit index i of leaf node N + i of ``tree``, or of the logical
    tree under a chained or test-built one."""
    spec = tree if isinstance(tree, TreeSpec) else tree.tree
    if node < spec.n_leaves:
        raise StructureError(f"node {node} is not a leaf")
    return node - spec.n_leaves


def leaf_bit(tree, node: int) -> int:
    spec = tree if isinstance(tree, TreeSpec) else tree.tree
    return spec.input_bits[leaf_index(tree, node)]


def leaf_sign(tree, node: int) -> int:
    """Alternating detuning sign s_i = (-1)**i for leaf N + i."""
    return -1 if leaf_index(tree, node) % 2 else 1


def as_dict(table) -> dict:
    """A :class:`~nandtree.model.ParamTable` as a dict from Python ints, or
    (parent, child) int pairs, to floats (to lists of per-sample floats
    with a sample axis), in the table's key order."""
    keys = table.keys_array.tolist()
    return dict(zip(map(tuple, keys) if table.links else keys, table.values_array.T.tolist()))


def walk(tree) -> tuple[list[int], list[tuple[int, ...]]]:
    """``postorder()`` and each of its nodes' ``children()``."""
    children = children_of(tree)
    order: list[int] = []
    kids: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...] | None]] = [(tree.root, None)]
    while stack:
        node, cs = stack.pop()
        if cs is None:
            cs = children(node)
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


def postorder_arrays(tree) -> tuple[np.ndarray, np.ndarray]:
    """``postorder()`` and ``links()`` as int arrays of shape (n,) and
    (m, 2)."""
    order, kids = walk(tree)
    nodes = np.array(order, dtype=np.int64)
    counts = np.fromiter(map(len, kids), np.int64, len(kids))
    children = np.fromiter(chain.from_iterable(kids), np.int64, counts.sum())
    return nodes, np.stack([nodes.repeat(counts), children], axis=1)


def tree_dots(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A tree's dots as it lists them: ``links()`` and each dot's
    ``leaf_values()``, three aligned arrays in the tree's own order."""
    ids, parents = tree.links()
    return ids, parents, tree.leaf_values(ids)


def by_id(dots) -> tuple[np.ndarray, ...]:
    """The arrays of :func:`tree_dots`, reordered by ascending id."""
    order = np.argsort(dots[0])
    return tuple(a[order] for a in dots)


def id_links(tree) -> tuple[np.ndarray, np.ndarray]:
    """``links()`` by the depth-first walk: the nodes of
    :func:`postorder_arrays` in ascending id order, with their parents
    (-1 for the root)."""
    nodes, links = postorder_arrays(tree)
    ids = np.sort(nodes)
    parents = np.full_like(ids, -1)
    parents[np.searchsorted(ids, links[:, 1])] = links[:, 0]
    return ids, parents


def dots(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`tree_dots` by the depth-first walk: :func:`id_links`, with
    each dot's ``leaf_sign * leaf_bit`` (0 for a dot with children)."""
    ids, parents = id_links(tree)
    leaves = ~np.isin(ids, parents)
    signs = np.zeros_like(ids)
    signs[leaves] = [leaf_sign(tree, n) * leaf_bit(tree, n) for n in ids[leaves].tolist()]
    return ids, parents, signs


def levels(tree) -> list[Level]:
    """Bottom-up evaluation schedule by a breadth-first pass: one
    :class:`~nandtree.model.Level` per distance from the root, the
    deepest first, each listing its nodes in breadth-first order."""
    out: list[Level] = []
    nodes = [tree.root]
    children = children_of(tree)
    while nodes:
        kids = list(map(children, nodes))
        counts = np.fromiter(map(len, kids), np.int64, len(kids))
        slots = _child_slots(counts, int(counts.min()), int(counts.max()))
        out.append(Level(np.array(nodes, dtype=np.intp), slots))
        nodes = list(chain.from_iterable(kids))
    out.reverse()
    return out


def located(tree, params, schedule) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per row of :func:`expanded` ``schedule``: where ``ParamTable.find``
    finds its dots in ``params.epsilon`` and the links into them in
    ``params.coupling`` (``None`` for the root's row)."""
    ids, parents = tree.links()
    parent = np.zeros(ids.max() + 1, np.int64)
    parent[ids] = parents
    rows = expanded(schedule)
    return [(params.epsilon.find(row.nodes), None if row is rows[-1] else
             params.coupling.find(np.stack([parent[row.nodes], row.nodes], axis=1)))
            for row in rows]


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
    computed by the walks (``leaf_values()`` also needs ``tree``, the
    logical tree whose leaves it has)."""

    links = id_links

    def levels(self) -> list[Level]:
        """:func:`levels`, each level located in the tables whose codes are
        ``RootedTree.sorted_codes``: the ``rows`` of its dots and, below the
        root, the ``up`` of the links into them."""
        ids, parents = self.links()
        codes = RootedTree.sorted_codes(self)[1]
        schedule = levels(self)
        out = []
        for level in schedule:
            rows = np.searchsorted(ids, level.nodes)
            up = None if level is schedule[-1] else \
                np.searchsorted(codes, _pack(parents[rows], level.nodes))
            out.append(level._replace(rows=rows, up=up))
        return out

    def leaf_values(self, ids):
        walked, _, signs = dots(self)
        return signs[np.searchsorted(walked, ids)]


def assemble(tree, params) -> HamiltonianMatrix:
    """H with diagonal eps_i and off-diagonal -t on each (parent, child) link.

    The dense oracle's assembly from before it read ``links()``: the dots
    are collected by a walk over ``children()`` from the root; nodes
    dropped by NOT markers are absent.
    """
    children = children_of(tree)
    epsilon, coupling = as_dict(params.epsilon), as_dict(params.coupling)
    nodes, stack = [], [tree.root]
    while stack:
        nodes.append(stack.pop())
        stack.extend(children(nodes[-1]))
    nodes = tuple(sorted(nodes))
    if len(nodes) > 2 ** (MAX_ORACLE_DEPTH + 1) - 1:
        raise StructureError(f"dense oracle capped at depth {MAX_ORACLE_DEPTH}")
    idx = {n: i for i, n in enumerate(nodes)}
    H = np.zeros((len(nodes), len(nodes)))
    for n in nodes:
        H[idx[n], idx[n]] = epsilon[n]
        for c in children(n):
            H[idx[n], idx[c]] = H[idx[c], idx[n]] = -coupling[(n, c)]
    return HamiltonianMatrix(nodes=nodes, matrix=H)
