"""H-fractal layout compilation, inverter chains, and feasibility estimates.

A logical tree is laid out on the integer grid as an H-fractal: the two
children of a node sit at distance d along alternating axes, with d
doubling (roughly) every two tree levels so the structure stays planar.
Because every tunnel link must be one dot spacing long, the gap between
a parent and child anchor is filled with inline "inverter" dots; a pair
of inverters is logically transparent up to the slope map
(alpha, beta) -> (1 + alpha, 1 + beta), and a chain of 2d inverters
gives (d + alpha, d + beta).  The published inverter counts per level
are 0, 2, 4, 10, 20, 38, 76 starting from the leaf links.

Layouts and chained trees are arrays throughout.  A tree dot's id is
its tree node and inverters are numbered from 2N.  A chained tree is
its logical tree plus, for each tree node, the ids of the inverter dots
on the link above it (:class:`ChainedTree`).  With one numpy step per
tree level, :func:`_preorder` places every dot in preorder, from the
chain lengths and the tree's reach mask
(:meth:`~nandtree.model.TreeSpec.structure`) alone; the H-fractal's
dots, links and coordinates (:func:`build_hfractal`), and a chained
tree's evaluation schedule and its dots with their parents, follow
from those positions by broadcasting.  :func:`expand_to_tree` reads
the chains back from a layout's links by pointer jumping.  No step
loops over the dots in Python.

The feasibility estimates at the bottom of the module are the only
place in the package that uses physical units (micro-eV, nm, ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (_ID_LIMIT, Level, RootedTree, StructureError, TreeSpec, _child_slots,
                    _pack, _read_only, ideal_parameters)

#: Inverter counts between tree levels, leaf links first.  The published
#: prefix is hard-coded; past it the count keeps all distances odd while
#: at least doubling every level (a_next = 2a + 2).
INVERTER_COUNTS_PREFIX = (0, 2, 4, 10, 20, 38, 76)

#: Deepest :func:`build_hfractal`, set by memory: the depth-16 H-fractal
#: has 1 298 435 dots in 79 865 levels, and building it, expanding it,
#: its ideal parameters and one :func:`~nandtree.greens.classify` peak at
#: about 350 MB resident and take about 3.5 s (measured on x86-64 Linux,
#: Python 3.11, numpy 2.4), twice as much for each level deeper.
MAX_LAYOUT_DEPTH = 16

#: hbar in micro-eV * ns.
HBAR_UEV_NS = 0.6582119569


def inverter_counts(depth: int) -> tuple[int, ...]:
    """Inverter count per link level for a depth-n tree, leaf links first."""
    if depth < 1:
        raise StructureError(f"depth must be >= 1, got {depth}")
    counts = list(INVERTER_COUNTS_PREFIX[:depth])
    while len(counts) < depth:
        counts.append(2 * counts[-1] + 2)
    return tuple(counts)


@dataclass(frozen=True, eq=False)
class LayoutGraph:
    """Planar grid embedding of a tree with its inverter chains.

    ``dots`` holds one (id, x, y) row per dot, ``links`` the
    tunnel-coupled (parent, child) pairs, all unit length, and ``level``
    each dot's role: its tree level, or -1 for an inverter; all int
    arrays, ``level`` aligned with ``dots``.  A tree dot's id is its
    tree node, so the level alone tells which dots are the tree's.
    """

    dots: np.ndarray
    links: np.ndarray
    level: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dots", np.asarray(self.dots, dtype=np.int64).reshape(-1, 3))
        object.__setattr__(self, "links", np.asarray(self.links, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "level", np.asarray(self.level, dtype=np.int64).reshape(-1))
        if len(self.level) != len(self.dots):
            raise StructureError(f"need one level per dot, got {len(self.level)} for "
                                 f"{len(self.dots)} dots")

    @property
    def n_inverters(self) -> int:
        return int(np.count_nonzero(self.level < 0))

    def bounding_box_area(self) -> int:
        xy = self.dots[:, 1:]
        return int(np.prod(xy.max(axis=0) - xy.min(axis=0) + 1))


class _Preorder(NamedTuple):
    """The dots of a chained tree in preorder, one entry per dot."""

    owner: np.ndarray  # the tree node it is, or whose chain it is on
    above: np.ndarray  # its distance up the chain from that node (0: the node)
    parent: np.ndarray  # its parent's position, -1 for the root
    depth: np.ndarray  # its distance from the root
    kids: np.ndarray  # its number of children


def _preorder(tree: TreeSpec, length: np.ndarray) -> _Preorder:
    """The dots of ``tree`` with ``length[c]`` inline dots on the link
    above each heap node c (above the root for c = 1), in preorder with
    each node's children in heap order.

    One numpy step per tree level: the tree nodes' subtree sizes from
    the leaves up, then their preorder positions and depths from the
    root down.  The chain above node c takes the positions and depths
    just before c's, so the other dots follow by broadcasting.  The
    dots' preorder is the breadth-first order of each level.
    """
    reach, kids = tree._structure
    length = np.where(reach, length, 0)
    block = length + 1  # a node with its chain and, once set, its subtree
    for k in range(tree.depth - 1, -1, -1):
        below = block[2 ** (k + 1):2 ** (k + 2)] * reach[2 ** (k + 1):2 ** (k + 2)]
        block[2**k:2 ** (k + 1)] += below[::2] + below[1::2]
    pos, depth = length.copy(), length.copy()
    for k in range(tree.depth):
        up, left = slice(2**k, 2 ** (k + 1)), slice(2 ** (k + 1), None, 2)
        pos[left][:2**k] += pos[up] + 1
        pos[2 ** (k + 1) + 1::2][:2**k] += pos[up] + 1 + block[left][:2**k]
        depth[2 ** (k + 1):2 ** (k + 2)] += depth[up].repeat(2) + 1

    nodes = np.flatnonzero(reach)
    nodes = nodes[np.argsort(pos[nodes])]
    first = pos[nodes] - length[nodes]  # where each node's chain starts
    owner = np.repeat(nodes, length[nodes] + 1)
    at = np.arange(len(owner))
    above = pos[owner] - at
    parent = at - 1
    right = (nodes & 1).astype(bool) & (nodes > 1)  # a right child's chain hangs off its parent
    parent[first[right]] = pos[nodes[right] >> 1]
    return _Preorder(owner, above, parent, depth[owner] - above,
                     np.where(above > 0, 1, kids[owner]))


def build_hfractal(tree: TreeSpec) -> LayoutGraph:
    """H-fractal embedding of ``tree`` with inverter chains per level.

    The root sits at the origin; links at tree level k run along x for
    even k and y for odd k, at center-to-center distance
    (inverter count) + 1.  Inverters are placed on the straight grid
    path between parent and child anchors.  Dots are listed in preorder
    (a node, then the chain to its left child and that child's subtree,
    then the same on the right), inverters numbered from 2N in that
    order, and ``links[i]`` is the link into ``dots[i + 1]``.
    """
    if tree.depth > MAX_LAYOUT_DEPTH:
        raise StructureError(f"layout capped at depth {MAX_LAYOUT_DEPTH}")
    n = tree.n_leaves
    heap = np.arange(2 * n)
    level = np.repeat(np.arange(tree.depth + 1), 2 ** np.arange(tree.depth + 1))
    level = np.concatenate([[0], level])
    length = np.array(inverter_counts(tree.depth) + (0,))[tree.depth - level]
    # Unit step along the link above each node, from its parent.
    sign = np.where(heap & 1, 1, -1) * (heap > 1)
    ux, uy = sign * (level % 2), sign * (1 - level % 2)
    x, y = ux * (length + 1), uy * (length + 1)
    for k in range(1, tree.depth + 1):
        x[2**k:2 ** (k + 1)] += x[2 ** (k - 1):2**k].repeat(2)
        y[2**k:2 ** (k + 1)] += y[2 ** (k - 1):2**k].repeat(2)

    dots = _preorder(tree, length)
    owner, above = dots.owner, dots.above
    inverter = above > 0
    ids = np.where(inverter, 2 * n + np.cumsum(inverter) - 1, owner)
    coords = [x[owner] - ux[owner] * above, y[owner] - uy[owner] * above]
    return LayoutGraph(
        dots=np.stack([ids, *coords], axis=1),
        links=np.stack([ids[dots.parent[1:]], ids[1:]], axis=1),
        level=np.where(inverter, -1, level[owner]),
    )


@dataclass(frozen=True, eq=False)
class ChainedTree(RootedTree):
    """``tree`` with inline inverter dots, evaluable like a :class:`TreeSpec`.

    ``length`` holds, per heap index c in [0, 2N), the number of
    inverter dots on the link above tree node c; for c = 1 they sit
    above the tree root, the topmost one being the chained tree's root.
    ``chains`` holds their ids, chain after chain in heap order of c,
    each from its parent side.  An inverter dot has exactly one child,
    its missing leg acting as a virtual logical "1".  Leaf dots keep
    their tree node ids, so the leaf bits and detuning signs come from
    ``tree`` and :func:`~nandtree.model.ideal_parameters` builds the
    parameters.

    :meth:`levels` and :meth:`links` follow from these arrays through
    the dots' preorder (:func:`_preorder`), with no walk over the dots.
    :meth:`levels` gives each run of single-child levels, the inverter
    chains of one tree level, as one stacked
    :class:`~nandtree.model.Level`, which :mod:`nandtree.greens`
    evaluates as Möbius products.  The levels' rows and
    :meth:`sorted_codes` come from the dots' ranks (:attr:`_ranks`): dense
    ids, as :func:`build_hfractal` and :func:`chain_below` make them, are
    ranked without a sort (:func:`_distinct`), and the links follow from
    their parents' ranks.  The tree keeps read-only int64 copies of
    ``length`` and ``chains``, since what it caches is built from them; a
    copy of the tree is rebuilt through this constructor
    (:meth:`~nandtree.model.RootedTree.__reduce__`), so it keeps its own.
    """

    tree: TreeSpec
    length: np.ndarray
    chains: np.ndarray

    def __post_init__(self):
        for name in ("length", "chains"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), np.int64))[0])

    @property
    def root(self) -> int:
        return int(self.chains[0]) if self.length[1] else self.tree.root

    @cached_property
    def _dots(self) -> tuple[np.ndarray, _Preorder]:
        """Each dot's id, in preorder, and its place in the tree."""
        dots = _preorder(self.tree, self.length)
        ids = dots.owner.copy()
        chain = dots.above > 0
        owner = ids[chain]
        start = np.cumsum(self.length) - self.length
        ids[chain] = self.chains[start[owner] + self.length[owner] - dots.above[chain]]
        return ids, dots

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per dot, in preorder: its row among the ids ascending, and the
        row of the link into it among the (parent, child) links ascending
        (0 at the root); the rows of :meth:`RootedTree.table_codes`.

        The ids' ranks come from :func:`_distinct`, direct for dense ids.
        Links ascend by their parent's rank, so the links out of the dot of
        row r start after those of the dots ranked below it, and a dot has
        at most two children, ordered by id.  In preorder a dot's first
        child follows it, so a dot whose parent is not the dot before it is
        a second child, and its sibling is the dot after their parent.
        """
        ids, dots = self._dots
        rows = _distinct(ids)[1]
        at = np.arange(1, len(ids))
        second = at[dots.parent[1:] != at - 1]
        first = dots.parent[second] + 1
        swap = ids[second] < ids[first]
        after = np.zeros(len(ids), np.intp)  # 1 for the second of two siblings by id
        after[second[~swap]], after[first[swap]] = 1, 1
        kids = np.zeros(len(ids), np.intp)
        kids[rows] = dots.kids
        start = np.cumsum(kids) - kids  # the first link out of the dot of each row
        up = np.zeros(len(ids), np.intp)
        up[1:] = start[rows[dots.parent[1:]]] + after[1:]
        return rows, up

    def sorted_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RootedTree.sorted_codes`, each code put at its row of
        :attr:`_ranks` instead of sorted."""
        (ids, dots), (rows, up) = self._dots, self._ranks
        codes, links = np.empty_like(ids), np.empty(len(ids) - 1, np.int64)
        codes[rows] = ids
        links[up[1:]] = _pack(ids[dots.parent[1:]], ids[1:])
        return codes, links

    def levels(self) -> list[Level]:
        """:meth:`RootedTree.levels` from the dots' preorder: a level lists
        its dots in preorder, which is the breadth-first order, so a
        stable sort by depth gives every level at once, each a slice.
        Each dot's rows come from :attr:`_ranks`.

        A maximal run of two or more single-child levels, an inverter
        chain of every branch at once, is one stacked
        :class:`~nandtree.model.Level`: its depths are consecutive in
        the sorted order, so its nodes, rows and links are that slice
        reshaped to (L, w) and turned deepest row first.
        """
        ids, dots = self._dots
        order = np.argsort(dots.depth, kind="stable")
        nodes, kids = ids[order].astype(np.intp), dots.kids[order]
        rows, up = (rank[order] for rank in self._ranks)
        widths = np.bincount(dots.depth)
        ends = np.cumsum(widths)
        starts = ends - widths
        least, most = np.minimum.reduceat(kids, starts), np.maximum.reduceat(kids, starts)
        single = (least == 1) & (most == 1)
        # A segment is a run of single-child depths, or one other depth.
        first = np.flatnonzero(np.r_[True, ~(single[1:] & single[:-1])])
        last = np.r_[first[1:], len(widths)] - 1
        out = []
        for top, bottom in zip(first.tolist(), last.tolist()):
            lo, hi = int(starts[top]), int(ends[bottom])
            if top == bottom:
                slots = _child_slots(kids[lo:hi], int(least[top]), int(most[top]))
                out.append(Level(nodes[lo:hi], slots, rows[lo:hi], up[lo:hi] if lo else None))
            else:
                shape = (bottom - top + 1, int(widths[top]))
                stack, ranks, links = (a[lo:hi].reshape(shape)[::-1] for a in (nodes, rows, up))
                out.append(Level(stack, _child_slots(kids[lo:hi], 1, 1), ranks, links))
        out.reverse()
        return out

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RootedTree.links` in the dots' preorder."""
        ids, dots = self._dots
        return ids, np.where(dots.parent >= 0, ids[dots.parent], -1)

    def leaf_values(self, ids: np.ndarray) -> np.ndarray:
        return self.tree.leaf_values(ids)


def inverter_map(alpha: float, beta: float, d: int) -> tuple[float, float]:
    """Slope map of a 2d-inverter chain: (alpha, beta) -> (d + alpha, d + beta)."""
    if d < 0:
        raise StructureError(f"chain distance d must be >= 0, got {d}")
    return (d + alpha, d + beta)


def _distinct(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for the dot ids of a layout,
    which must lie in [0, 2**31); the first one outside raises
    :class:`~nandtree.model.StructureError`.

    Ids as :func:`build_hfractal` numbers them are dense (1 up to the
    number of dots), so they are addressed directly: a bitmap marks the
    ids present and a table of ranks maps each to its position, with no
    sort.  That table holds one intp per id up to the largest, so it is
    used only when it is at most twice as large as ``ids`` itself;
    sparser ids are sorted.
    """
    out = (ids < 0) | (ids >= _ID_LIMIT)
    if out.any():
        raise StructureError(f"layout dot id {ids[np.argmax(out)]} lies outside [0, 2**31)")
    size = int(ids.max()) + 1
    if size > 2 * len(ids):
        return np.unique(ids, return_inverse=True)
    seen = np.zeros(size, bool)
    seen[ids] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(size, np.intp)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[ids]


def expand_to_tree(layout: LayoutGraph, tree: TreeSpec) -> ChainedTree:
    """Chain-augmented tree realizing ``layout``: inverter dots become
    single-child nodes on the path between tree levels.

    ``layout.links`` are (parent, child) pairs.  Tree dots carry their
    node ids, as :func:`build_hfractal` numbers them, because the leaves
    take their bits and signs from ``tree``; each reachable tree
    node must hang, through a chain of inverter dots, below its tree
    parent, and the root below nothing.  An odd inverter chain below a
    node without a NOT marker would silently invert the logic and is
    rejected.  Dot ids must lie in [0, 2**31), as parameter tables key
    them, and dense ids, as :func:`build_hfractal` makes them, are ranked
    without a sort (:func:`_distinct`).  Each inverter finds the tree dot
    below its chain, and its distance to it, by pointer jumping: each
    round doubles the hop of every inverter whose hop still ends on an
    inverter, and the rounds stop when none is left, after
    log2(longest chain) of them.  A closed loop of inverters never
    leaves; the rounds end at log2(number of dots) and the loop is
    reported as on no chain.
    """
    n = tree.n_leaves
    reach, kids = tree._structure
    nodes = np.flatnonzero(reach)

    # Dots by position in ``ids``: links, inverters, tree nodes.
    inverters = layout.dots[layout.level < 0, 0]
    ids, at = _distinct(np.concatenate([layout.links.T.ravel(), inverters, nodes]))
    up, down, inv_at, node_at = np.split(at, np.cumsum([len(layout.links)] * 2 + [len(inverters)]))
    n_up, n_down = np.bincount(down, minlength=len(ids)), np.bincount(up, minlength=len(ids))
    if np.any(n_up > 1):
        raise StructureError(f"dot {ids[np.argmax(n_up > 1)]} has more than one parent link")
    inv = np.zeros(len(ids), bool)
    inv[inv_at] = True
    bad = inv & ((n_up != 1) | (n_down != 1))
    if bad.any():
        raise StructureError(f"inverter dot {ids[np.argmax(bad)]} must have exactly 2 links, "
                             f"one up and one down")
    bad = n_down[node_at] != kids[nodes]
    if bad.any():
        node = nodes[np.argmax(bad)]
        raise StructureError(f"tree dot {node} has {n_down[node_at][np.argmax(bad)]} child "
                             f"links for {kids[node]} tree children")
    parent = np.full(len(ids), -1)
    parent[down] = up

    # low: the dot below each inverter, then the tree dot below its chain;
    # dist: the links between them.
    low = np.arange(len(ids))
    low[up[inv[up]]] = down[inv[up]]
    dist = inv.astype(np.int64)
    hop = np.flatnonzero(inv)
    for _ in range(len(ids).bit_length()):
        hop = hop[inv[low[hop]]]
        if not hop.size:
            break
        dist[hop] += dist[low[hop]]
        low[hop] = low[low[hop]]
    is_node = np.zeros(len(ids), bool)
    is_node[node_at] = True
    bad = ~is_node[low[inv]]  # a chain to another dot, or a closed loop
    if bad.any():
        raise StructureError(f"inverter dot {ids[inv][np.argmax(bad)]} is on no chain down "
                             f"to a tree dot")
    below = ids[low[inv]]
    length = np.bincount(below, minlength=2 * n)
    start = np.cumsum(length) - length
    chains = np.empty(len(below), np.int64)
    chains[start[below] + length[below] - dist[inv]] = ids[inv]
    top = nodes.copy()
    chained = length[nodes] > 0
    top[chained] = chains[start[nodes[chained]]]
    hung = parent[np.searchsorted(ids, top)]
    hung = np.where(hung >= 0, ids[hung], -1)
    bad = hung != np.where(nodes > 1, nodes >> 1, -1)
    if bad.any():
        raise StructureError(f"tree dot {nodes[np.argmax(bad)]} does not hang below its "
                             f"tree parent")
    odd = nodes[(length[nodes] % 2 == 1) & (nodes > 1)]
    odd = odd[~np.isin(odd >> 1, list(tree.not_markers))]
    if odd.size:
        raise StructureError(
            f"odd inverter chain ({length[odd[0]]} dots) below unmarked node {odd[0] >> 1}"
        )
    return ChainedTree(tree, length, chains)


def chain_below(tree: TreeSpec, n_inverters: int) -> ChainedTree:
    """Explicit inverter chain coupled below the tree root.

    The returned root is the last chain dot, so classifying it sees the
    tree through ``n_inverters`` inline dots (even counts preserve the
    logical bit, odd counts invert it).  The chain dots are numbered
    from 2N, the one next to the tree root first.
    """
    if n_inverters < 0:
        raise StructureError(f"n_inverters must be >= 0, got {n_inverters}")
    length = np.zeros(2 * tree.n_leaves, np.int64)
    length[1] = n_inverters
    return ChainedTree(tree, length, 2 * tree.n_leaves + np.arange(n_inverters)[::-1])


#: Chain-augmented trees share the tree protocol, so one builder serves both.
ideal_chain_parameters = ideal_parameters


def worst_case_2d(depth: int) -> tuple[float, float, float]:
    """Closed-form slope growth for 1011-block trees on the H-fractal.

    Iterates (alpha_{k}, beta_{k}) = (2**(k/2) + 2 alpha_{k-2}, ...) from
    the bare-leaf-pair base (1, 1) and returns (alpha_n, beta_n, bound)
    with bound = n * 2**(n/2) = log2(N) * sqrt(N).
    """
    if depth % 2 or depth < 0 or depth > 40:
        raise StructureError(f"depth must be even and <= 40, got {depth}")
    alpha = 1.0
    for k in range(2, depth + 1, 2):
        alpha = 2.0 ** (k / 2) + 2.0 * alpha
    bound = depth * 2.0 ** (depth / 2)
    return (alpha, alpha, bound)


@dataclass(frozen=True)
class FeasibilityReport:
    """Largest feasible tree plus the resources it needs, physical units."""

    n_max: int
    area_mm2: float
    eval_time_ns: float
    limiting_factor: str


def feasibility(
    gamma_phys: float,
    t_phys: float,
    Gamma_phys: float,
    sigma_eps_phys: float,
    sigma_t_phys: float,
    spacing_nm: float,
) -> FeasibilityReport:
    """Device-feasibility estimate from physical parameters.

    Energies in micro-eV, spacing in nm.  The operating requirement
    gamma, sigma_eps << t/sqrt(N) limits the input size to
    N = 2**floor(2 log2(t/sigma_max)); the H-fractal footprint is
    spacing**2 * 3**log2(N); the evaluation time is 10 hbar / Gamma
    (a ten-electron differential signal).  Temperature does not enter:
    evaluation is limited by disorder and dephasing, not directly by
    temperature.  A footprint too large for a float (t/sigma_max near
    1e97 and above) raises :class:`StructureError`.
    """
    values = {
        "gamma": gamma_phys,
        "t": t_phys,
        "Gamma": Gamma_phys,
        "sigma_eps": sigma_eps_phys,
        "sigma_t": sigma_t_phys,
        "spacing": spacing_nm,
    }
    bad = [k for k, v in values.items() if not 0 < v < math.inf]
    if bad:
        raise StructureError(f"feasibility inputs must be positive and finite: {bad}")

    constraints = {
        "detuning disorder": sigma_eps_phys,
        "coupling disorder": sigma_t_phys,
        "dephasing": gamma_phys,
    }
    limiting = max(constraints, key=constraints.__getitem__)
    sigma_max = constraints[limiting]
    n_levels = max(0, math.floor(2.0 * math.log2(t_phys / sigma_max))) if sigma_max < t_phys else 0
    try:
        area_mm2 = spacing_nm**2 * 3.0**n_levels / 1e12
    except OverflowError:
        area_mm2 = math.inf
    if area_mm2 == math.inf:
        raise StructureError(f"the H-fractal footprint of 2**{n_levels} inputs overflows a float "
                             f"(t/sigma_max = {t_phys / sigma_max:.3g})")
    eval_time_ns = 10.0 * HBAR_UEV_NS / Gamma_phys
    return FeasibilityReport(
        n_max=2**n_levels,
        area_mm2=area_mm2,
        eval_time_ns=eval_time_ns,
        limiting_factor=limiting,
    )


def hybrid_time(k: int) -> tuple[float, float]:
    """Evaluation-cost estimate for a problem of size 2**(13+k).

    Returns (hybrid, classical-only) in units of one full quantum
    evaluation: 2**(6.5 + 0.753 k) against 2**(0.753 (13 + k)).
    """
    if k < 0:
        raise StructureError(f"k must be >= 0, got {k}")
    return (2.0 ** (6.5 + 0.753 * k), 2.0 ** (0.753 * (13 + k)))
