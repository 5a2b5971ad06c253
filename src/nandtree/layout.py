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

The feasibility estimates at the bottom of the module are the only
place in the package that uses physical units (micro-eV, nm, ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .model import RootedTree, StructureError, TreeSpec, ideal_parameters

#: Inverter counts between tree levels, leaf links first.  The published
#: prefix is hard-coded; past it the count keeps all distances odd while
#: at least doubling every level (a_next = 2a + 2).
INVERTER_COUNTS_PREFIX = (0, 2, 4, 10, 20, 38, 76)

MAX_LAYOUT_DEPTH = 14

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


@dataclass(frozen=True)
class LayoutGraph:
    """Planar grid embedding of a tree with its inverter chains.

    ``dots`` is a sequence of (id, x, y); ``links`` the tunnel-coupled
    pairs (all unit length); ``role`` maps dot -> "level-k" or
    "inverter"; ``tree_binding`` maps tree node -> dot id.
    """

    dots: tuple[tuple[int, int, int], ...]
    links: tuple[tuple[int, int], ...]
    role: Mapping[int, str]
    tree_binding: Mapping[int, int]

    @property
    def n_inverters(self) -> int:
        return sum(1 for r in self.role.values() if r == "inverter")

    def bounding_box_area(self) -> int:
        xs = [x for _, x, _ in self.dots]
        ys = [y for _, _, y in self.dots]
        return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


@dataclass(frozen=True)
class ChainedTree(RootedTree):
    """``tree`` with inline inverter dots, evaluable like a :class:`TreeSpec`.

    ``child_map`` maps every dot that has children to them, in traversal
    order; inverter dots have exactly one child, their missing leg acting
    as a virtual logical "1".  Leaf dots keep their tree node ids, so the
    leaf bits and detuning signs come from ``tree`` and
    :func:`~nandtree.model.ideal_parameters` builds the parameters.
    """

    tree: TreeSpec
    root: int
    child_map: Mapping[int, tuple[int, ...]]

    def children(self, node: int) -> tuple[int, ...]:
        return self.child_map.get(node, ())

    def is_leaf(self, node: int) -> bool:
        return node not in self.child_map

    def leaf_bit(self, node: int) -> int:
        return self.tree.leaf_bit(node)

    def leaf_sign(self, node: int) -> int:
        return self.tree.leaf_sign(node)


def inverter_map(alpha: float, beta: float, d: int) -> tuple[float, float]:
    """Slope map of a 2d-inverter chain: (alpha, beta) -> (d + alpha, d + beta)."""
    if d < 0:
        raise StructureError(f"chain distance d must be >= 0, got {d}")
    return (d + alpha, d + beta)


def build_hfractal(tree: TreeSpec) -> LayoutGraph:
    """H-fractal embedding of ``tree`` with inverter chains per level.

    The root sits at the origin; links at tree level k run along x for
    even k and y for odd k, at center-to-center distance
    (inverter count) + 1.  Inverters are placed on the straight grid
    path between parent and child anchors.
    """
    if tree.depth > MAX_LAYOUT_DEPTH:
        raise StructureError(f"layout capped at depth {MAX_LAYOUT_DEPTH}")
    counts = inverter_counts(tree.depth)

    dots: list[tuple[int, int, int]] = []
    links: list[tuple[int, int]] = []
    role: dict[int, str] = {}
    binding: dict[int, int] = {}
    next_id = 2 * tree.n_leaves  # inverter ids start past the tree nodes

    def place(node: int, x: int, y: int) -> None:
        nonlocal next_id
        level = tree.level(node)
        dots.append((node, x, y))
        role[node] = f"level-{level}"
        binding[node] = node
        kids = tree.children(node)
        if not kids:
            return
        m = counts[tree.depth - 1 - level]
        d = m + 1
        axis_x = level % 2 == 0
        for child, sign in zip(kids, (-1, +1)):
            dx, dy = (sign, 0) if axis_x else (0, sign)
            prev = node
            for step in range(1, m + 1):
                inv = next_id
                next_id += 1
                dots.append((inv, x + dx * step, y + dy * step))
                role[inv] = "inverter"
                links.append((prev, inv))
                prev = inv
            links.append((prev, child))
            place(child, x + dx * d, y + dy * d)

    place(tree.root, 0, 0)
    del place  # its closure cell refers to itself; dropping it frees the lists at once
    return LayoutGraph(
        dots=tuple(dots), links=tuple(links), role=dict(role), tree_binding=dict(binding)
    )


def expand_to_tree(layout: LayoutGraph, tree: TreeSpec) -> ChainedTree:
    """Chain-augmented tree realizing ``layout``: inverter dots become
    single-child nodes on the path between tree levels.

    Tree dots must keep their node ids, as :func:`build_hfractal` binds
    them, because the leaves take their bits and signs from ``tree``.
    An odd inverter chain below a node without a NOT marker would
    silently invert the logic and is rejected.
    """
    adjacency: dict[int, list[int]] = {}
    for a, b in layout.links:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    tree_dots = {layout.tree_binding[n]: n for n in tree.postorder()}
    if any(dot != n for dot, n in tree_dots.items()):
        raise StructureError("tree nodes must keep their ids as dot ids")

    child_map: dict[int, tuple[int, ...]] = {}
    root_dot = layout.tree_binding[tree.root]
    stack = [(root_dot, None)]
    while stack:
        dot, parent_dot = stack.pop()
        node = tree_dots[dot]
        kids: list[tuple[int, tuple[int, ...]]] = []
        for nb in adjacency.get(dot, ()):
            if nb == parent_dot:
                continue
            chain: list[int] = []
            prev, cur = dot, nb
            while layout.role[cur] == "inverter":
                chain.append(cur)
                nxt = [x for x in adjacency[cur] if x != prev]
                if len(nxt) != 1:
                    raise StructureError(f"inverter dot {cur} must have exactly 2 links")
                prev, cur = cur, nxt[0]
            if len(chain) % 2 and node not in tree.not_markers:
                raise StructureError(
                    f"odd inverter chain ({len(chain)} dots) below unmarked node {node}"
                )
            kids.append((cur, tuple(chain)))
            stack.append((cur, prev))
        # Children in canonical (tree-index) order for reproducible traversal.
        kids.sort(key=lambda item: tree_dots[item[0]])
        if kids:
            heads = []
            for child_dot, chain in kids:
                if chain:
                    heads.append(chain[0])
                    for a, b in zip(chain, chain[1:]):
                        child_map[a] = (b,)
                    child_map[chain[-1]] = (child_dot,)
                else:
                    heads.append(child_dot)
            child_map[dot] = tuple(heads)

    return ChainedTree(tree=tree, root=root_dot, child_map=child_map)


def chain_below(tree: TreeSpec, n_inverters: int) -> ChainedTree:
    """Explicit inverter chain coupled below the tree root.

    The returned root is the last chain dot, so classifying it sees the
    tree through ``n_inverters`` inline dots (even counts preserve the
    logical bit, odd counts invert it).
    """
    if n_inverters < 0:
        raise StructureError(f"n_inverters must be >= 0, got {n_inverters}")
    child_map: dict[int, tuple[int, ...]] = {
        n: tree.children(n) for n in tree.postorder() if tree.children(n)
    }
    base = 2 * tree.n_leaves
    prev = tree.root
    for i in range(n_inverters):
        child_map[base + i] = (prev,)
        prev = base + i
    return ChainedTree(tree=tree, root=prev, child_map=child_map)


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
    temperature.
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
    area_mm2 = spacing_nm**2 * 3.0**n_levels / 1e12
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
