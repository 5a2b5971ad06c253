"""Domain types, tree indexing and disorder sampling.

Conventions used throughout the package:

* Energies (E, gamma, delta, lead broadenings, temperatures, disorder
  widths) are expressed in units of the mean tunnel coupling t = 1.
  Only the feasibility estimates in :mod:`nandtree.layout` use physical
  units.
* Node 1 is the root (the bottom dot, the one probed by the leads);
  node i has children 2i and 2i + 1; the leaves of a depth-n tree with
  N = 2**n inputs are nodes N .. 2N - 1, with leaf N + i carrying input
  bit b_i.  The bit is encoded as a leaf detuning (-1)**i * b_i * delta,
  so paired "1" inputs carry detunings of opposite sign.
* An internal node listed in ``not_markers`` keeps only its left child
  (2i); the single remaining leg acts as an inline inverter, so the node
  computes NOT of its child instead of NAND of two children.  The
  dropped right subtree is absent from the physical structure.

All types are immutable value objects; all operations are pure functions
and safe to call concurrently.  Randomness enters only through explicit
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Mapping, NamedTuple

import numpy as np

#: Dephasing floor, in units of t.  gamma = 0 exactly would put poles of
#: the resolvent on the real axis; clamping at this level is far below
#: every tolerance used in the package.
GAMMA_FLOOR = 1e-12

Link = tuple[int, int]


class StructureError(ValueError):
    """Raised for inputs that do not describe a valid dot structure."""


def _as_bits(bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise StructureError(f"input bits must be 0/1 characters, got {bits!r}")
        bits = [int(c) for c in bits]
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise StructureError(f"input bits must be 0/1, got {out!r}")
    return out


class Slot(NamedTuple):
    """Where the s-th children of one level sit in the level below.

    ``index`` selects the children's positions (an int array or a
    slice); ``mask`` marks the nodes of the level that have an s-th
    child, in order, and is ``None`` when every node has one.
    """

    index: np.ndarray | slice
    mask: np.ndarray | None


class Level(NamedTuple):
    """The reachable nodes at one distance from the root, with their child slots."""

    nodes: np.ndarray
    slots: tuple[Slot, ...]


class RootedTree:
    """Traversal shared by every dot tree.

    Subclasses provide ``root``, ``children(node)``, ``is_leaf(node)``
    and the leaf encoding ``leaf_bit(node)`` / ``leaf_sign(node)``; the
    Green's-function evaluators and :func:`ideal_parameters` need
    nothing else.
    """

    def postorder(self) -> list[int]:
        """Reachable nodes, children before parents, fixed order."""
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, seen = stack.pop()
            if seen:
                order.append(node)
            else:
                stack.append((node, True))
                for c in reversed(self.children(node)):
                    stack.append((c, False))
        return order

    def links(self) -> list[Link]:
        """(parent, child) pairs of the reachable structure."""
        return [(n, c) for n in self.postorder() for c in self.children(n)]

    def levels(self) -> list[Level]:
        """Bottom-up evaluation schedule: one :class:`Level` per distance
        from the root, the deepest first and the root's level last.

        A level lists its reachable nodes in breadth-first order (each
        node's children in ``children()`` order), so the level below is
        the concatenation of their children.  Slot s of a level locates
        every node's s-th child there; a node whose slot s is masked out
        has fewer than s + 1 children (a leaf, or a one-legged dot).
        Evaluating one level needs only the level below, so a recursion
        over the schedule keeps a single level of values alive.
        """
        out: list[Level] = []
        nodes = [self.root]
        while nodes:
            kids = list(map(self.children, nodes))
            counts = list(map(len, kids))
            most = max(counts)
            if min(counts) == most:
                slots = tuple(Slot(slice(s, None, most), None) for s in range(most))
            else:
                counts = np.array(counts)
                first = np.cumsum(counts) - counts
                masks = [counts > s for s in range(most)]
                slots = tuple(Slot(first[m] + s, None if m.all() else m)
                              for s, m in enumerate(masks))
            out.append(Level(np.array(nodes, dtype=np.intp), slots))
            nodes = list(chain.from_iterable(kids))
        out.reverse()
        return out


@dataclass(frozen=True)
class TreeSpec(RootedTree):
    """Logical binary-tree description.

    ``depth`` is the number of NAND levels (n >= 1), ``input_bits`` the
    N = 2**n leaf bits, and ``not_markers`` the set of internal nodes
    carrying an inline NOT.
    """

    depth: int
    input_bits: tuple[int, ...]
    not_markers: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.depth < 1:
            raise StructureError(f"depth must be >= 1, got {self.depth}")
        object.__setattr__(self, "input_bits", _as_bits(self.input_bits))
        n = 2**self.depth
        if len(self.input_bits) != n:
            raise StructureError(
                f"need 2**{self.depth} = {n} input bits, got {len(self.input_bits)}"
            )
        markers = frozenset(int(m) for m in self.not_markers)
        if not all(1 <= m < n for m in markers):
            raise StructureError(
                f"not_markers must be internal nodes in 1..{n - 1}, got {sorted(markers)}"
            )
        object.__setattr__(self, "not_markers", markers)

    # -- index algebra ------------------------------------------------

    @property
    def root(self) -> int:
        return 1

    @property
    def n_leaves(self) -> int:
        return 2**self.depth

    @property
    def n_nodes(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def is_leaf(self, node: int) -> bool:
        return node >= self.n_leaves

    def leaf_index(self, node: int) -> int:
        """Input-bit index i of leaf node N + i."""
        if not self.is_leaf(node):
            raise StructureError(f"node {node} is not a leaf")
        return node - self.n_leaves

    def leaf_bit(self, node: int) -> int:
        return self.input_bits[self.leaf_index(node)]

    def leaf_sign(self, node: int) -> int:
        """Alternating detuning sign s_i = (-1)**i for leaf N + i."""
        return -1 if self.leaf_index(node) % 2 else 1

    def level(self, node: int) -> int:
        return int(node).bit_length() - 1

    def children(self, node: int) -> tuple[int, ...]:
        if self.is_leaf(node):
            return ()
        if node in self.not_markers:
            return (2 * node,)
        return (2 * node, 2 * node + 1)

    def levels(self) -> list[Level]:
        """:meth:`RootedTree.levels` in closed form on the heap indices.

        Without NOT markers, level k holds the nodes 2**k .. 2**(k+1) - 1
        and the children of consecutive nodes are consecutive, so the two
        child slots are the slices ``0::2`` and ``1::2`` of the level
        below.  A tree with NOT markers takes the breadth-first pass.
        """
        if self.not_markers:
            return super().levels()
        pair = (Slot(slice(0, None, 2), None), Slot(slice(1, None, 2), None))
        return [Level(np.arange(2**k, 2 ** (k + 1)), pair if k < self.depth else ())
                for k in range(self.depth, -1, -1)]


@dataclass(frozen=True)
class DotParameters:
    """One realization of per-dot detunings and per-link couplings.

    ``epsilon`` maps node -> detuning, ``coupling`` maps (parent, child)
    -> tunnel coupling; both in units of t.  ``delta`` is the oracle
    coupling strength and ``gamma`` the dephasing rate 1/tau_phi.
    """

    epsilon: Mapping[int, float]
    coupling: Mapping[Link, float]
    delta: float
    gamma: float

    def __post_init__(self):
        if any(t <= 0 for t in self.coupling.values()):
            raise StructureError("all tunnel couplings must be strictly positive")
        if self.gamma < GAMMA_FLOOR:
            object.__setattr__(self, "gamma", GAMMA_FLOOR)


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian disorder widths (units of t) plus the sampling seed."""

    sigma_t: float
    sigma_eps: float
    seed: int
    mean_t: float = 1.0
    coupling_floor: float = 0.1

    def __post_init__(self):
        if self.sigma_t < 0 or self.sigma_eps < 0:
            raise StructureError("disorder widths must be nonnegative")
        if self.sigma_t >= self.mean_t:
            raise StructureError(
                f"sigma_t = {self.sigma_t} must stay below mean_t = {self.mean_t}"
            )


@dataclass(frozen=True)
class LogicalForm:
    """Classification of a Green's function as "0"-like or "1"-like.

    ``alpha`` and ``beta`` are the slope parameters of the limiting
    forms 1/(alpha E + i gamma beta) and -(alpha E + i gamma beta).
    ``ambiguous`` is set when |G(0)| falls inside the [0.5, 2] band
    where disorder has destroyed the logical separation.
    """

    bit: int
    alpha: float
    beta: float
    ambiguous: bool = False


def build_tree(depth: int, bits) -> TreeSpec:
    """Canonically indexed tree for the given depth and leaf bits."""
    return TreeSpec(depth=depth, input_bits=_as_bits(bits))


def ideal_parameters(tree: RootedTree, delta: float, gamma: float) -> DotParameters:
    """Disorder-free parameters: unit couplings, leaf detunings (-1)**i b_i delta.

    Serves :class:`TreeSpec` and the chain-augmented trees of
    :mod:`nandtree.layout` alike; inverter dots are internal, so they get
    zero detuning.
    """
    if delta <= 0:
        raise StructureError(f"delta must be positive, got {delta}")
    if gamma < 0:
        raise StructureError(f"gamma must be nonnegative, got {gamma}")
    order = tree.postorder()
    eps = dict.fromkeys(order, 0.0)
    coup: dict[Link, float] = {}
    for node in order:
        kids = tree.children(node)
        for c in kids:
            coup[node, c] = 1.0
        if not kids:
            eps[node] = tree.leaf_sign(node) * tree.leaf_bit(node) * delta
    return DotParameters(epsilon=eps, coupling=coup, delta=delta, gamma=max(gamma, GAMMA_FLOOR))


def sample_disorder(tree: TreeSpec, ideal: DotParameters, spec: DisorderSpec) -> DotParameters:
    """One disorder sample: couplings ~ N(mean_t, sigma_t) clamped below
    at ``coupling_floor``, additive N(0, sigma_eps) detuning noise on
    every dot (leaves included).  Pure function of (tree, ideal, spec).
    """
    rng = np.random.default_rng(spec.seed)
    links = sorted(ideal.coupling)
    nodes = sorted(ideal.epsilon)
    tvals = rng.normal(spec.mean_t, spec.sigma_t, size=len(links))
    evals = rng.normal(0.0, spec.sigma_eps, size=len(nodes))
    coup = {
        link: max(float(t), spec.coupling_floor) for link, t in zip(links, tvals)
    }
    eps = {
        node: ideal.epsilon[node] + float(de) for node, de in zip(nodes, evals)
    }
    return replace(ideal, epsilon=eps, coupling=coup)
