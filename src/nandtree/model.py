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

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

#: Dephasing floor, in units of t.  gamma = 0 exactly would put poles of
#: the resolvent on the real axis; clamping at this level is far below
#: every tolerance used in the package.
GAMMA_FLOOR = 1e-12

Link = tuple[int, int]

#: Node ids lie in [0, _ID_LIMIT), so a (parent, child) link packs into
#: one int64 key for sorting and binary search.
_ID_LIMIT = 1 << 31


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
        return self._walk()[0]

    def _walk(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """``postorder()`` and each of its nodes' ``children()``."""
        order: list[int] = []
        kids: list[tuple[int, ...]] = []
        stack: list[tuple[int, tuple[int, ...] | None]] = [(self.root, None)]
        while stack:
            node, cs = stack.pop()
            if cs is None:
                cs = self.children(node)
                stack.append((node, cs))
                for c in reversed(cs):
                    stack.append((c, None))
            else:
                order.append(node)
                kids.append(cs)
        return order, kids

    def links(self) -> list[Link]:
        """(parent, child) pairs of the reachable structure."""
        return [(n, c) for n, cs in zip(*self._walk()) for c in cs]

    def postorder_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``postorder()`` and ``links()`` as int arrays of shape (n,) and
        (m, 2), with each node's ``leaf_sign * leaf_bit`` (0 for internal
        nodes) in postorder; :func:`ideal_parameters` builds on these.
        """
        order, kids = self._walk()
        nodes = np.array(order, dtype=np.int64)
        counts = np.fromiter(map(len, kids), np.int64, len(kids))
        children = np.fromiter(chain.from_iterable(kids), np.int64, counts.sum())
        leaves = counts == 0
        signs = np.zeros_like(nodes)
        signs[leaves] = [self.leaf_sign(n) * self.leaf_bit(n) for n in nodes[leaves].tolist()]
        return nodes, np.stack([nodes.repeat(counts), children], axis=1), signs

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

    def postorder_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`RootedTree.postorder_arrays` in closed form on the heap indices.

        Without NOT markers, the postorder of the subtree of height k + 1
        is that of height k shifted onto node 2, then onto node 3, then
        the root: node v at level l of a subtree moves to v + 2**l and
        v + 2**(l+1).  A tree with NOT markers takes ``postorder()``.
        """
        if self.not_markers:
            return super().postorder_arrays()
        order = step = np.ones(1, dtype=np.int64)
        for _ in range(self.depth):
            order = np.concatenate([order + step, order + 2 * step, [1]])
            step = np.concatenate([2 * step, 2 * step, [1]])
        n = self.n_leaves
        inner = order[order < n]
        links = np.stack([inner.repeat(2), (2 * inner[:, None] + [0, 1]).ravel()], axis=1)
        leaf = order >= n
        i = order[leaf] - n
        signs = np.zeros_like(order)
        signs[leaf] = (1 - 2 * (i & 1)) * np.array(self.input_bits)[i]
        return order, links, signs


class ParamTable(Mapping):
    """Read-only mapping over a key array and a float value array.

    ``keys_array`` holds node ids, shape (n,), or (parent, child) links,
    shape (n, 2); ``values_array`` holds one float per key.  Iteration
    follows the array order and yields Python ints or int pairs, so a
    table iterates, indexes and compares like the dict it stands for;
    ``values()`` and ``items()`` return lists in that order.  Keys are
    distinct and node ids lie in [0, 2**31), so a link packs into one
    int64 sort key; :meth:`lookup` finds many keys at once by binary
    search over the keys in sorted order.
    """

    def __init__(self, keys, values):
        keys = np.array(keys, dtype=np.int64)
        values = np.array(values, dtype=float)
        if keys.shape[1:] not in ((), (2,)) or values.shape != keys.shape[:1]:
            raise StructureError(
                f"need n keys or n (parent, child) links and n values, "
                f"got shapes {keys.shape} and {values.shape}")
        if keys.size and not (0 <= keys.min() and keys.max() < _ID_LIMIT):
            raise StructureError("node ids must lie in [0, 2**31)")
        keys.flags.writeable = values.flags.writeable = False
        self.keys_array, self.values_array = keys, values
        codes = self._codes(keys)
        self._order = np.argsort(codes, kind="stable")
        self._sorted = codes[self._order]
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise StructureError("parameter keys must be distinct")
        self._order.flags.writeable = False

    @classmethod
    def of(cls, mapping: Mapping, links: bool) -> ParamTable:
        """``mapping`` as a table of node ids, or of links if ``links``, to floats."""
        kind = "(parent, child) pairs of node ids" if links else "node ids"
        if isinstance(mapping, ParamTable):
            if mapping.links != links:
                raise StructureError(f"parameter keys must be {kind}")
            return mapping
        try:
            if links:
                keys = [(operator.index(p), operator.index(c)) for p, c in mapping]
            else:
                keys = list(map(operator.index, mapping))
            keys = np.array(keys, dtype=np.int64).reshape((-1, 2) if links else -1)
            values = np.array(list(mapping.values()), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructureError(f"parameters must map {kind} to floats: {exc}") from exc
        return cls(keys, values)

    @property
    def links(self) -> bool:
        return self.keys_array.ndim == 2

    def _codes(self, keys: np.ndarray) -> np.ndarray:
        return (keys[:, 0] << 32) | keys[:, 1] if self.links else keys

    def argsort(self) -> np.ndarray:
        """Positions of the keys in ascending order, links lexicographically."""
        return self._order

    def lookup(self, keys) -> np.ndarray:
        """The values of ``keys``, an array shaped like ``keys_array``.

        Raises KeyError naming the first key that is missing.
        """
        keys = np.asarray(keys, dtype=np.int64)
        query = self._codes(keys)
        at = np.minimum(np.searchsorted(self._sorted, query), len(self) - 1)
        found = self._sorted[at] == query if len(self) else np.zeros(len(keys), dtype=bool)
        # Ids outside [0, 2**31) can pack into the code of another link.
        found &= ((keys >= 0) & (keys < _ID_LIMIT)).reshape(len(keys), -1).all(axis=1)
        if not found.all():
            key = keys[np.argmin(found)].tolist()
            raise KeyError(tuple(key) if self.links else key)
        return self.values_array[self._order[at]]

    def __getitem__(self, key) -> float:
        # One key at a time, without the array set-up of lookup(): dense
        # assembly and the reference recursions read tables this way.
        try:
            ids = tuple(map(operator.index, key)) if self.links else (operator.index(key),)
        except TypeError:
            raise KeyError(key) from None
        if len(ids) != self.keys_array.ndim or not all(0 <= i < _ID_LIMIT for i in ids):
            raise KeyError(key)
        code = ids[0] << 32 | ids[1] if self.links else ids[0]
        at = self._sorted.searchsorted(code)
        if at == len(self) or self._sorted[at] != code:
            raise KeyError(key)
        return float(self.values_array[self._order[at]])

    def __iter__(self):
        keys = self.keys_array.tolist()
        return map(tuple, keys) if self.links else iter(keys)

    def __len__(self) -> int:
        return len(self.values_array)

    def values(self) -> list[float]:
        return self.values_array.tolist()

    def items(self) -> list[tuple]:
        return list(zip(self, self.values_array.tolist()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class DotParameters:
    """One realization of per-dot detunings and per-link couplings.

    ``epsilon`` maps node -> detuning, ``coupling`` maps (parent, child)
    -> tunnel coupling; both in units of t.  Either may be given as any
    mapping and is stored as a :class:`ParamTable`, in the mapping's
    iteration order.  ``delta`` is the oracle coupling strength and
    ``gamma`` the dephasing rate 1/tau_phi.  Couplings must be finite and
    positive and detunings must not be NaN; the first entry that is not
    raises :class:`StructureError`.
    """

    epsilon: Mapping[int, float]
    coupling: Mapping[Link, float]
    delta: float
    gamma: float

    def __post_init__(self):
        eps, coup = ParamTable.of(self.epsilon, False), ParamTable.of(self.coupling, True)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "coupling", coup)
        t = coup.values_array
        bad = ~(np.isfinite(t) & (t > 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise StructureError(f"tunnel coupling {tuple(coup.keys_array[i].tolist())} "
                                 f"must be finite and positive, got {t[i]}")
        bad = np.isnan(eps.values_array)
        if bad.any():
            raise StructureError(f"detuning of node {eps.keys_array[np.argmax(bad)]} is NaN")
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
    zero detuning.  Keys follow ``postorder()`` and ``links()``.
    """
    if not 0 < delta < math.inf:
        raise StructureError(f"delta must be positive and finite, got {delta}")
    if gamma < 0:
        raise StructureError(f"gamma must be nonnegative, got {gamma}")
    nodes, links, signs = tree.postorder_arrays()
    return DotParameters(epsilon=ParamTable(nodes, signs * delta),
                         coupling=ParamTable(links, np.ones(len(links))),
                         delta=delta, gamma=max(gamma, GAMMA_FLOOR))


def sample_disorder(tree: RootedTree, ideal: DotParameters, spec: DisorderSpec) -> DotParameters:
    """One disorder sample: couplings ~ N(mean_t, sigma_t) clamped below
    at ``coupling_floor``, additive N(0, sigma_eps) detuning noise on
    every dot (leaves included).  Pure function of (tree, ideal, spec).

    The couplings are drawn first, one per link in ascending (parent,
    child) order, then the detuning noise, one per node in ascending id
    order; the sample's keys are in those orders.
    """
    rng = np.random.default_rng(spec.seed)
    links, nodes = ideal.coupling.argsort(), ideal.epsilon.argsort()
    tvals = rng.normal(spec.mean_t, spec.sigma_t, size=len(links))
    evals = rng.normal(0.0, spec.sigma_eps, size=len(nodes))
    floor = spec.coupling_floor
    coup = ParamTable(ideal.coupling.keys_array[links], np.where(tvals < floor, floor, tvals))
    eps = ParamTable(ideal.epsilon.keys_array[nodes], ideal.epsilon.values_array[nodes] + evals)
    return replace(ideal, epsilon=eps, coupling=coup)
