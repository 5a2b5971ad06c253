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

All types are immutable; all operations are pure functions and safe to
call concurrently.  (:class:`DotParameters` keep what the kT > 0 calls
of :mod:`nandtree.transport` compute from them, which changes no
result.)  Randomness enters only through explicit seeds.
"""

from __future__ import annotations

import copy
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Dephasing floor, in units of t.  gamma = 0 exactly would put poles of
#: the resolvent on the real axis; clamping at this level is far below
#: every tolerance used in the package.
GAMMA_FLOOR = 1e-12

#: Node ids lie in [0, _ID_LIMIT), so a (parent, child) link packs into
#: one int64 key for sorting and binary search.
_ID_LIMIT = 1 << 31


class StructureError(ValueError):
    """Raised for inputs that do not describe a valid dot structure."""


#: Maps the characters "0" and "1" to the bytes 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\0\1")

#: The bit each value stands for: any value equal to 0 or 1 (a float,
#: a numpy bool) finds its entry by hash and equality.
_BIT_VALUES = {0: 0, 1: 1, "0": 0, "1": 1}


def _as_bits(bits) -> bytes:
    """``bits`` checked and packed, one 0 or 1 per byte.

    Takes a string of the characters 0 and 1, or an iterable of values
    equal to 0 or 1 (ints, bools, numpy integers and bools, 0.0 and 1.0)
    or of those characters.  Anything else raises
    :class:`StructureError`; no value is truncated.

    A list or tuple of ints is packed and checked in one C-level pass,
    and other values one at a time.  An array is read as the list of its
    Python values: ``bytes()`` of the array itself would copy its raw
    memory, eight bytes per int64 bit.
    """
    if isinstance(bits, str):
        if bits.count("0") + bits.count("1") != len(bits):
            raise StructureError(f"input bits must be 0/1 characters, got {bits!r}")
        return bits.encode("ascii").translate(_DIGITS)
    try:
        if isinstance(bits, np.ndarray):
            values = list(bits.tolist())
        else:
            values = bits if isinstance(bits, (list, tuple)) else list(bits)
    except TypeError as exc:
        raise StructureError(f"input bits must be 0/1, got {bits!r}") from exc
    try:
        packed = bytes(values)
    except (TypeError, ValueError):  # not all ints, or ints beyond a byte
        packed = bytes(map(_bit, values))
    if packed.count(0) + packed.count(1) != len(packed):
        raise StructureError(f"input bits must be 0/1, got {_shown(values)!r}")
    return packed


def _bit(value) -> int:
    """The bit a value equal to 0 or 1, or the character of one, stands
    for; 2 for any other value."""
    try:
        return _BIT_VALUES.get(value, 2)
    except TypeError:  # unhashable, as an array is
        return 2


def _shown(values) -> tuple:
    """Rejected bits as their error names them: as ints where ``int()``
    reads every value and one is neither 0 nor 1, as the check before
    this one named them, and otherwise as given."""
    try:
        ints = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        return tuple(values)
    return ints if any(b not in (0, 1) for b in ints) else tuple(values)


class Slot(NamedTuple):
    """Where the s-th children of one level sit in the level below.

    ``index`` selects the children's positions (an int array or a
    slice); ``mask`` marks the nodes of the level that have an s-th
    child, in order, and is ``None`` when every node has one.
    """

    index: np.ndarray | slice
    mask: np.ndarray | None


class Level(NamedTuple):
    """The reachable nodes at one distance from the root, with their child
    slots, or a stack of such levels.

    ``rows`` and ``up`` locate the nodes' detunings and the couplings of
    the links into them in the tables whose codes are
    :meth:`RootedTree.table_codes`, as int arrays or slices.  Every tree
    an evaluator reads gives both; ``up`` is ``None`` only at the root.

    A stacked level is a run of L >= 2 consecutive levels whose nodes all
    have exactly one child.  Its ``nodes``, ``rows`` and ``up`` then have
    shape (L, w), the deepest row first, and its one slot is the uniform
    one-child slot: each node's child is the node in the same column of
    the row below, and the bottom row's children are the level below, in
    order.  At a stacked root the top row has no link, and ``up`` is not
    read there.
    """

    nodes: np.ndarray
    slots: tuple[Slot, ...]
    rows: np.ndarray | slice | None = None
    up: np.ndarray | slice | None = None


def _child_slots(counts: np.ndarray, least: int, most: int) -> tuple[Slot, ...]:
    """The child slots of a level whose nodes have ``counts`` children,
    ``least`` to ``most`` of them (see :meth:`RootedTree.levels`)."""
    if least == most:
        return tuple(Slot(slice(s, None, most), None) for s in range(most))
    first = np.cumsum(counts) - counts
    masks = [counts > s for s in range(most)]
    return tuple(Slot(first[m] + s, None if m.all() else m) for s, m in enumerate(masks))


class RootedTree:
    """The tree protocol every evaluator reads.

    A tree provides ``root``, and its shape twice over in closed form:
    the evaluation schedule :meth:`levels` and the reachable dots
    :meth:`links`, with :meth:`leaf_values` for their detuning signs;
    the Green's-function evaluators, :func:`ideal_parameters` and the
    dense oracle need nothing else.
    """

    def levels(self) -> list[Level]:
        """Bottom-up evaluation schedule: one :class:`Level` per distance
        from the root, the deepest first and the root's level last.

        A level lists its reachable nodes in breadth-first order (each
        node's children left to right), so the level below is the
        concatenation of their children.  Slot s of a level locates
        every node's s-th child there; a node whose slot s is masked out
        has fewer than s + 1 children (a leaf, or a one-legged dot).
        Evaluating one level needs only the level below, so a recursion
        over the schedule keeps a single level of values alive.  A tree
        may give a run of single-child levels as one stacked
        :class:`Level`, whose rows are those levels, deepest first.
        """
        raise NotImplementedError

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Every reachable dot once, in no set order, as two aligned int
        arrays of shape (n,): its id and its parent's id (-1 for the
        root)."""
        raise NotImplementedError

    def leaf_values(self, ids: np.ndarray) -> np.ndarray:
        """``leaf_sign * leaf_bit`` of each id in the int array ``ids``
        that is a leaf node, 0 for the others."""
        raise NotImplementedError

    def table_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The :attr:`ParamTable.codes` of the tables :func:`ideal_parameters`
        builds: of the ids, and of the (parent, child) links below the
        root.  A level's ``rows`` and ``up`` point into these."""
        ids, parents = self.links()
        below = parents >= 0
        return _ascending(ids)[0], _ascending(_pack(parents[below], ids[below]))[0]

    def has_codes(self, ids: np.ndarray, links: np.ndarray) -> bool:
        """Whether ``ids`` and ``links``, the strictly ascending codes of
        two :class:`ParamTable` s, are :meth:`table_codes`."""
        return all(map(np.array_equal, (ids, links), self.table_codes()))


@dataclass(frozen=True)
class TreeSpec(RootedTree):
    """Logical binary-tree description.

    ``depth`` is the number of NAND levels (n >= 1), ``input_bits`` the
    N = 2**n leaf bits, and ``not_markers`` the set of internal nodes
    carrying an inline NOT.

    The bits may be given as anything :func:`_as_bits` takes, and are
    checked here and nowhere else, once per tree; ``input_bits`` is then
    a tuple of the Python ints 0 and 1.
    """

    depth: int
    input_bits: tuple[int, ...]
    not_markers: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.depth < 1:
            raise StructureError(f"depth must be >= 1, got {self.depth}")
        packed = _as_bits(self.input_bits)
        n = 2**self.depth
        if len(packed) != n:
            raise StructureError(f"need 2**{self.depth} = {n} input bits, got {len(packed)}")
        object.__setattr__(self, "input_bits", tuple(packed))
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

    def structure(self) -> tuple[np.ndarray, np.ndarray]:
        """Per heap index in [0, 2N): is the node reachable (a NOT marker
        drops its right subtree), and its number of children."""
        n = self.n_leaves
        marked = np.zeros(n, bool)
        marked[list(self.not_markers)] = True
        reach = np.zeros(2 * n, bool)
        reach[1] = True
        for k in range(self.depth):
            level = reach[2**k:2 ** (k + 1)]
            reach[2 ** (k + 1)::2][:2**k] = level
            reach[2 ** (k + 1) + 1::2][:2**k] = level & ~marked[2**k:2 ** (k + 1)]
        kids = np.zeros(2 * n, np.int64)
        kids[1:n] = reach[2::2].astype(np.int64) + reach[3::2]
        return reach, kids

    @cached_property
    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`structure`, computed once per tree and read-only."""
        out = self.structure()
        for array in out:
            array.setflags(write=False)
        return out

    def levels(self) -> list[Level]:
        """:meth:`RootedTree.levels` in closed form on the heap indices.

        Level k holds the reachable nodes among 2**k .. 2**(k+1) - 1 in
        heap order, which is the breadth-first order.  Without NOT
        markers all of them are reachable and the children of
        consecutive nodes are consecutive, so the two child slots are the
        slices ``0::2`` and ``1::2`` of the level below.  With markers
        the nodes are filtered by reach (:meth:`structure`), and the
        slots, masked where a marked node lacks its right child, come
        from the child counts.

        The reachable ids ascending are the tables' keys, and so are the
        links into them, as a parent's id grows with its child's
        (:meth:`table_codes`): a level's rows are the slice of its ranks
        in the reach mask, and the rows of the links into it the same
        slice less one (node id - 1 and id - 2 without markers).  No
        level is stacked, so a :class:`TreeSpec` evaluates one level at
        a time.  The reach mask is computed once per tree.
        """
        reach, kids = self._structure if self.not_markers else (None, None)
        pair = (Slot(slice(0, None, 2), None), Slot(slice(1, None, 2), None))
        out = []
        for k in range(self.depth, -1, -1):
            nodes, slots = np.arange(2**k, 2 ** (k + 1)), pair if k < self.depth else ()
            first = 2**k - 1
            if reach is not None:
                first = int(np.count_nonzero(reach[:2**k]))
                nodes = nodes[reach[2**k:2 ** (k + 1)]]
                counts = kids[nodes]
                slots = _child_slots(counts, int(counts.min()), int(counts.max()))
            last = first + len(nodes)
            up = slice(first - 1, last - 1) if k else None
            out.append(Level(nodes, slots, slice(first, last), up))
        return out

    def _ids(self) -> np.ndarray:
        """The reachable ids ascending: all of 1 .. 2N - 1, or those that a
        NOT marker leaves in reach (:meth:`structure`)."""
        return (np.flatnonzero(self._structure[0]) if self.not_markers
                else np.arange(1, 2 * self.n_leaves))

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RootedTree.links` on the heap indices: the reachable ids
        in ascending order, each node's parent being ``id >> 1``."""
        ids = self._ids()
        parents = ids >> 1
        parents[0] = -1
        return ids, parents

    def table_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RootedTree.table_codes` in closed form, with no sort and
        no check: the reachable ids ascending, and the links below the root
        packed as ``(id >> 1, id)``, ascending as the ids are, since a
        parent's id grows with its child's."""
        ids = self._ids()
        below = ids[1:]
        return ids, _pack(below >> 1, below)

    def has_codes(self, ids: np.ndarray, links: np.ndarray) -> bool:
        """:meth:`RootedTree.has_codes` against the closed form of
        :meth:`table_codes`, without building it.

        Strictly ascending codes are the tree's own when there are as many
        as the tree has dots (links), each lies in range and is reachable,
        and each link's parent is its child's id >> 1: codes distinct and
        all in the set, as many as the set, are the set.  A link's code
        grows with its child's id, so the children ascend with the codes,
        and the ends bound them all.
        """
        reach = self._structure[0] if self.not_markers else None
        count = 2 * self.n_leaves - 1 if reach is None else int(np.count_nonzero(reach))
        if len(ids) != count or len(links) != count - 1:
            return False
        children = links & 0xFFFFFFFF
        if not (1 <= ids[0] and ids[-1] < 2 * self.n_leaves
                and 2 <= children[0] and children[-1] < 2 * self.n_leaves):
            return False
        return bool(np.array_equal(links >> 32, children >> 1)
                    and (reach is None or reach[ids].all() and reach[children].all()))

    def leaf_values(self, ids: np.ndarray) -> np.ndarray:
        """``leaf_sign * leaf_bit`` of each id in the int array ``ids``
        that is a leaf node, 0 for the others: read from a table over the
        heap indices 0 .. 2N, an id outside them clipped to -1 or 2N, both
        of which read its last entry, a zero."""
        n = self.n_leaves
        table = np.zeros(2 * n + 1, np.int64)
        table[n:2 * n] = np.frombuffer(bytes(self.input_bits), np.uint8)
        table[n + 1:2 * n:2] *= -1
        return table[np.clip(ids, -1, 2 * n)]


def _pack(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    """The int64 code of each (parent, child) link, ``parent << 32 | child``."""
    return parents << 32 | children


def _unpack(codes: np.ndarray) -> np.ndarray:
    """The (parent, child) links of int64 link ``codes``, shape (n, 2)."""
    return np.stack([codes >> 32, codes & 0xFFFFFFFF], axis=1)


def _codes(keys: np.ndarray) -> np.ndarray:
    """The int64 code of each key: a node id itself, a link packed."""
    return _pack(keys[:, 0], keys[:, 1]) if keys.ndim == 2 else keys


def _check_ids(keys: np.ndarray) -> None:
    if keys.size and not (0 <= keys.min() and keys.max() < _ID_LIMIT):
        raise StructureError("node ids must lie in [0, 2**31)")


def _ascending(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``codes`` sorted, and the stable order that sorts them: ``None``
    when one O(n) check finds them strictly ascending, so sorted and
    distinct, already."""
    if not np.any(codes[1:] <= codes[:-1]):
        return codes, None
    order = np.argsort(codes, kind="stable")
    return codes[order], order


class ParamTable:
    """Parameters as three read-only arrays: keys, values and key codes.

    ``keys_array`` holds node ids, shape (n,), or (parent, child) links,
    shape (n, 2); ``values_array`` holds one float per key, shape (n,),
    or one per sample and key, shape (samples, n).  Keys are distinct
    and node ids lie in [0, 2**31), so a link packs into one int64 code,
    ``parent << 32 | child``, and a node id is its own code.  The table
    keeps its keys in ascending order of their ``codes``, node ids
    ascending and links by (parent, child), whatever order they are
    given in; the values move with their keys.  :meth:`find` and
    :meth:`lookup` find many keys at once, none included, by binary
    search.  Two tables are equal only if they are the same object.
    """

    def __init__(self, keys, values):
        keys = np.array(keys, dtype=np.int64)
        values = np.array(values, dtype=float)
        if keys.shape[1:] not in ((), (2,)) or values.ndim > 2 \
                or values.shape[-1:] != keys.shape[:1]:
            raise StructureError(
                f"need n keys or n (parent, child) links and n values per sample, "
                f"got shapes {keys.shape} and {values.shape}")
        _check_ids(keys)
        codes, order = _ascending(_codes(keys))
        if order is not None:
            keys, values = keys.take(order, 0), values.take(order, -1)
            if np.any(codes[1:] == codes[:-1]):
                raise StructureError("parameter keys must be distinct")
        self._keep(keys, values, codes)

    @classmethod
    def _of_codes(cls, keys: np.ndarray, values: np.ndarray, codes: np.ndarray) -> ParamTable:
        """A table over fresh arrays made for it, taken as they are, with no
        copy and no packing: int64 ``keys`` and float ``values`` shaped as
        for the constructor, and the keys' ``codes``, which must come
        strictly ascending (one pass checks)."""
        _check_ids(keys)
        if _ascending(codes)[1] is not None:
            raise StructureError("table codes must be strictly ascending")
        table = cls.__new__(cls)
        table._keep(keys, values, codes)
        return table

    def _keep(self, keys: np.ndarray, values: np.ndarray, codes: np.ndarray) -> None:
        for array in (keys, values, codes):
            array.setflags(write=False)
        self.keys_array, self.values_array, self.codes = keys, values, codes

    @classmethod
    def of(cls, mapping: Mapping | ParamTable, links: bool) -> ParamTable:
        """``mapping``, a dict or a table, as a table of node ids, or of
        links if ``links``, to floats."""
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

    def _with(self, values: np.ndarray) -> ParamTable:
        """These keys with ``values``, shaped like ``values_array``, made read-only."""
        values.setflags(write=False)
        out = copy.copy(self)
        out.values_array = values
        return out

    def row(self, i: int) -> ParamTable:
        """Sample ``i`` of a table with a sample axis, sharing its keys."""
        return self._with(self.values_array[i])

    def lookup(self, keys) -> np.ndarray:
        """The values of ``keys``, shaped like ``values_array`` with ``keys``
        for its key axis.

        Raises KeyError naming the first key that is missing, and
        StructureError for keys shaped as :meth:`find` does not take.
        """
        return self.values_array[..., self.find(keys)]

    def find(self, keys) -> np.ndarray:
        """The position of each of ``keys`` in ``keys_array``; raises
        KeyError naming the first key that is missing.

        ``keys`` has shape (n,) on a table of node ids and (n, 2) on a
        table of links, where no keys may also be given as ``[]``; a
        single key is passed as a list of one.  Other shapes raise
        StructureError naming the shape wanted and the shape given.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if self.links and keys.shape == (0,):
            keys = keys.reshape(0, 2)
        if keys.shape[1:] != self.keys_array.shape[1:] or not keys.ndim:
            want = "(n, 2) for a table of links" if self.links else "(n,) for a table of node ids"
            raise StructureError(f"keys must have shape {want}, got shape {keys.shape}")
        query = _codes(keys)
        at = np.minimum(np.searchsorted(self.codes, query), len(self) - 1)
        found = self.codes[at] == query if len(self) else np.zeros(len(keys), dtype=bool)
        # Ids outside [0, 2**31) can pack into the code of another link.
        in_range = (keys >= 0) & (keys < _ID_LIMIT)
        found &= in_range if keys.ndim == 1 else in_range.all(axis=1)
        if not found.all():
            key = keys[np.argmin(found)].tolist()
            raise KeyError(tuple(key) if self.links else key)
        return at

    def __len__(self) -> int:
        return len(self.keys_array)


@dataclass(frozen=True)
class DotParameters:
    """One realization of per-dot detunings and per-link couplings, or a
    batch of them.

    ``epsilon`` holds the detuning of each node, ``coupling`` the tunnel
    coupling of each (parent, child) link; both in units of t, as
    :class:`ParamTable` arrays, their keys in ascending order.  Either
    may be given as a dict, which :meth:`ParamTable.of` turns into a
    table.  Tables whose values carry a leading sample axis
    (:func:`sample_disorder_many`) hold one realization per sample;
    :meth:`sample` takes one out.  ``delta`` is the oracle coupling
    strength and ``gamma`` the dephasing rate 1/tau_phi, shared by all
    samples.  Couplings must be finite and positive, detunings must not
    be NaN and ``gamma`` must be finite and nonnegative; otherwise
    :class:`StructureError` names the bad entry with the lowest key
    (whatever order a dict gave), in the first sample that has it
    bad.  A ``gamma`` below ``GAMMA_FLOOR`` is raised to it.
    """

    epsilon: ParamTable
    coupling: ParamTable
    delta: float
    gamma: float

    def __post_init__(self):
        eps, coup = ParamTable.of(self.epsilon, False), ParamTable.of(self.coupling, True)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "coupling", coup)
        if eps.values_array.shape[:-1] != coup.values_array.shape[:-1]:
            raise StructureError("detunings and couplings need the same sample axis")
        t = coup.values_array
        bad = ~(np.isfinite(t) & (t > 0))
        if bad.any():
            # The key axis first: the lowest bad key, then its first bad sample.
            at = np.unravel_index(np.argmax(bad.T), bad.T.shape)[::-1]
            raise StructureError(f"tunnel coupling {tuple(coup.keys_array[at[-1]].tolist())} "
                                 f"must be finite and positive, got {t[at]}")
        bad = np.isnan(eps.values_array)
        if bad.any():
            at = np.unravel_index(np.argmax(bad.T), bad.T.shape)[::-1]
            raise StructureError(f"detuning of node {eps.keys_array[at[-1]]} is NaN")
        if self.gamma < 0:
            raise StructureError(f"gamma must be nonnegative, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise StructureError(f"gamma must be finite, got {self.gamma}")
        if self.gamma < GAMMA_FLOOR:
            object.__setattr__(self, "gamma", GAMMA_FLOOR)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """(samples,) for a batch of realizations, () for one."""
        return self.epsilon.values_array.shape[:-1]

    def sample(self, i: int) -> DotParameters:
        """Realization ``i`` of a batch."""
        return replace(self, epsilon=self.epsilon.row(i), coupling=self.coupling.row(i))

    @cached_property
    def _kept(self) -> dict:
        """What :mod:`nandtree.transport` keeps for these parameters (see
        "Kept results" there), made on first use.  Not a field: equality,
        ``repr`` and :func:`dataclasses.replace` ignore it, and it lives
        exactly as long as the parameters."""
        return {}

    def __getstate__(self) -> dict:
        """The fields alone, for :mod:`copy` and :mod:`pickle`: the kept
        results are keyed by the identity of trees a copy does not hold,
        so a copy starts with none."""
        return {k: v for k, v in vars(self).items() if k != "_kept"}


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian disorder widths (units of t) plus the sampling seed; the
    widths, ``mean_t`` and ``coupling_floor`` must be finite, and the
    seed nonnegative, as numpy's generators take it."""

    sigma_t: float
    sigma_eps: float
    seed: int
    mean_t: float = 1.0
    coupling_floor: float = 0.1

    def __post_init__(self):
        for name in ("sigma_t", "sigma_eps", "mean_t", "coupling_floor"):
            if not math.isfinite(getattr(self, name)):
                raise StructureError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_t < 0 or self.sigma_eps < 0:
            raise StructureError("disorder widths must be nonnegative")
        if self.seed < 0:
            raise StructureError(f"seed must be nonnegative, got {self.seed}")
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
    return TreeSpec(depth=depth, input_bits=bits)


def ideal_parameters(tree: RootedTree, delta: float, gamma: float) -> DotParameters:
    """Disorder-free parameters: unit couplings, leaf detunings (-1)**i b_i delta.

    Serves :class:`TreeSpec` and the chain-augmented trees of
    :mod:`nandtree.layout` alike; inverter dots are internal, so they get
    zero detuning.  One detuning per dot and one coupling per (parent,
    dot) link below the root, keyed by ``tree.table_codes()``: those
    come in ascending order, so the tables (see :class:`ParamTable`)
    take them, and the fresh value arrays, with no sort and no copy,
    after one pass checks the order; the tables' codes are the tree's
    own, which the evaluators read by position.
    """
    if not 0 < delta < math.inf:
        raise StructureError(f"delta must be positive and finite, got {delta}")
    ids, links = tree.table_codes()
    return DotParameters(
        epsilon=ParamTable._of_codes(ids, tree.leaf_values(ids) * delta, ids),
        coupling=ParamTable._of_codes(_unpack(links), np.ones(len(links)), links),
        delta=delta, gamma=gamma)


def sample_disorder(tree: RootedTree, ideal: DotParameters, spec: DisorderSpec) -> DotParameters:
    """One disorder sample: couplings ~ N(mean_t, sigma_t) clamped below
    at ``coupling_floor``, additive N(0, sigma_eps) detuning noise on
    every dot (leaves included).  Pure function of (tree, ideal, spec).

    The one-sample case of :func:`sample_disorder_many`: the couplings
    are drawn first, one per link in ascending (parent, child) order,
    then the detuning noise, one per node in ascending id order, which
    are the tables' own orders.
    """
    return sample_disorder_many(tree, ideal, [spec]).sample(0)


def sample_disorder_many(tree: RootedTree, ideal: DotParameters, specs) -> DotParameters:
    """One disorder sample per spec, as parameters with a sample axis.

    Row i is what :func:`sample_disorder` draws for ``specs[i]``, from
    its own ``default_rng(specs[i].seed)``: the couplings first, one per
    link in ascending (parent, child) order, then the detuning noise,
    one per node in ascending id order.  Those are the orders the ideal
    tables keep, so the draws fill their value arrays as they come, and
    every row shares the ideal key arrays.
    """
    coup, eps = ideal.coupling, ideal.epsilon
    tvals = np.empty((len(specs), len(coup)))
    evals = np.empty((len(specs), len(eps)))
    for spec, t, e in zip(specs, tvals, evals):
        rng = np.random.default_rng(spec.seed)
        t[:] = rng.normal(spec.mean_t, spec.sigma_t, size=len(coup))
        e[:] = rng.normal(0.0, spec.sigma_eps, size=len(eps))
    floor = np.array([spec.coupling_floor for spec in specs]).reshape(-1, 1)
    tvals = np.where(tvals < floor, floor, tvals)
    evals += eps.values_array
    return replace(ideal, epsilon=eps._with(evals), coupling=coup._with(tvals))
