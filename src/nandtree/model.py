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
call concurrently.  Randomness enters only through explicit seeds.
Copies (:func:`copy.copy`, :func:`copy.deepcopy`) and :mod:`pickle`
rebuild a tree or a parameter table through its own constructor, the
one place that checks its inputs and makes its arrays read-only: a tree
from its fields (:meth:`RootedTree.__reduce__`), a table from its codes
and values (:meth:`ParamTable.__reduce__`).  Parameters and the other
values copy their fields.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

#: Dephasing floor, in units of t.  gamma = 0 exactly would put poles of
#: the resolvent on the real axis; clamping at this level is far below
#: every tolerance used in the package.
GAMMA_FLOOR = 1e-12

#: The largest int64, above which an unsigned key has no int64 code.
_INT64_MAX = (1 << 63) - 1

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
    dense oracle need nothing else.  The package's trees are frozen
    dataclasses, which a copy rebuilds from their fields
    (:meth:`__reduce__`).
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
        root.  A level's ``rows`` and ``up`` point into these.  Built once
        per tree object (:meth:`sorted_codes`) and read-only, so the tables
        on them, and all taken from those, hold these arrays."""
        return self._table_codes

    @cached_property
    def _table_codes(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(*self.sorted_codes())

    def sorted_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`table_codes` built anew, by sorting the ids and the packed
        links of :meth:`links`; a tree may give them in closed form."""
        ids, parents = self.links()
        below = parents >= 0
        return _ascending(ids)[0], _ascending(_pack(parents[below], ids[below]))[0]

    def has_codes(self, ids: np.ndarray, links: np.ndarray) -> bool:
        """Whether ``ids`` and ``links`` are :meth:`table_codes`: the same
        arrays, known in O(1), or equal ones."""
        own = self.table_codes()
        return all(a is b or np.array_equal(a, b) for a, b in zip((ids, links), own))

    def __reduce__(self):
        """For :mod:`copy` and :mod:`pickle`: the tree rebuilt from its
        dataclass fields through its constructor, which checks them, so a
        copy carries nothing the tree cached and builds its own arrays,
        read-only, on first use."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class TreeSpec(RootedTree):
    """Logical binary-tree description.

    ``depth`` is the number of NAND levels (n >= 1), ``input_bits`` the
    N = 2**n leaf bits, and ``not_markers`` the set of internal nodes
    carrying an inline NOT.

    The bits may be given as anything :func:`_as_bits` takes, and are
    checked here and nowhere else, once per tree (a copy is a new tree,
    :meth:`RootedTree.__reduce__`); ``input_bits`` is then a tuple of the
    Python ints 0 and 1, and ``leaf_bits`` the same bits as a read-only
    uint8 array over the packed bytes.
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
        object.__setattr__(self, "leaf_bits", np.frombuffer(packed, np.uint8))
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
        return _read_only(*self.structure())

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

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RootedTree.links` on the heap indices: the reachable ids
        in ascending order (all of 1 .. 2N - 1, or those that a NOT marker
        leaves in reach, :meth:`structure`), each node's parent being
        ``id >> 1``."""
        ids = (np.flatnonzero(self._structure[0]) if self.not_markers
               else np.arange(1, 2 * self.n_leaves))
        parents = ids >> 1
        parents[0] = -1
        return ids, parents

    def leaf_values(self, ids: np.ndarray) -> np.ndarray:
        """``leaf_sign * leaf_bit`` of each id in the int array ``ids``
        that is a leaf node, 0 for the others: read from a table over the
        heap indices 0 .. 2N, an id outside them clipped to -1 or 2N, both
        of which read its last entry, a zero."""
        n = self.n_leaves
        table = np.zeros(2 * n + 1, np.int64)
        table[n:2 * n] = self.leaf_bits
        table[n + 1:2 * n:2] *= -1
        return table[np.clip(ids, -1, 2 * n)]


def _pack(parents: np.ndarray, children: np.ndarray) -> np.ndarray:
    """The int64 code of each (parent, child) link, ``parent << 32 | child``."""
    return parents << 32 | children


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only in place."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _unpack(codes: np.ndarray) -> np.ndarray:
    """The (parent, child) links of int64 link ``codes``, shape (n, 2)."""
    return np.stack([codes >> 32, codes & 0xFFFFFFFF], axis=1)


def _codes(keys: np.ndarray) -> np.ndarray:
    """The int64 code of each key: a node id itself, a link packed."""
    return _pack(keys[:, 0], keys[:, 1]) if keys.ndim == 2 else keys


def _int_keys(keys) -> np.ndarray:
    """``keys`` as a new int64 array if all are ints (bools and numpy ints
    too); floats, strings and the like, and unsigned keys of 2**63 or more,
    which int64 cannot hold, raise :class:`StructureError`."""
    try:
        out = np.array(keys)
    except ValueError as exc:  # ragged
        raise StructureError(f"parameter keys must be ints: {exc}") from exc
    if out.size and out.dtype.kind not in "biu":
        raise StructureError(f"parameter keys must be ints, got {out.dtype} keys")
    if out.dtype.kind == "u" and np.any(big := out > _INT64_MAX):
        raise StructureError(f"parameter keys must be below 2**63, got {out[big][0]}")
    return out.astype(np.int64, copy=False)


def _ascending(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``codes`` sorted, and the stable order that sorts them: ``None``
    when one O(n) check finds them strictly ascending, so sorted and
    distinct, already."""
    if not np.any(codes[1:] <= codes[:-1]):
        return codes, None
    order = np.argsort(codes, kind="stable")
    return codes[order], order


class ParamTable:
    """Parameters as two read-only arrays, key codes and values.

    A table's keys are ints (:func:`_int_keys`): node ids, or (parent,
    child) links if ``links``.  Keys are distinct and node ids lie in
    [0, 2**31), so a link packs into one int64 code, ``parent << 32 |
    child``, and a node id is its own code.  ``codes`` holds them strictly
    ascending, whatever order the keys come in, and ``values_array`` one
    float per key, shape (n,), or per sample and key, shape (samples,
    n); :attr:`keys_array` gives the keys.  :meth:`find` and
    :meth:`lookup` find many keys at once, none included, by binary
    search.  Two tables are equal only if they are the same object.  A
    copy or an unpickled table is rebuilt from its codes and values
    (:meth:`__reduce__`), checked and read-only as every table is.
    """

    def __init__(self, keys, values):
        keys = _int_keys(keys)
        try:
            values = np.array(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise StructureError(f"parameter values must be floats: {exc}") from exc
        if keys.shape[1:] not in ((), (2,)) or values.ndim > 2 \
                or values.shape[-1:] != keys.shape[:1]:
            raise StructureError(
                f"need n keys or n (parent, child) links and n values per sample, "
                f"got shapes {keys.shape} and {values.shape}")
        if keys.size and not (0 <= keys.min() and keys.max() < _ID_LIMIT):
            raise StructureError("node ids must lie in [0, 2**31)")
        codes, order = _ascending(_codes(keys))
        if order is not None:
            values = values.take(order, -1)
            if np.any(codes[1:] == codes[:-1]):
                raise StructureError("parameter keys must be distinct")
        self.codes, self.values_array = _read_only(codes, values)
        self.links = keys.ndim == 2

    @classmethod
    def _of_codes(cls, codes: np.ndarray, values: np.ndarray, links: bool) -> ParamTable:
        """A table on int64 ``codes`` of node ids, or of links if ``links``,
        and float ``values``, both taken as they are and made read-only in
        place: the codes must come strictly ascending, with ids in
        [0, 2**31) (a pass checks each)."""
        if np.any(codes[1:] <= codes[:-1]):
            raise StructureError("table codes must be strictly ascending")
        # The ends bound ascending codes; a link's child is its low 32 bits.
        if len(codes) and (codes[0] < 0 or (np.any(codes & _ID_LIMIT) if links
                                            else codes[-1] >= _ID_LIMIT)):
            raise StructureError("node ids must lie in [0, 2**31)")
        table = cls.__new__(cls)
        table.codes, table.values_array = _read_only(codes, values)
        table.links = links
        return table

    @classmethod
    def of(cls, mapping: Mapping | ParamTable, links: bool) -> ParamTable:
        """``mapping``, a dict or a table, as a table of node ids, or of
        links if ``links``, to floats."""
        if not isinstance(mapping, ParamTable):
            empty = np.zeros((0, 2) if links else 0, np.int64)
            mapping = cls(list(mapping) or empty, list(mapping.values()))
        if mapping.links != links:
            kind = "(parent, child) pairs of node ids" if links else "node ids"
            raise StructureError(f"parameter keys must be {kind}")
        return mapping

    @property
    def keys_array(self) -> np.ndarray:
        """The keys, read-only: ``codes`` itself for node ids, and for
        links the (parent, child) pairs, shape (n, 2), unpacked anew."""
        return _read_only(_unpack(self.codes) if self.links else self.codes)[0]

    def __reduce__(self):
        """For :mod:`copy` and :mod:`pickle`: the table rebuilt through
        :meth:`_of_codes`, which checks the codes and makes the arrays
        (new ones, in a deep copy or an unpickled table) read-only."""
        return type(self)._of_codes, (self.codes, self.values_array, self.links)

    def _with(self, values: np.ndarray) -> ParamTable:
        """These codes, not checked again, with ``values``, shaped like
        ``values_array``, made read-only."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), values_array=_read_only(values)[0])
        return out

    def row(self, i: int) -> ParamTable:
        """Sample ``i`` of a table with a sample axis, sharing its codes."""
        return self._with(self.values_array[i])

    def lookup(self, keys) -> np.ndarray:
        """The values of ``keys``, shaped like ``values_array`` with ``keys``
        for its key axis.

        Raises KeyError naming the first key that is missing, and
        StructureError for keys :meth:`find` does not take.
        """
        return self.values_array[..., self.find(keys)]

    def find(self, keys) -> np.ndarray:
        """The position of each of ``keys`` in ``codes``; raises KeyError
        naming the first key that is missing.

        ``keys`` are ints, shape (n,) on a table of node ids and (n, 2) on a
        table of links (where ``[]`` is no keys too); one key is a list of
        one.  Other values and shapes raise :class:`StructureError`, naming
        the shape wanted and the shape given.
        """
        keys = _int_keys(keys)
        if self.links and keys.shape == (0,):
            keys = keys.reshape(0, 2)
        if keys.shape[1:] != ((2,) if self.links else ()) or not keys.ndim:
            want = "(n, 2) for a table of links" if self.links else "(n,) for a table of node ids"
            raise StructureError(f"keys must have shape {want}, got shape {keys.shape}")
        # Ids outside [0, 2**31) could pack into another link's code: -1 is none's.
        in_range = (keys >= 0) & (keys < _ID_LIMIT)
        in_range = in_range if keys.ndim == 1 else in_range.all(axis=1)
        return self.find_codes(np.where(in_range, _codes(keys), -1), keys)

    def find_codes(self, codes: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """:meth:`find` of the keys whose int64 ``codes`` are given, naming a
        missing one by its entry in ``keys`` (by default, its code unpacked)."""
        at = np.minimum(np.searchsorted(self.codes, codes), len(self) - 1)
        found = self.codes[at] == codes if len(self) else np.zeros(len(codes), dtype=bool)
        if not found.all():
            keys = (_unpack(codes) if self.links else codes) if keys is None else keys
            key = keys[np.argmin(found)].tolist()
            raise KeyError(tuple(key) if self.links else key)
        return at

    def __len__(self) -> int:
        return len(self.codes)


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
    dot) link below the root, on the arrays ``tree.table_codes()`` keeps:
    the tables (see :class:`ParamTable`) take them, and the fresh value
    arrays, with no sort, copy or unpacking, after one pass checks their
    order and ids, and the evaluators know them as the tree's own.
    """
    if not 0 < delta < math.inf:
        raise StructureError(f"delta must be positive and finite, got {delta}")
    ids, links = tree.table_codes()
    return DotParameters(
        epsilon=ParamTable._of_codes(ids, tree.leaf_values(ids) * delta, False),
        coupling=ParamTable._of_codes(links, np.ones(len(links)), True),
        delta=delta, gamma=gamma)


#: numpy's ``SeedSequence`` constants (pool of four 32-bit words):
#: the entropy hash, the output hash, and the mix of two pool words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(entropy) -> list[int]:
    """The 32-bit words of the nonnegative ints of ``entropy``, each
    little-endian and 0 as one word, as ``SeedSequence`` reads them.  Any
    other value raises :class:`StructureError`."""
    out = []
    for value in entropy:
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise StructureError(f"seeds must be nonnegative ints, got {value!r}")
        value = int(value)
        out.append(value & _MASK32)
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
    return out


@cache
def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i = 0 .. ``count``, a uint32 column:
    the hash constants of ``count`` successive hashes."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _mixed(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words)`` of the ``SeedSequence`` of each column
    of ``entropy`` (k words x m entropies, uint32), as (n_words x m)
    uint32 words: numpy's pool-4 hashmix and mix, in uint32 arrays, whose
    products wrap mod 2**32 as numpy's C code does.

    Each hashmix call takes the next of a fixed sequence of hash
    constants, so calls whose inputs do not depend on one another run
    as one array step: the four pool words, the three words one pool
    word mixes into, and the output words.
    """
    k, m = entropy.shape
    const, taken = _powers(_INIT_A, _MULT_A, 16 + 4 * max(0, k - 4)), 0

    def hashmix(value, count):
        nonlocal taken
        value = (value ^ const[taken:taken + count]) * const[taken + 1:taken + count + 1]
        taken += count
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = np.zeros((4, m), np.uint32)
    pool[:k] = entropy[:4]
    pool = hashmix(pool, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:
        pool = mix(pool, hashmix(word, 4))
    const = _powers(_INIT_B, _MULT_B, n_words)
    out = (pool[np.arange(n_words) % 4] ^ const[:-1]) * const[1:]
    return out ^ out >> 16


def _seed_states(entropies, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words)`` of each of
    ``entropies`` (sequences of nonnegative ints), as the rows of a uint32
    array, bit for bit: the hash runs in numpy over all the entropies of
    one word count at once (:func:`_mixed`).  This is numpy's seeding
    algorithm, which its RNG policy (NEP 19) keeps stable; the tests
    compare it with numpy."""
    words = [_words(entropy) for entropy in entropies]
    out = np.empty((len(words), n_words), np.uint32)
    by_count: dict[int, list[int]] = {}
    for row, entropy in enumerate(words):
        by_count.setdefault(len(entropy), []).append(row)
    for rows in by_count.values():
        entropy = np.array([words[row] for row in rows], np.uint32).T
        out[rows] = _mixed(entropy, n_words).T
    return out


def _pcg64_states(seeds) -> list[dict]:
    """``default_rng(seed).bit_generator.state`` for each nonnegative int of
    ``seeds``.  The seed's ``generate_state(4, uint64)`` is eight 32-bit
    words (:func:`_seed_states`), two per uint64, low word first; the
    first two uint64 make initstate and the last two initseq, high first.
    PCG64's seeding step then runs in Python ints: state 0,
    inc = initseq << 1 | 1, one step, add initstate, one step."""
    out = []
    for w in _seed_states([(seed,) for seed in seeds], 8).tolist():
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
        state = (inc + initstate) & _MASK128
        out.append({"bit_generator": "PCG64",
                    "state": {"state": (state * _PCG_MULT + inc) & _MASK128, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    return out


def sample_disorder(tree: RootedTree, ideal: DotParameters, spec: DisorderSpec) -> DotParameters:
    """One disorder sample: couplings ~ N(mean_t, sigma_t) clamped below
    at ``coupling_floor``, additive N(0, sigma_eps) detuning noise on
    every dot (leaves included).  Pure function of (tree, ideal, spec).

    The one-sample case of :func:`sample_disorder_many`, with the seed
    ``spec.seed``, which gives the order of the draws.
    """
    return sample_disorder_many(tree, ideal, spec, [spec.seed]).sample(0)


def sample_disorder_many(tree: RootedTree, ideal: DotParameters, spec: DisorderSpec,
                         seeds) -> DotParameters:
    """One disorder sample of ``spec``'s widths per seed, as parameters
    with a sample axis; ``spec.seed`` is not read.

    Row i is what :func:`sample_disorder` draws for ``spec`` with the
    seed ``seeds[i]``, from its own ``default_rng(seeds[i])``: the
    couplings first, one per link in ascending (parent, child) order,
    then the detuning noise, one per node in ascending id order.  Those
    are the orders the ideal tables keep, so the draws fill their value
    arrays as they come, and every row shares their codes.  Seeds must
    be nonnegative ints, else :class:`StructureError`.

    The generators' start states, bit for bit those of
    ``default_rng(seed)``, are computed in bulk: numpy's ``SeedSequence``
    hash over all the seeds at once, then PCG64's seeding step
    (:func:`_pcg64_states`), each set on one reused ``Generator``.
    numpy's RNG policy (NEP 19) keeps those streams stable, and the tests
    compare them with ``default_rng`` over many seeds.
    """
    coup, eps = ideal.coupling, ideal.epsilon
    links, dots = len(coup), len(eps)
    states = _pcg64_states(seeds)
    tvals = np.empty((len(states), links))
    evals = np.empty((len(states), dots))
    bits = np.random.PCG64(0)  # each row sets its own state
    rng = np.random.Generator(bits)
    for state, t, e in zip(states, tvals, evals):
        bits.state = state
        t[:] = rng.normal(spec.mean_t, spec.sigma_t, size=links)
        e[:] = rng.normal(0.0, spec.sigma_eps, size=dots)
    floor = spec.coupling_floor
    tvals = np.where(tvals < floor, floor, tvals)
    evals += eps.values_array
    return replace(ideal, epsilon=eps._with(evals), coupling=coup._with(tvals))
