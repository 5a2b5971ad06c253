"""Exact recursive evaluation of the projected Green's function.

The root Green's function of a loop-free dot tree satisfies

    G_i(E)^-1 = E + i*gamma - eps_i - sum_c |t_c|^2 G_c(E)

with the single-dot form 1/(E + i*gamma - eps) truncating the recursion
at the leaves.  The recursion is exact (no perturbative approximation).
The analytic energy derivative is propagated alongside via

    G_i' = -G_i^2 * (1 - sum_c |t_c|^2 G_c')

which is what the slope extraction in :func:`classify` uses.

Evaluators take any :class:`~nandtree.model.RootedTree`, the tree
protocol: a :class:`~nandtree.model.TreeSpec` or a chain-augmented tree
from :mod:`nandtree.layout`, each of which computes its evaluation
schedule in closed form.

**Level schedule.**  :meth:`~nandtree.model.RootedTree.levels` orders
the reachable dots by distance from the root.  The recursion runs from
the deepest level up, one numpy operation per level and child slot on a
(dots x samples x energies) block, and keeps only the level below
alive.  The sample axis holds the disorder realizations of parameters
with a sample axis (:func:`~nandtree.model.sample_disorder_many`), and
has length 1 otherwise; every sample sees the same energies, and the
result has shape (samples,) + the energies' shape, or the energies'
shape alone for one realization.  Each dot's eps and the t^2 of the
link into it are gathered into per-level (dots x samples) columns once
per compilation, by position, one gather per level and table: every
level gives the ``rows`` of its dots and the ``up`` of the links into
them in the tables whose codes are the tree's
:meth:`~nandtree.model.RootedTree.table_codes`, slices for a
:class:`~nandtree.model.TreeSpec` (so an unmarked one's columns are
views of the tables).  A tree builds those codes once, and the tables
of :func:`~nandtree.model.ideal_parameters`, and all drawn or taken
from them, hold the very arrays, which
:meth:`~nandtree.model.RootedTree.has_codes` knows by identity.  Any
other tables, hand-built ones with extra keys or another tree's, are
first read onto the codes, one binary search per table
(:meth:`~nandtree.model.ParamTable.find_codes`): entries for dots and links
out of reach are never read, and a missing entry for a reachable one
raises :class:`~nandtree.model.StructureError` naming the lowest missing
dot id, or else the lowest missing (parent, child) link.  A child slot
whose gathered t^2 are all exactly 1, as every slot of ideal parameters
and of detuning-only disorder is, is marked unit then, once per level,
and keeps the mark when its level is merged or a stack is split into
rows; a level subtracts a unit slot's values with no product (see
"Rounding" below).

A chained tree gives each maximal run of two or more single-child
levels, its inverter chains, as one stacked level (L rows of w dots,
see :class:`~nandtree.model.Level`).  A stack runs as Möbius products:
the dot map G -> 1 / (z - eps - t^2 G) is the matrix M = [[0, 1], [-t^2,
z - eps]] acting on G, so a column's L maps compose to one product, in
log2(L) steps of pairwise products (:func:`_compose`), which then maps
the values of the level below, G -> (a G + b) / (c G + d), with its
derivative.  The products do not depend on the values below, so they
are composed before them (see "Energy blocks" below).  So the depth-12
H-fractal's 4976 inverter levels run, at one energy, as 11 stacks
composed in the log2(2494) steps of the longest, not one step per level.

**Merged subtrees.**  :func:`compile_tree` turns the schedule and its
columns into a schedule of distinct subtrees: level by level from the
leaves up, it merges every dot whose subtree carries bit for bit the
same parameters as another's into one class.  A dot's key is the bit
pattern of its eps and, for each child slot, of its t^2 and its child's
class (t^2 bits 0 and class -1 for a missing child), over all samples
for parameters with a sample axis; a stack is classed by whole columns.
Keys compare as int64 bit patterns (:func:`_classes`), so -0.0 and 0.0
are different classes and there is no tolerance.  Every level is keyed
alike, the leaves by their eps alone, but for one shortcut: once the
dots of a level are all distinct, a level above whose dots all have a
child is distinct too and is not keyed; a level with childless dots is
keyed, each dot below its own class.  Merging pays only where a call
evaluates more than one energy per sample, as classing a level costs at
least evaluating each dot once: so calls at one energy
(:func:`green_tree`, :func:`green_tree_derivative`, :func:`classify`,
and :func:`green_tree_many` or :func:`inertia_count` at one energy) run
the unmerged columns, and calls at more energies merge first, with no
tuned threshold.  A merged dot applies the same operations to the same
values as each dot of its class, so the results keep their bits.  Each
class carries its multiplicity, the number of dots it stands for, which
weights the inertia count.  A :class:`CompiledTree` belongs to the
parameters it was made from and can stand in for the tree, with those
parameters, in every evaluator.  Nothing is kept across calls.

**Energy blocks.**  A level's width is its number of classes, or of
dots when unmerged (of columns for a stack).  Levels whose (width x
samples x energies) block exceeds ``_BLOCK`` complex values form the
wide bottom band, which runs in blocks of ``_BLOCK // width`` values
(:func:`_blocks`), so a level step touches a few MiB however many
samples and energies are asked for; the narrow upper levels then run
once over all of them.  One composer (:func:`_products`) composes the
stacks, in the order the recursion reaches them: stacks whose products
fit a block whole are composed together, as many as fill one block, in
one pass, which saves the per-step overhead of many small stacks (at
one energy the depth-12 H-fractal's 11 stacks form one group); a larger
stack is composed alone, in chunks whose planes hold at most ``_BLOCK``
values (401 energies on the depth-12 H-fractal run 26 at a time).
Either way :func:`_compose` lays every column of a stack out as one run
of rows.
``_BLOCK`` is sized for cache: one block is 1 MiB against a 2 MiB L2 per
core on the x86 server this was measured on.  There, four times larger
blocks made 401 energies on a depth-16 tree about 1.5x slower, and 16
times smaller ones made the depth-12 H-fractal about 5x slower through
per-level overhead (before its chains ran as products).

**Parts at once.**  A call whose widest level needs more than one block
cuts its energies into P contiguous parts and runs them at once: the
caller's thread runs the first and threads of the call the rest, while
numpy's arithmetic releases the GIL.  P is the least of the CPUs the
process may run on (``taskset`` limits them; CPU quotas are not read),
``_PARTS``, the blocks the widest level needs and the number of
energies (:func:`_bottom_up`), so a call that fits one block, and every
call at one energy, runs on the caller's thread alone.  Each part runs
the serial blocks above with a block of ``_BLOCK // P`` values, so the
parts together keep about one block in flight.  A part's values are
bit for bit those of the whole call, as an energy's values do not
depend on what is evaluated with it (see "Rounding" below).  Each part
runs in a copy of the caller's context, which carries numpy's error
state (a context variable from numpy 2.0 on).  The call returns
when every part has ended, and the first failing part, by index,
raises its error.  Its threads end with it, so none is left running
when the process forks later.

**Inertia count.**  :func:`inertia_count` runs the same schedule and
energy blocks in real arithmetic at gamma = 0 and counts the
positive denominators, each class as many times as its multiplicity,
into a (samples x energies) array, each block into its part of it
(:func:`_pivots`); they number the eigenvalues below E.  A product
keeps no pivot signs, so it walks a stack row by row in the level
recursion's arithmetic.
:mod:`nandtree.transport` locates resonances with it.

**Rounding.**  Results are reproducible bit for bit.  On every
schedule without a stack, a :class:`~nandtree.model.TreeSpec`'s
included, they match the dot-by-dot recursion exactly: every dot
applies the same operations in the same order, ``(E + i*gamma) - eps -
t_1^2 G_1 - t_2^2 G_2`` and then the reciprocal, with ``t^2`` taken as
Python's ``t ** 2``, in numpy's elementwise arithmetic for every kind of
energy: a Python number, a numpy scalar and an array of any shape round
alike.  A stack's products round differently: against the recursion,
G and dG/dE agree to 4e-11 relative at worst on the chained trees and
H-fractals tested, 401 energies on the depth-12 H-fractal, where |G|
reaches 233, included (4e-14 at E = 0, which :func:`classify` reads),
and the tests hold them to 1e-9, far finer than the readout's
thresholds on |G(0)|.  Each dot matrix, and each product of more than
two dots, is scaled by a power of two from its own largest entry,
exactly and never by a value shared across the block, so on every
schedule a sample's values do not depend on the block shape, on the
other samples and energies evaluated with it, or on the stacks composed
with its own, and the inertia count stays bit for bit.  The scaled
dots' entries stay below 2 and their pairs' below 3, so no product
overflows at any finite energy (unscaled, a product of two dots reaches
E^2 and one of four E^4, which overflowed from |E| of about 1e77).  A
power of two changes no bit unless a partial product underflows: on
the chained trees and H-fractals tested, G and dG/dE are those of the
unscaled dots bit for bit at every |E| below 8e97, and past it only
components below about 1e-305, near the least normal float, differ, by
a few units in their last place.  That also needs every complex product
to keep its operand order: numpy's complex multiply fuses its
multiply-adds, so x * y and y * x can differ in the last bit, and numpy
computes ``x * (temporary)`` of 256 KiB or more in place in the
temporary, operands swapped; so no complex temporary is a right
operand of ``*``.

A unit slot subtracts its values G_c, or dG_c/dE, where the recursion
subtracts ``1.0 * G_c``, and no bit changes.  In the real arithmetic
of the inertia count ``1.0 * x == x`` for every float.  In complex
arithmetic the real t^2 multiplies as ``1 + 0j``, and ``(1+0j) * g``
equals ``g`` for every finite ``g``, except that a -0.0 component may
come back as +0.0.  ``x - (+0.0)`` and ``x - (-0.0)`` differ only when x
is -0.0, and no denominator component is ever -0.0: the real part
starts as ``(E + 0.0) - eps``, because :func:`_resolve` forms ``E +
1j*gamma``; the imaginary part starts at gamma >= ``GAMMA_FLOOR``, and
dG/dE's denominator at (1, +0.0); and IEEE subtraction yields -0.0 only
from (-0.0) - (+0.0).  The complex values a slot reads are finite, as
a resolvent's at E + i*gamma are (|G| <= 1/gamma, |dG/dE| <=
1/gamma^2), unless some t^2 overflows, where Python's ``t ** 2`` raises.
"""

from __future__ import annotations

import contextvars
import math
import os
from contextlib import nullcontext
from dataclasses import replace
from functools import reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .model import DotParameters, Level, LogicalForm, ParamTable, Slot, StructureError, \
    TreeSpec, build_tree, ideal_parameters

#: |G(0)| decision threshold between "1"-like (small) and "0"-like (pole).
CLASSIFY_THRESHOLD = 1.0
#: |G(0)| band flagged as ambiguous rather than silently decided.
AMBIGUITY_BAND = (0.5, 2.0)


#: Deepest :func:`worst_case_profile`; see its docstring for the reason.
MAX_PROFILE_DEPTH = 20

#: Complex values per energy block of the wide bottom levels (1 MiB),
#: and at most per plane of a stack's products, shared by the parts of a
#: call run at once; see "Energy blocks" and "Parts at once" above.
_BLOCK = 1 << 16

#: Most parts of a call run at once.  Each part runs as many blocks as
#: the whole call would, each with the same per-level Python overhead,
#: which holds the GIL; blocks of ``_BLOCK // 4`` keep it small.  A pass
#: of the benchmark's ``monte_carlo`` workload took 1.01, 1.13 and 1.28
#: times as long with its calls cut into 4, 8 and 16 parts run one after
#: another (2-core x86-64 Linux VM, Python 3.11, numpy 2.4).
_PARTS = 4


class _Step(NamedTuple):
    """One level of a compiled schedule: one row per class of its dots,
    or per dot when unmerged.  A stacked level (:class:`~nandtree.model.Level`)
    has one more axis in front, its L rows deepest first, and its one
    slot's t^2 holds, per row, the links into the row below (into the
    level below for row 0); a class is then a whole column."""

    eps: np.ndarray  # (classes, samples), or (L, classes, samples) stacked
    slots: tuple[Slot, ...]  # into the classes of the level below
    t2s: tuple[np.ndarray, ...]  # per slot: (classes with that child, samples), or (L, ...)
    mult: np.ndarray | None  # dots per class (int64); None: one each
    unit: tuple[bool, ...]  # per slot: its t^2 all exactly 1

    def samples(self, cut) -> _Step:
        """The samples ``cut`` (a slice) of this level."""
        return self._replace(eps=self.eps[..., cut], t2s=tuple(t2[..., cut] for t2 in self.t2s))


class CompiledTree(NamedTuple):
    """A tree and its parameters as a schedule of per-level columns.

    Made by :func:`compile_tree`, merged into distinct subtrees (see
    "Merged subtrees" above).  Every evaluator takes it in place of the
    tree, with ``params``.
    """

    params: DotParameters
    steps: tuple[_Step, ...]

    def sample(self, i: int) -> CompiledTree:
        """Realization ``i`` of a batch, compiled; its ``params`` are
        ``params.sample(i)``."""
        cut = slice(i, i + 1)
        return CompiledTree(self.params.sample(i), tuple(s.samples(cut) for s in self.steps))


def _gather(tree, params: DotParameters) -> list[_Step]:
    """The unmerged columns of ``tree`` with ``params`` (see "Level
    schedule" above), gathered by position, from tables read onto the
    tree's own codes first (:func:`_own`) unless they are its own
    (:meth:`~nandtree.model.RootedTree.has_codes`)."""
    if not tree.has_codes(params.epsilon.codes, params.coupling.codes):
        params = _own(tree, params)
    return _columns(params, tree.levels())


def _top(values: np.ndarray, level: Level) -> np.ndarray:
    """The top row of ``values``, given per dot of ``level``: all of them
    unless the level is stacked."""
    return values[-1] if level.nodes.ndim == 2 else values


def _own(tree, params: DotParameters) -> DotParameters:
    """``params`` with each table read onto the tree's own
    :meth:`~nandtree.model.RootedTree.table_codes`, by one
    :meth:`~nandtree.model.ParamTable.find_codes`; the lowest missing dot id,
    or else the lowest missing link, raises
    :class:`~nandtree.model.StructureError`."""
    tables = []
    for table, codes in zip((params.epsilon, params.coupling), tree.table_codes()):
        try:
            at = table.find_codes(codes)
        except KeyError as exc:
            raise StructureError(f"parameters missing entry for {exc.args[0]!r}") from exc
        tables.append(ParamTable._of_codes(codes, table.values_array[..., at], table.links))
    return replace(params, epsilon=tables[0], coupling=tables[1])


def _columns(params: DotParameters, schedule) -> list[_Step]:
    """Each level as a :class:`_Step` of one dot per class: eps of its
    dots, and t^2 of the links in each child slot, as (dots, samples)
    columns, (L, dots, samples) for a stack, taken at the level's
    ``rows`` and ``up``, a view for a slice; one sample for parameters
    without a sample axis.  Each slot is marked unit if its t^2 are all 1."""
    eps = np.atleast_2d(params.epsilon.values_array).T
    t2 = np.atleast_2d(_squares(params.coupling.values_array)).T
    # An ideal table is all ones and a disordered one has none: no slot of
    # either needs a test of its own.
    ones = t2 == 1
    every, some = bool(ones.all()), bool(ones.any())
    *lower, root = schedule
    # The links into every dot; the top row of a stacked root has none.
    ups = [t2[level.up] for level in lower] + [t2[root.up[:-1]] if root.nodes.ndim == 2 else None]
    tops = [None] + [up if up is None else _top(up, level) for level, up in zip(schedule, ups)]
    steps = []
    for level, top, up in zip(schedule, tops, ups):
        e = eps[level.rows]
        # A slot's t^2 are those of the links into the level below's top
        # row, at its index.
        t2s = tuple(top[index] for index, _ in level.slots)
        if e.ndim == 3:  # and above the stack's bottom row, the links within it
            t2s = (np.concatenate([t2s[0][None], up[:len(e) - 1]]),)
        unit = tuple(every or (some and bool(np.all(t2 == 1))) for t2 in t2s)
        steps.append(_Step(e, level.slots, t2s, None, unit))
    return steps


def _squares(t: np.ndarray) -> np.ndarray:
    """Python's ``t ** 2`` of every coupling: np.float_power calls the same
    libm pow, which can differ from t * t, and from np.power's square, in
    the last bit.  pow(1, 2) is exactly 1, so unit couplings, all of an
    ideal table, skip the call."""
    return np.float_power(t, 2, where=t != 1, out=np.ones_like(t))


def _packed(keys: np.ndarray) -> np.ndarray | None:
    """Each row of the int64 ``keys`` as one exact int64 code, or ``None``.

    Columns constant over the rows are dropped.  One column left is its
    own code; more are packed mixed-radix, each offset by its least value
    and weighted by the product of the later columns' ranges, when those
    ranges multiply to less than 2**62, so no code overflows.  Otherwise
    ``None``: the rows have to be hashed.
    """
    lo, hi = keys.min(axis=0).tolist(), keys.max(axis=0).tolist()
    varying = [c for c in range(len(lo)) if lo[c] != hi[c]]
    if len(varying) == 1:
        return keys[:, varying[0]]
    if math.prod(hi[c] - lo[c] + 1 for c in varying) >= 1 << 62:
        return None
    code = np.zeros(len(keys), np.int64)
    for c in varying:
        code *= hi[c] - lo[c] + 1
        code += keys[:, c] - lo[c]
    return code


def _row_hash(keys: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of the int64 ``keys``, the sum of
    splitmix64's finalizer of each entry, salted by its column."""
    x = keys.view(np.uint64) + np.arange(keys.shape[1], dtype=np.uint64) * 0x9E3779B97F4A7C15
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x.sum(axis=1, dtype=np.uint64)


def _classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the int64 ``keys`` grouped by bit pattern: one
    representative row per class, and the class of each row.

    Exact codes (:func:`_packed`) whose range is no larger than the
    number of rows, as an ideal tree's are, address a table of classes
    directly, with no sort.  Wider codes are sorted, and unpackable rows
    are hashed and their hashes sorted; then every row is checked against
    its class's representative, and a hash collision regroups the rows
    exactly.  Either way the classes are numbered in the order of the
    codes, and any row of a class can stand for it, so the sort need not
    be stable.
    """
    h = _packed(keys)
    if h is not None:
        lo = int(h.min())
        span = int(h.max()) - lo + 1
        if span <= len(h):
            return _addressed(h - lo, span)
    hashed = h is None
    if hashed:
        h = _row_hash(keys)
    order = np.argsort(h)
    h = h[order]
    new = np.empty(len(h), bool)
    new[:1] = True
    np.not_equal(h[1:], h[:-1], out=new[1:])
    classes = np.empty(len(h), np.intp)
    # Not np.cumsum: on a bool array, numpy 2.4 keeps a small block per call.
    classes[order] = np.add.accumulate(new, dtype=np.intp) - 1
    rep = order[new]
    if hashed and not np.array_equal(keys[rep[classes]], keys):  # a hash collision
        _, rep, classes = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return rep, classes.reshape(-1)


def _addressed(codes: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_classes` of rows with int ``codes`` in [0, ``span``): a table
    over the codes marks the last row of each, and ranks the codes
    present."""
    last = np.full(span, -1, np.intp)
    last[codes] = np.arange(len(codes))
    present = np.flatnonzero(last >= 0)
    rank = np.empty(span, np.intp)
    rank[present] = np.arange(len(present))
    return last[present], rank[codes]


def _per_dot(values: np.ndarray) -> np.ndarray:
    """The int64 bits of a level's ``values``, one row per dot (per
    column of a stack)."""
    return values.swapaxes(0, -2).reshape(values.shape[-2], -1).view(np.int64)


def _key(eps, slots, t2s, below) -> np.ndarray:
    """Each dot's key row (see "Merged subtrees" above), as int64; ``below``
    holds the class of each dot of the level below.  The keys are laid out
    column by column (Fortran order), so that a column's range, the
    packing's first step (:func:`_packed`), reads contiguous memory."""
    cols = [_per_dot(eps)]
    width = eps.shape[-2]
    for (index, mask), t2 in zip(slots, t2s):
        t2 = _per_dot(t2)
        bits, child = np.zeros((width, t2.shape[1]), np.int64), np.full((width, 1), -1)
        present = slice(None) if mask is None else mask
        bits[present], child[present, 0] = t2, below[index]
        cols += [bits, child]
    return np.concatenate([c.T for c in cols]).T


def _group(level: _Step, below, width_below: int):
    """The classes of the dots of ``level`` (see "Merged subtrees" above),
    as from :func:`_classes`; ``below`` holds the classes of the level
    below, ``None`` when each of its ``width_below`` dots is its own.
    Returns ``None`` when every dot is its own class and ``below`` is
    ``None``: without keys when every dot has a child, as its parent
    then is as distinct as it is."""
    eps, slots, t2s, *_ = level
    width = eps.shape[-2]
    if below is None and slots and slots[0].mask is None:
        return None
    children = np.arange(width_below) if below is None else below
    rep, classes = _classes(_key(eps, slots, t2s, children))
    if len(rep) < width:
        return rep, classes
    # All distinct: the level keeps its own order.
    return None if below is None else (np.arange(width), np.arange(width))


def _merge(level: _Step, rep, classes, below, width_below: int) -> _Step:
    """``level`` with one row per class, the dot ``rep`` standing for it,
    its child slots pointing at the classes ``below`` of the level below
    (``None``: each of its ``width_below`` dots is its own)."""
    child_classes = np.arange(width_below) if below is None else below
    slots, t2s = [], []
    for (index, mask), t2 in zip(level.slots, level.t2s):
        at, has = rep, None
        if mask is not None:
            holder = np.full(len(classes), -1)
            holder[mask] = np.arange(len(t2))
            at = holder[rep]
            has = at >= 0
            at = at[has]
        slots.append(Slot(child_classes[index][at], has))
        t2s.append(t2[..., at, :])
    mult = np.bincount(classes, minlength=len(rep))
    return _Step(level.eps[..., rep, :], tuple(slots), tuple(t2s), mult, level.unit)


def _merged(steps) -> tuple[_Step, ...]:
    """The unmerged ``steps`` with their identical subtrees merged, level
    by level from the leaves up (see "Merged subtrees" above)."""
    merged = []
    below, width_below = None, 0
    for level in steps:
        grouped = _group(level, below, width_below)
        if grouped is None:
            merged.append(level)
        else:
            rep, classes = grouped
            merged.append(_merge(level, rep, classes, below, width_below))
            below = None if len(rep) == len(classes) else classes
        width_below = level.eps.shape[-2]
    return tuple(merged)


def _schedule(tree, params: DotParameters, merge: bool) -> tuple[_Step, ...]:
    """The steps of ``tree`` with ``params``: gathered, and merged if
    ``merge``, or those of a :class:`CompiledTree` made from ``params``;
    one made from other parameters raises
    :class:`~nandtree.model.StructureError`."""
    if isinstance(tree, CompiledTree):
        if tree.params is not params:
            raise StructureError("a compiled tree takes the parameters it was compiled from")
        return tree.steps
    steps = _gather(tree, params)
    return _merged(steps) if merge else tuple(steps)


def compile_tree(tree, params: DotParameters) -> CompiledTree:
    """``tree`` with ``params`` as a merged schedule of its distinct subtrees.

    See "Merged subtrees" above.  A :class:`CompiledTree` made from
    ``params`` comes back as it is; one made from other parameters
    raises :class:`~nandtree.model.StructureError`.
    """
    steps = _schedule(tree, params, True)
    return tree if isinstance(tree, CompiledTree) else CompiledTree(params, steps)


def _subtract(target, t2, values, index, mask) -> None:
    """``target -= t2 * values[index]``, on the rows ``mask`` (``None``: all);
    ``t2`` ``None`` stands for unit couplings, whose values are subtracted
    as they are (see "Rounding" above).

    An index array already gathers a copy, which takes the product in place.
    """
    part = values[index]
    if t2 is not None:
        part = t2 * part if isinstance(index, slice) else np.multiply(t2, part, out=part)
    if mask is None:
        target -= part
    else:
        target[mask] -= part


def _product(left, right) -> list:
    """The 2x2 matrix products ``left @ right`` of two stacks of planes
    [a, b, c, d], and their derivatives when the planes carry them as
    four more (the product rule)."""
    a, b, c, d = left[:4]
    e, f, g, h = right[:4]
    out = [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]
    if len(left) > 4:
        da, db, dc, dd = left[4:]
        de, df, dg, dh = right[4:]
        out += [da * e + db * g + a * de + b * dg, da * f + db * h + a * df + b * dh,
                dc * e + dd * g + c * de + d * dg, dc * f + dd * h + c * df + d * dh]
    return out


def _rescaled(planes) -> list:
    """``planes``, fresh arrays, scaled in place, each matrix by the power
    of two nearest below its own largest entry: exact, and blind to the
    other matrices of the block.  A Möbius map, and its derivative, do
    not change when the matrix and its derivative are scaled together."""
    scale = _power(reduce(np.maximum, map(np.abs, planes[:4])))
    for p in planes:
        p *= scale
    return planes


def _power(largest: np.ndarray) -> np.ndarray:
    """The power of two nearest below each of ``largest``'s reciprocals,
    the scale that brings a matrix whose largest entry it is into [0.5, 1)."""
    return np.ldexp(1.0, -np.frexp(largest)[1])


def _compose(pieces, z, derivative) -> list:
    """The products M_{L-1} ... M_0 of the dot matrices M_j = [[0, 1],
    [c_j, d_j]] of each of ``pieces`` at the energies ``z``, as planes
    [a, b, c, d] and, if ``derivative``, their z-derivatives, M_j' being
    [[0, 0], [0, 1]].

    A piece is a pair (t^2, eps) of arrays shaped (L, m): m stacks of L
    dots each, whose c = -t^2 and d = z - eps.  Its products' planes are
    shaped (m, energies).  Pairwise products halve each stack at each
    step; the top of a stack of odd length waits aside and multiplies in
    from the left at the end, the last set aside first.  Each dot matrix is
    first scaled by the power of two from its largest entry, to s [[0, 1],
    [c, d]] with planes [s, s c, s d], and every product of more than two
    dots is rescaled (:func:`_rescaled`), so nothing overflows at any
    finite energy, however far the products would grow or shrink.

    One pass of steps serves every piece, each step pairing the matrices
    of all of them at once.  Each stack is one run of rows, its dots in
    order, and the pieces are sorted longest first, so that the pieces
    left are a prefix and those done a suffix.  Each step sets the odd
    tops aside, one gather keeps the other rows, and every run is then
    even, so consecutive rows pair.  The tops multiply in step by step,
    the latest first, for every piece that set one aside at that step.
    Elementwise arithmetic is the same whatever else shares the arrays,
    so each product keeps its bits.
    """
    order = sorted(range(len(pieces)), key=lambda i: -len(pieces[i][1]))
    length = [len(pieces[i][1]) for i in order]
    width = runs = [pieces[i][1].shape[1] for i in order]
    t2, eps = (np.concatenate([pieces[i][k].T.ravel() for i in order])[:, None] for k in (0, 1))
    planes = _scaled_dots(-t2, z - eps)
    tops, done, dots = [], [], True
    while length:
        start = list(accumulate((n * r for n, r in zip(length, runs)), initial=0))
        left = sum(n > 1 for n in length)
        if left < len(length):  # copied, so that no step's planes outlive it
            done.append([p[start[left]:].copy() for p in planes])
        odd = [k for k in range(left) if length[k] % 2]
        if odd:
            at = _spaced([start[k] + length[k] - 1 for k in odd], [runs[k] for k in odd],
                         [length[k] for k in odd])
            top = [p.take(at, axis=0) for p in planes]
            if dots:  # the matrices [[0, s], [s c, s d]] and their derivatives
                top = [0.0, *top] + ([0.0, 0.0, 0.0, top[0]] if derivative else [])
            tops.append((odd, top))
            kept = np.ones(start[left], bool)
            kept[at] = False
            keep = np.flatnonzero(kept)
            for k, p in enumerate(planes):  # plane by plane, each freed as it goes
                planes[k] = p.take(keep, axis=0)
        else:
            planes = [p[:start[left]] for p in planes]
        length, runs = [n // 2 for n in length[:left]], runs[:left]
        if left:
            planes = _halved(planes, dots, derivative)
            dots = False
    planes = [np.concatenate([np.broadcast_to(b, b.shape[:-1] + z.shape) for b in blocks],
                             dtype=complex) for blocks in zip(*reversed(done))]
    first = list(accumulate(width, initial=0))
    for odd, top in reversed(tops):
        at = _spaced([first[k] for k in odd], [width[k] for k in odd], [1] * len(odd))
        product = _rescaled(_product(top, [p.take(at, axis=0) for p in planes]))
        for p, q in zip(planes, product):
            p[at] = q
    out = [None] * len(pieces)
    for i, lo, w in zip(order, first, width):
        out[i] = [p[lo:lo + w] for p in planes]
    return out


def _scaled_dots(c, d) -> list:
    """The planes [s, s c, s d] of the dot matrices s [[0, 1], [c, d]],
    each scaled by the power of two from its own largest entry; ``d``, a
    fresh array, is scaled in place, its real and imaginary parts apart."""
    scale = _power(np.maximum(np.maximum(np.abs(d.real), np.abs(d.imag)),
                              np.maximum(np.abs(c), 1.0)))
    d.real *= scale
    d.imag *= scale
    return [scale, scale * c, d]


def _halved(planes, dots: bool, derivative) -> list:
    """The product of each pair of consecutive rows of ``planes``, the
    upper times the lower; ``dots``: the planes are the [s, s c, s d] of
    scaled dot matrices s [[0, 1], [c, d]], whose products are not
    rescaled again."""
    pairs = [p.reshape(len(p) // 2, 2, *p.shape[1:]) for p in planes]
    upper, lower = [p[:, 1] for p in pairs], [p[:, 0] for p in pairs]
    if not dots:
        return _rescaled(_product(upper, lower))
    (s1, c1, d1), (s0, c0, d0) = upper, lower
    out = [s1 * c0, s1 * d0, d1 * c0, s0 * c1 + d1 * d0]
    if derivative:
        out += [np.zeros((len(s0), 1)), s1 * s0, out[0], s1 * d0 + s0 * d1]
    return out


def _spaced(starts: list, counts: list, strides: list) -> np.ndarray:
    """The rows ``starts[i] + strides[i] * j`` for j < ``counts[i]``, for
    each i in turn, as one index array."""
    counts = np.array(counts)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + np.repeat(strides, counts) * j


def _products(steps, i: int, base, derivative, block: int) -> dict:
    """The products of the stack ``steps[i]``, and of the stacks composed
    with it, by their index in ``steps``: each an iterable of (columns,
    energies) slices and the planes of the products there.

    A stack too large for one ``block`` is composed alone, lazily, in
    chunks whose planes hold at most ``block`` values: as many energies as
    fit, then as many columns, and at least one of each.  A stack that
    fits is composed whole in one pass (:func:`_compose`) with the next
    stacks that fit, as many as fill one block together.
    """
    n = base.size
    if steps[i].eps.size * n > block:
        t2, eps = _dots(steps[i])
        length, columns = eps.shape
        room = max(1, block // length)
        energies = max(1, min(n, room))
        width = max(1, room // energies)
        cuts = [(slice(c, c + width), slice(e, e + energies))
                for c in range(0, columns, width) for e in range(0, n, energies)]
        return {i: ((at, _compose([(t2[:, at[0]], eps[:, at[0]])], base[at[1]], derivative)[0])
                    for at in cuts)}
    group, size = [], 0
    for j in range(i, len(steps)):
        if steps[j].eps.ndim == 3 and steps[j].eps.size * n <= block:
            size += steps[j].eps.size * n
            if size > block:
                break
            group.append(j)
    every = (slice(None), slice(None))
    planes = _compose([_dots(steps[j]) for j in group], base, derivative)
    return {j: [(every, p)] for j, p in zip(group, planes)}


def _dots(step: _Step) -> tuple:
    """The t^2 and eps of a stacked ``step``'s dots, shaped (L, columns
    of every sample)."""
    return tuple(a.reshape(len(a), -1) for a in (step.t2s[0], step.eps))


def _chain(step, base, g, dg, derivative, products):
    """The values of a stacked ``step``'s top row, from the values ``g``
    (and ``dg``) of the level below: each column is one Möbius map, the
    product of its dots' matrices, applied as (a G + b) / (c G + d), at
    the slices of each of its ``products`` (:func:`_products`).
    """
    ((index, _),) = step.slots
    length, width, samples = step.eps.shape
    # One axis for the columns of every sample, as in the values.
    g = g[index].reshape(width * samples, base.size)
    dg = dg[index].reshape(g.shape) if derivative else None
    out = np.empty(g.shape, complex)
    dout = np.empty_like(out) if derivative else None
    for at, (a, b, c, d, *dual) in products:
        below = g[at]
        den = c * below + d
        out[at] = value = (a * below + b) / den
        if derivative:
            da, db, dc, dd = dual
            dbelow = dg[at]
            # np.multiply, not value * (...): see "Rounding" above.
            dout[at] = (da * below + a * dbelow + db
                        - np.multiply(value, dc * below + c * dbelow + dd)) / den
    shape = (width, samples, base.size)
    return out.reshape(shape), dout.reshape(shape) if derivative else None


def _climb(steps, base, g, dg, counts, derivative, block):
    """Evaluate ``steps`` bottom-up over ``base``: E + i*gamma, or the real E.

    ``g``/``dg`` hold the values of the level below the first one given
    (``None`` when it starts at the leaves); returns the last level's.
    A level's values are the reciprocals of its denominators, or, when
    ``counts`` is given, its pivots' reciprocals as :func:`_pivots` gives
    them, counted into ``counts``; stacked levels run as products
    (:func:`_chain`), composed (:func:`_products`) when the first stack
    of a group is reached, in planes of at most ``block`` values.  The
    derivative is carried along only if ``derivative`` is set.
    """
    products = {}
    for i, step in enumerate(steps):
        if step.eps.ndim == 3:
            if i not in products:
                products.update(_products(steps, i, base, derivative, block))
            g, dg = _chain(step, base, g, dg, derivative, products.pop(i))
            continue
        denom = base - step.eps[..., None]
        if derivative:
            ddenom = np.ones(denom.shape, dtype=complex)
        for (index, mask), t2, unit in zip(step.slots, step.t2s, step.unit):
            t2 = None if unit else t2[..., None]
            _subtract(denom, t2, g, index, mask)
            if derivative:
                _subtract(ddenom, t2, dg, index, mask)
        g = (np.divide(1.0, denom, out=denom) if counts is None
             else _pivots(denom, step.mult, counts))
        if derivative:
            dg = -g * g * ddenom
    return g, dg


def _bottom_up(steps, base, counts=None, derivative=False):
    """Run the compiled ``steps`` over the energies ``base`` for every
    sample; returns the root level's (1, samples, energies) values, and
    their derivatives if ``derivative`` (else ``None``).

    The call's energies run in parts at once, each in blocks (see
    "Energy blocks" and "Parts at once" above).  ``counts``, (samples,
    energies) or ``None``, is cut to each part and block and given to
    :func:`_climb` with it, as is ``derivative``.
    """
    n, samples = base.size, steps[0].eps.shape[-1]
    widest = max(step.eps.shape[-2] for step in steps) * samples * n
    parts = min(-(-widest // _BLOCK), n, _PARTS)
    if parts > 1:
        parts = min(parts, _cpus())
    if parts <= 1:
        return _blocks(steps, base, counts, derivative, _BLOCK)
    block = max(1, _BLOCK // parts)
    cuts = [slice(k * n // parts, (k + 1) * n // parts) for k in range(parts)]
    values = _at_once([(steps, base[cut], None if counts is None else counts[:, cut],
                        derivative, block) for cut in cuts])
    g = np.concatenate([v[0] for v in values], axis=2)
    return g, np.concatenate([v[1] for v in values], axis=2) if derivative else None


def _blocks(steps, base, counts, derivative, block: int):
    """:func:`_bottom_up` on one thread: the wide bottom band, the levels
    whose (width x samples x energies) values exceed ``block``, runs in
    blocks of ``block // width`` values, and the narrow upper levels then
    once over all of them.

    A count (``counts`` given) runs with division by zero and overflow
    ignored, set here on whichever thread runs the part: a zero pivot's
    reciprocal is -inf and a tiny one's may overflow (:func:`_pivots`)."""
    n, samples = base.size, steps[0].eps.shape[-1]
    widths = [step.eps.shape[-2] for step in steps]
    split = len(steps)
    while split and widths[split - 1] * samples * n <= block:
        split -= 1
    g = dg = None
    with nullcontext() if counts is None else np.errstate(divide="ignore", over="ignore"):
        if split:
            chunk = max(1, block // max(widths[:split]))
            rows, energies = max(1, chunk // n), min(n, chunk)
            g = np.empty((widths[split - 1], samples, n), dtype=base.dtype)
            dg = np.empty_like(g) if derivative else None
            for lo in range(0, samples, rows):
                cut = slice(lo, lo + rows)
                band = [step.samples(cut) for step in steps[:split]]
                for at in range(0, n, energies):
                    span = slice(at, at + energies)
                    part = None if counts is None else counts[cut, span]
                    g[:, cut, span], d = _climb(band, base[span], None, None, part,
                                                derivative, block)
                    if dg is not None:
                        dg[:, cut, span] = d
        return _climb(steps[split:], base, g, dg, counts, derivative, block)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _at_once(jobs) -> list:
    """:func:`_blocks` of each of ``jobs`` (argument tuples) at once: the
    first on this thread, the rest on threads that end with the call, each
    in a copy of this thread's context, which carries numpy's error state.
    Returns their values in order once all have ended; the first to fail,
    by index, raises its own exception."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(jobs) - 1) as pool:  # waits for every part
        later = [pool.submit(contextvars.copy_context().run, _blocks, *job) for job in jobs[1:]]
        first = _blocks(*jobs[0])
    return [first] + [future.result() for future in later]


def _finite(E) -> None:
    """Raise :class:`~nandtree.model.StructureError` naming the first
    energy of ``E`` that is not finite."""
    bad = ~np.isfinite(E)
    if bad.any():
        raise StructureError(f"energies must be finite, got {float(np.ravel(E)[np.argmax(bad)])}")


def _resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Level-by-level evaluation of G (and optionally dG/dE) at the root,
    as arrays shaped (samples,) + the energies' shape; merged only over
    more than one energy."""
    _finite(E)
    steps = _schedule(tree, params, np.size(E) > 1)
    base = np.asarray(E + 1j * params.gamma, dtype=complex).reshape(-1)
    g, dg = _bottom_up(steps, base, None, derivative)
    shape = params.sample_shape + np.shape(E)
    return (g[0].reshape(shape), dg[0].reshape(shape)) if derivative else g[0].reshape(shape)


def _one_realization(params: DotParameters, name: str) -> None:
    if params.sample_shape:
        raise StructureError(
            f"{name} takes one realization, got {params.sample_shape[0]} samples; "
            f"use green_tree_many or DotParameters.sample")


#: The one-child slot of a row of a stack onto the row below.
_SAME = Slot(slice(0, None, 1), None)


def _rows(steps) -> list[_Step]:
    """``steps`` with each stacked step split into its rows, deepest first."""
    out = []
    for step in steps:
        if step.eps.ndim == 2:
            out.append(step)
            continue
        (slot,), (t2,) = step.slots, step.t2s
        out += [_Step(eps, (slot if r == 0 else _SAME,), (t2[r],), step.mult, step.unit)
                for r, eps in enumerate(step.eps)]
    return out


def _pivots(d, mult, counts: np.ndarray):
    """The reciprocals of a level's pivots ``d``, in place, having added
    the positive ones, each class as often as its multiplicity ``mult``
    (``None``: once), to ``counts``.

    A zero pivot counts nothing and passes -inf up, which makes its
    parent's pivot +inf: that child and the parent form a 2x2 block with
    one positive and one negative eigenvalue, so the parent counts once,
    and passes 1/inf = 0 up, its link to its own parent dropping out.
    """
    positive = d > 0
    if mult is None:
        counts += positive.sum(axis=0)
    else:  # an integer matmul, exact, over the classes
        counts += (mult @ positive.reshape(len(mult), -1)).reshape(counts.shape)
    # -1/(0 - d) is 1/d exactly, and -inf for d = +0 or -0.
    return np.divide(-1.0, np.subtract(0.0, d, out=d), out=d)


def inertia_count(tree, params: DotParameters, energies) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the tree Hamiltonian below each energy, without a matrix.

    With gamma = 0 the recursion's denominators, formed leaves first,
    are the pivots d_i = E - eps_i - sum_c t_c^2 / d_c of a fill-free
    LDL^T factorization of E - H, so by Sylvester's law of inertia the
    number of positive pivots is the number of eigenvalues below E.  A
    zero pivot is handled as in Jacobs and Trevisan, "Locating the
    eigenvalues of trees", Linear Algebra Appl. 434 (2011) 81-88: the
    parent pairs with one zero child, counts one positive pivot, and
    drops its own link.  An energy that is an eigenvalue therefore
    counts only the eigenvalues strictly below it.  Dots of one merged
    class have the same pivots, so each class counts its multiplicity
    times.

    Returns the counts (int64, shaped as :func:`green_tree_many`'s
    result, so one row per sample for parameters with a sample axis)
    and the root's
    reciprocal pivot 1/d_root, the real G_1 at gamma = 0: 0 when the
    root paired with a child, -inf when its own pivot is zero.  A dot
    attached above the root with detuning eps and coupling t adds the
    pivot E - eps - t^2 G_1, counted if positive (+inf when it pairs
    with the root).  Real arithmetic, one level pass per call, in the
    blocks of :func:`green_tree_many`; ``tree`` may be compiled
    (:func:`compile_tree`).
    """
    E = np.asarray(energies, dtype=float)
    _finite(E)
    steps = _rows(_schedule(tree, params, E.size > 1))
    counts = np.zeros((steps[0].eps.shape[1], E.size), dtype=np.int64)
    g, _ = _bottom_up(steps, E.reshape(-1), counts)
    shape = params.sample_shape + E.shape
    return counts.reshape(shape), g[0].reshape(shape)


def green_tree(tree, params: DotParameters, E: float) -> complex:
    """Green's function at the tree root, exact up to rounding; for one
    realization (a batch raises :class:`~nandtree.model.StructureError`)."""
    _one_realization(params, "green_tree")
    return complex(_resolve(tree, params, E))


def green_tree_many(tree, params: DotParameters, energies) -> np.ndarray:
    """Vectorized :func:`green_tree` over an array of energies, and over
    the samples of parameters with a sample axis: shape (samples,) + the
    energies' shape, each sample bit for bit what it gives alone.
    ``tree`` may be compiled (:func:`compile_tree`)."""
    return _resolve(tree, params, np.asarray(energies, dtype=float))


def green_tree_derivative(tree, params: DotParameters, E: float) -> complex:
    """Analytic dG/dE at the root (chain rule through the recursion), for
    one realization."""
    _one_realization(params, "green_tree_derivative")
    return complex(_resolve(tree, params, E, derivative=True)[1])


def classify(tree, params: DotParameters) -> LogicalForm:
    """Classify G near E = 0 as a "0"- or "1"-type logical form.

    bit = 1 when |G(0)| < 1 (in units of t).  For "1" forms
    G = -(alpha E + i gamma beta); for "0" forms 1/G = alpha E + i gamma beta.
    One realization: a batch raises :class:`~nandtree.model.StructureError`.
    """
    _one_realization(params, "classify")
    g0, dg0 = map(complex, _resolve(tree, params, 0.0, derivative=True))
    gamma = params.gamma
    mag = abs(g0)
    ambiguous = AMBIGUITY_BAND[0] <= mag <= AMBIGUITY_BAND[1]
    if mag < CLASSIFY_THRESHOLD:
        return LogicalForm(
            bit=1, alpha=-dg0.real, beta=-g0.imag / gamma, ambiguous=ambiguous
        )
    dinv = -dg0 / (g0 * g0)  # d(1/G)/dE
    return LogicalForm(
        bit=0, alpha=dinv.real, beta=(1.0 / g0).imag / gamma, ambiguous=ambiguous
    )


def _worst_bits(depth: int, value: int) -> tuple[int, ...]:
    # Most dangerous subtrees: a "1" is NAND("1", "0"), a "0" is
    # NAND("1", "1"), so slope growth compounds at every other level.
    # Built level by level, both values at once: O(2**depth) in all.
    one, zero = (1,), (0,)
    for _ in range(depth):
        one, zero = one + zero, one + one
    return one if value == 1 else zero


def worst_case_tree(depth: int) -> TreeSpec:
    """Worst-case tree built from nested 1011 input blocks; evaluates to 1."""
    if depth < 1:
        raise StructureError(f"depth must be >= 1, got {depth}")
    return build_tree(depth, _worst_bits(depth, 1))


def worst_case_profile(depth: int, delta: float, gamma: float):
    """Extracted (k, alpha_k, beta_k) for 1011-block subtrees of even height.

    Each subtree is evaluated in isolation, matching the recursive
    definition; alpha_{k+2}/alpha_k approaches 2 as k grows.  The cap,
    ``MAX_PROFILE_DEPTH`` = 20, is set by memory: the depth-20 tree has
    2 097 151 dots, and its parameters and gathered columns peak at
    about 195 MB resident, four times more every two levels; the whole
    profile to depth 20 takes about 0.5 s, most of it in the depth-20
    ``ideal_parameters`` and ``classify`` (measured on a 2-core x86-64
    Linux VM, Python 3.11, numpy 2.4).
    """
    if depth > MAX_PROFILE_DEPTH:
        raise StructureError(f"profile capped at depth {MAX_PROFILE_DEPTH}, got {depth}")
    profile = []
    for k in range(2, depth + 1, 2):
        sub = worst_case_tree(k)
        form = classify(sub, ideal_parameters(sub, delta, gamma))
        profile.append((k, form.alpha, form.beta))
    return profile
