"""Exact recursive evaluation of the projected Green's function.

The root Green's function of a loop-free dot tree satisfies

    G_i(E)^-1 = E + i*gamma - eps_i - sum_c |t_c|^2 G_c(E)

with the single-dot form 1/(E + i*gamma - eps) truncating the recursion
at the leaves.  The recursion is exact (no perturbative approximation).
The analytic energy derivative is propagated alongside via

    G_i' = -G_i^2 * (1 - sum_c |t_c|^2 G_c')

which is what the slope extraction in :func:`classify` uses.

Evaluators take any :class:`~nandtree.model.RootedTree`, the tree
protocol with the shared traversal: a :class:`~nandtree.model.TreeSpec`
or a chain-augmented tree from :mod:`nandtree.layout`.

**Level schedule.**  :meth:`~nandtree.model.RootedTree.levels` orders
the reachable dots by distance from the root.  The recursion runs from
the deepest level up, one numpy operation per level and child slot on a
(dots x samples x energies) block, and keeps only the level below
alive.  The sample axis holds the disorder realizations of parameters
with a sample axis (:func:`~nandtree.model.sample_disorder_many`), and
has length 1 otherwise; every sample sees the same energies, and the
result has shape (samples,) + the energies' shape, or the energies'
shape alone for one realization.  Each dot's eps and each link's t^2
are gathered into per-level (dots x samples) columns once per
compilation, by binary search of the reachable dots and (parent, child)
links in the sorted key arrays of the parameter tables
(:class:`~nandtree.model.ParamTable`); entries for other dots and links
are never read.  A missing entry for a reachable dot or link raises
:class:`~nandtree.model.StructureError`.

**Merged subtrees.**  :func:`compile_tree` turns the schedule and its
columns into a schedule of distinct subtrees: level by level from the
leaves up, it merges every dot whose subtree carries bit for bit the
same parameters as another's into one class, and every evaluator runs
on the merged schedule.  A dot's key is the bit pattern of its eps and,
for each child slot, of its t^2 and its child's class (t^2 bits 0 and
class -1 for a missing child), over all samples for parameters with a
sample axis.  Keys compare as int64 bit patterns, so -0.0 and 0.0 are
different classes and there is no tolerance.  A level's key rows are
hashed, the hashes sorted once, and every row is checked against its
class's representative; on any mismatch (a hash collision) the level is
grouped again by ``np.unique(axis=0)``.  Once the dots of a level are
all distinct, their parents are too, as disjoint children of distinct
classes make distinct keys: above such a level a dot with a child is
its own class, only childless dots are classed, among themselves, and a
level that stays all distinct is kept in its own order.  So of the 4989
levels of the depth-12 H-fractal only the leaves are classed, and the
40-odd levels above them whose classes point into a merged level are
rewritten.  A merged dot applies the same operations to the same values
as each dot of its class, so the results keep their bits.  Each class
carries its multiplicity, the number of dots it stands for, which
weights the inertia count.  A :class:`CompiledTree` belongs to the
parameters it was made from and can stand in for the tree, with those
parameters, in every evaluator; :mod:`nandtree.transport` compiles once
per public call.  Nothing is kept across calls.

**Energy blocks.**  Widths are merged widths, the number of classes of
a level.  Levels whose (width x samples x energies) block exceeds
``_BLOCK`` complex values form the wide bottom band.  It runs in blocks
of ``_BLOCK // width`` values, width being its widest level:
groups of whole samples with all their energies when one sample's
energies fit, else one sample at a time in energy chunks.  So a level
step touches a few MiB however many samples and energies are asked
for.  The narrow upper levels then run once over all of them, so long
inverter chains, which are narrow, are not repeated per block.  ``_BLOCK`` is
sized for cache: one block is 1 MiB against a 2 MiB L2 per core on the
x86 server this was measured on.  There, four times larger blocks made
401 energies on a depth-16 tree about 1.5x slower, and 16 times smaller
ones made the depth-12 H-fractal about 5x slower through per-level
overhead.

**Inertia count.**  :func:`inertia_count` runs the same merged schedule
and energy blocks in real arithmetic at gamma = 0 and counts the
positive denominators, each class as many times as its multiplicity;
they number the eigenvalues below E.  :mod:`nandtree.transport`
locates resonances with it.

**Rounding.**  Results are reproducible bit for bit and match the
dot-by-dot recursion exactly.  Every dot applies the same operations in
the same order, ``(E + i*gamma) - eps - t_1^2 G_1 - t_2^2 G_2`` and then
the reciprocal, with ``t^2`` taken as Python's ``t ** 2``, in numpy's
elementwise arithmetic for every kind of energy: a Python number, a
numpy scalar and an array of any shape round alike, and a sample's
values do not depend on the block shape or on the other samples
evaluated with it.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .model import DotParameters, LogicalForm, Slot, StructureError, TreeSpec, \
    build_tree, ideal_parameters

#: |G(0)| decision threshold between "1"-like (small) and "0"-like (pole).
CLASSIFY_THRESHOLD = 1.0
#: |G(0)| band flagged as ambiguous rather than silently decided.
AMBIGUITY_BAND = (0.5, 2.0)


#: Deepest :func:`worst_case_profile`; see its docstring for the reason.
MAX_PROFILE_DEPTH = 20

#: Complex values per energy block of the wide bottom levels (1 MiB);
#: see "Energy blocks" above.
_BLOCK = 1 << 16


class _Step(NamedTuple):
    """One level of the merged schedule: one row per class of its dots."""

    eps: np.ndarray  # (classes, samples)
    slots: tuple[Slot, ...]  # into the classes of the level below
    t2s: tuple[np.ndarray, ...]  # per slot: (classes with that child, samples)
    mult: np.ndarray | None  # dots per class (int64); None: one each

    def samples(self, cut) -> _Step:
        """The samples ``cut`` (a slice) of this level."""
        return self._replace(eps=self.eps[:, cut], t2s=tuple(t2[:, cut] for t2 in self.t2s))


class CompiledTree(NamedTuple):
    """A tree and its parameters as a merged schedule of distinct subtrees.

    Made by :func:`compile_tree`; see "Merged subtrees" above.  Every
    evaluator takes it in place of the tree, with ``params``.
    """

    params: DotParameters
    steps: tuple[_Step, ...]

    def sample(self, i: int) -> CompiledTree:
        """Realization ``i`` of a batch, compiled; its ``params`` are
        ``params.sample(i)``."""
        cut = slice(i, i + 1)
        return CompiledTree(self.params.sample(i), tuple(s.samples(cut) for s in self.steps))


def _reciprocal(d, mult=None):
    """1 / d, in place; the multiplicities are not needed."""
    return np.divide(1.0, d, out=d)


def _columns(params: DotParameters, schedule) -> list[_Step]:
    """Each level as a :class:`_Step` of one dot per class: eps of its dots,
    and t^2 of the links in each child slot, as (dots, samples) columns;
    one sample for parameters without a sample axis."""
    nodes = [level.nodes for level in schedule]
    parent_parts, child_parts = [], []
    for below, (level, slots) in zip([None] + nodes, schedule):
        for index, mask in slots:
            parent_parts.append(level if mask is None else level[mask])
            child_parts.append(below[index])
    every = np.concatenate(nodes)
    links = np.stack([np.concatenate([every[:0], *parts])
                      for parts in (parent_parts, child_parts)], axis=1)
    try:
        eps = params.epsilon.lookup(every)
        t = params.coupling.lookup(links)
    except KeyError as exc:
        raise StructureError(f"parameters missing entry for {exc.args[0]!r}") from exc
    eps, t = eps.reshape(-1, len(every)).T, t.reshape(-1, len(links)).T
    # Python's t ** 2: np.float_power calls the same libm pow, which can
    # differ from t * t, and from np.power's square, in the last bit.
    t2_parts = iter(_cut(np.float_power(t, 2), parent_parts))
    return [_Step(e, level.slots, tuple(islice(t2_parts, len(level.slots))), None)
            for e, level in zip(_cut(eps, nodes), schedule)]


def _cut(flat: np.ndarray, parts) -> list[np.ndarray]:
    """``flat`` cut into consecutive pieces as long as ``parts``."""
    ends = list(accumulate(map(len, parts)))
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _row_hash(keys: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of the int64 ``keys``: a one-column row is
    its own hash; wider rows sum splitmix64's finalizer of each entry,
    salted by its column."""
    if keys.shape[1] == 1:
        return keys[:, 0]
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

    One sort of the row hashes; every row is then checked against its
    class's representative, and a hash collision regroups the rows
    exactly.  Any row of a class can stand for it, so the sort need not
    be stable.
    """
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
    if not np.array_equal(keys[rep[classes]], keys):  # a hash collision
        _, rep, classes = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return rep, classes.reshape(-1)


def _key(eps, slots, t2s, below) -> np.ndarray:
    """Each dot's key row (see "Merged subtrees" above), as int64; ``below``
    holds the class of each dot of the level below."""
    cols = [eps.view(np.int64)]
    width, samples = eps.shape
    for (index, mask), t2 in zip(slots, t2s):
        bits, child = np.zeros((width, samples), np.int64), np.full((width, 1), -1)
        present = slice(None) if mask is None else mask
        bits[present], child[present, 0] = t2.view(np.int64), below[index]
        cols += [bits, child]
    return np.concatenate(cols, axis=1)


def _group(level: _Step, below):
    """The classes of the dots of ``level`` (see "Merged subtrees" above),
    as from :func:`_classes`; ``below`` holds the classes of the level
    below, ``None`` when each of its dots is its own.  Returns ``None``
    when every dot is its own class and ``below`` is ``None``."""
    eps, slots, t2s, _ = level
    width = len(eps)
    if below is not None:
        rep, classes = _classes(_key(eps, slots, t2s, below))
    elif not slots:
        rep, classes = _classes(eps.view(np.int64))
    elif slots[0].mask is None:
        return None  # every dot has a child, and the children are distinct
    else:
        # Only the childless dots can be alike, among themselves.
        kids, lone = np.flatnonzero(slots[0].mask), np.flatnonzero(~slots[0].mask)
        rep, lone_classes = _classes(eps[lone].view(np.int64))
        rep = np.concatenate([kids, lone[rep]])
        classes = np.empty(width, np.intp)
        classes[kids], classes[lone] = np.arange(len(kids)), len(kids) + lone_classes
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
            if has.all():
                has = None
        slots.append(Slot(child_classes[index][at], has))
        t2s.append(t2[at])
    mult = np.bincount(classes, minlength=len(rep))
    return _Step(level.eps[rep], tuple(slots), tuple(t2s), mult)


def compile_tree(tree, params: DotParameters) -> CompiledTree:
    """``tree`` with ``params`` as a merged schedule of its distinct subtrees.

    See "Merged subtrees" above.  A :class:`CompiledTree` made from
    ``params`` comes back as it is; one made from other parameters
    raises :class:`~nandtree.model.StructureError`.
    """
    if isinstance(tree, CompiledTree):
        if tree.params is not params:
            raise StructureError("a compiled tree takes the parameters it was compiled from")
        return tree
    steps = []
    below, width_below = None, 0
    for level in _columns(params, tree.levels()):
        grouped = _group(level, below)
        if grouped is None:
            steps.append(level)
        else:
            rep, classes = grouped
            steps.append(_merge(level, rep, classes, below, width_below))
            below = None if len(rep) == len(classes) else classes
        width_below = len(level.eps)
    return CompiledTree(params, tuple(steps))


def _subtract(target, t2, values, index, mask) -> None:
    """``target -= t2 * values[index]``, on the rows ``mask`` (``None``: all).

    An index array already gathers a copy, which takes the product in place.
    """
    part = values[index]
    part = t2 * part if isinstance(index, slice) else np.multiply(t2, part, out=part)
    if mask is None:
        target -= part
    else:
        target[mask] -= part


def _climb(steps, base, g, dg, reciprocal, derivative):
    """Evaluate ``steps`` bottom-up over ``base``: E + i*gamma, or the real E.

    ``g``/``dg`` hold the values of the level below the first one given
    (``None`` when it starts at the leaves); returns the last level's.
    ``reciprocal(denom, mult)`` maps a level's denominators to its
    values.  The derivative is carried along only if ``derivative`` is set.
    """
    for step in steps:
        denom = base - step.eps[..., None]
        if derivative:
            ddenom = np.ones(denom.shape, dtype=complex)
        for (index, mask), t2 in zip(step.slots, step.t2s):
            t2 = t2[..., None]
            _subtract(denom, t2, g, index, mask)
            if derivative:
                _subtract(ddenom, t2, dg, index, mask)
        g = reciprocal(denom, step.mult)
        if derivative:
            dg = -g * g * ddenom
    return g, dg


def _bottom_up(steps, base, reciprocal, derivative=False):
    """Run the merged ``steps`` over the energies ``base`` for every
    sample; returns the root level's (1, samples, energies) values.

    The wide bottom band runs in blocks of samples and energies (see
    "Energy blocks" above).  ``reciprocal(part)`` gives the map from a
    level's denominators to its values for the (samples, energies) block
    ``part``; ``derivative`` is as in :func:`_climb`.
    """
    n, samples = base.size, steps[0].eps.shape[1]
    widths = [len(step.eps) for step in steps]
    split = len(steps)
    while split and widths[split - 1] * samples * n <= _BLOCK:
        split -= 1
    g = dg = None
    if split:
        chunk = max(1, _BLOCK // max(widths[:split]))
        rows, energies = max(1, chunk // n), min(n, chunk)
        g = np.empty((widths[split - 1], samples, n), dtype=base.dtype)
        dg = np.empty_like(g) if derivative else None
        for lo in range(0, samples, rows):
            cut = slice(lo, lo + rows)
            band = [step.samples(cut) for step in steps[:split]]
            for at in range(0, n, energies):
                span = slice(at, at + energies)
                g[:, cut, span], d = _climb(band, base[span], None, None,
                                            reciprocal((cut, span)), derivative)
                if dg is not None:
                    dg[:, cut, span] = d
    every = (slice(None), slice(None))
    return _climb(steps[split:], base, g, dg, reciprocal(every), derivative)


def _resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Level-by-level evaluation of G (and optionally dG/dE) at the root,
    as arrays shaped (samples,) + the energies' shape."""
    compiled = compile_tree(tree, params)
    base = np.asarray(E + 1j * params.gamma, dtype=complex).reshape(-1)
    g, dg = _bottom_up(compiled.steps, base, lambda part: _reciprocal, derivative)
    shape = params.sample_shape + np.shape(E)
    return (g[0].reshape(shape), dg[0].reshape(shape)) if derivative else g[0].reshape(shape)


def _one_realization(params: DotParameters, name: str) -> None:
    if params.sample_shape:
        raise StructureError(
            f"{name} takes one realization, got {params.sample_shape[0]} samples; "
            f"use green_tree_many or DotParameters.sample")


def _inertia_step(counts: np.ndarray):
    """Reciprocal of a level's pivots that adds its positive ones, each
    class as often as its multiplicity, to ``counts``.

    A zero pivot counts nothing and passes -inf up, which makes its
    parent's pivot +inf: that child and the parent form a 2x2 block with
    one positive and one negative eigenvalue, so the parent counts once,
    and passes 1/inf = 0 up, its link to its own parent dropping out.
    """
    def step(d, mult):
        positive = d > 0
        counts[...] += positive.sum(axis=0) if mult is None else np.tensordot(mult, positive, 1)
        # -1/(0 - d) is 1/d exactly, and -inf for d = +0 or -0.
        return np.divide(-1.0, np.subtract(0.0, d, out=d), out=d)
    return step


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
    compiled = compile_tree(tree, params)
    counts = np.zeros((compiled.steps[0].eps.shape[1], E.size), dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        g, _ = _bottom_up(compiled.steps, E.reshape(-1),
                          lambda part: _inertia_step(counts[part]))
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
    if depth == 0:
        return (value,)
    if value == 1:
        return _worst_bits(depth - 1, 1) + _worst_bits(depth - 1, 0)
    return _worst_bits(depth - 1, 1) + _worst_bits(depth - 1, 1)


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
    about 350 MB resident (measured on x86-64 Linux, Python 3.11, numpy
    2.4), four times more every two levels; the whole profile to depth
    20 takes a few seconds.
    """
    if depth > MAX_PROFILE_DEPTH:
        raise StructureError(f"profile capped at depth {MAX_PROFILE_DEPTH}, got {depth}")
    profile = []
    for k in range(2, depth + 1, 2):
        sub = worst_case_tree(k)
        form = classify(sub, ideal_parameters(sub, delta, gamma))
        profile.append((k, form.alpha, form.beta))
    return profile
