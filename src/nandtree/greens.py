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
are gathered into per-level (dots x samples) columns once per call, by
binary search of the reachable dots and (parent, child) links in the
sorted key arrays of the parameter tables
(:class:`~nandtree.model.ParamTable`); entries for other dots and links
are never read.  A missing entry for a reachable dot or link raises
:class:`~nandtree.model.StructureError`.

**Energy blocks.**  Levels whose (width x samples x energies) block
exceeds ``_BLOCK`` complex values form the wide bottom band.  It runs
in blocks of ``_BLOCK // width`` values, width being its widest level:
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

**Inertia count.**  :func:`inertia_count` runs the same schedule and
energy blocks in real arithmetic at gamma = 0 and counts the positive
denominators, which number the eigenvalues below E; :mod:`nandtree.transport`
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

import numpy as np

from .model import DotParameters, LogicalForm, StructureError, TreeSpec, \
    build_tree, ideal_parameters

#: |G(0)| decision threshold between "1"-like (small) and "0"-like (pole).
CLASSIFY_THRESHOLD = 1.0
#: |G(0)| band flagged as ambiguous rather than silently decided.
AMBIGUITY_BAND = (0.5, 2.0)


#: Complex values per energy block of the wide bottom levels (1 MiB);
#: see "Energy blocks" above.
_BLOCK = 1 << 16


def _reciprocal(d):
    """1 / d, in place."""
    return np.divide(1.0, d, out=d)


def _columns(params: DotParameters, schedule):
    """Per level: eps of its dots, and t^2 of the links in each child slot,
    as (dots, samples) columns; one sample for parameters without a sample axis."""
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
    return [(e, list(islice(t2_parts, len(level.slots))))
            for e, level in zip(_cut(eps, nodes), schedule)]


def _cut(flat: np.ndarray, parts) -> list[np.ndarray]:
    """``flat`` cut into consecutive pieces as long as ``parts``."""
    ends = list(accumulate(map(len, parts)))
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _climb(schedule, columns, base, g, dg, reciprocal, derivative):
    """Evaluate ``schedule`` bottom-up over ``base``: E + i*gamma, or the real E.

    ``g``/``dg`` hold the values of the level below the first one given
    (``None`` when it starts at the leaves); returns the last level's.
    The derivative is carried along only if ``derivative`` is set.
    """
    for (_, slots), (eps, t2s) in zip(schedule, columns):
        denom = base - eps[..., None]
        if derivative:
            ddenom = np.ones(denom.shape, dtype=complex)
        for (index, mask), t2 in zip(slots, t2s):
            t2 = t2[..., None]
            if mask is None:
                denom -= t2 * g[index]
                if derivative:
                    ddenom -= t2 * dg[index]
            else:
                denom[mask] -= t2 * g[index]
                if derivative:
                    ddenom[mask] -= t2 * dg[index]
        g = reciprocal(denom)
        if derivative:
            dg = -g * g * ddenom
    return g, dg


def _bottom_up(schedule, columns, base, step, derivative=False):
    """Run ``schedule`` over the energies ``base`` for every sample of
    ``columns``; returns the root level's (1, samples, energies) values.

    The wide bottom band runs in blocks of samples and energies (see
    "Energy blocks" above).  ``step(part)`` gives the map from a level's
    denominators to its values for the (samples, energies) block
    ``part``; ``derivative`` is as in :func:`_climb`.
    """
    n, samples = base.size, columns[0][0].shape[1]
    widths = [len(level.nodes) for level in schedule]
    split = len(schedule)
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
            band = [(eps[:, cut], [t2[:, cut] for t2 in t2s]) for eps, t2s in columns[:split]]
            for at in range(0, n, energies):
                span = slice(at, at + energies)
                g[:, cut, span], d = _climb(schedule[:split], band, base[span], None, None,
                                            step((cut, span)), derivative)
                if dg is not None:
                    dg[:, cut, span] = d
    every = (slice(None), slice(None))
    return _climb(schedule[split:], columns[split:], base, g, dg, step(every), derivative)


def _resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Level-by-level evaluation of G (and optionally dG/dE) at the root,
    as arrays shaped (samples,) + the energies' shape."""
    schedule = tree.levels()
    columns = _columns(params, schedule)
    base = np.asarray(E + 1j * params.gamma, dtype=complex).reshape(-1)
    g, dg = _bottom_up(schedule, columns, base, lambda part: _reciprocal, derivative)
    shape = params.sample_shape + np.shape(E)
    return (g[0].reshape(shape), dg[0].reshape(shape)) if derivative else g[0].reshape(shape)


def _inertia_step(counts: np.ndarray):
    """Reciprocal of a level's pivots that adds its positive ones to ``counts``.

    A zero pivot counts nothing and passes -inf up, which makes its
    parent's pivot +inf: that child and the parent form a 2x2 block with
    one positive and one negative eigenvalue, so the parent counts once,
    and passes 1/inf = 0 up, its link to its own parent dropping out.
    """
    def step(d):
        counts[...] += (d > 0).sum(axis=0)
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
    counts only the eigenvalues strictly below it.

    Returns the counts (int64, shaped as :func:`green_tree_many`'s
    result, so one row per sample for parameters with a sample axis)
    and the root's
    reciprocal pivot 1/d_root, the real G_1 at gamma = 0: 0 when the
    root paired with a child, -inf when its own pivot is zero.  A dot
    attached above the root with detuning eps and coupling t adds the
    pivot E - eps - t^2 G_1, counted if positive (+inf when it pairs
    with the root).  Real arithmetic, one level pass per call, in the
    blocks of :func:`green_tree_many`.
    """
    E = np.asarray(energies, dtype=float)
    schedule = tree.levels()
    columns = _columns(params, schedule)
    counts = np.zeros((columns[0][0].shape[1], E.size), dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        g, _ = _bottom_up(schedule, columns, E.reshape(-1),
                          lambda part: _inertia_step(counts[part]))
    shape = params.sample_shape + E.shape
    return counts.reshape(shape), g[0].reshape(shape)


def green_tree(tree, params: DotParameters, E: float) -> complex:
    """Green's function at the tree root, exact up to rounding."""
    return complex(_resolve(tree, params, E))


def green_tree_many(tree, params: DotParameters, energies) -> np.ndarray:
    """Vectorized :func:`green_tree` over an array of energies, and over
    the samples of parameters with a sample axis: shape (samples,) + the
    energies' shape, each sample bit for bit what it gives alone."""
    return _resolve(tree, params, np.asarray(energies, dtype=float))


def green_tree_derivative(tree, params: DotParameters, E: float) -> complex:
    """Analytic dG/dE at the root (chain rule through the recursion)."""
    return complex(_resolve(tree, params, E, derivative=True)[1])


def classify(tree, params: DotParameters) -> LogicalForm:
    """Classify G near E = 0 as a "0"- or "1"-type logical form.

    bit = 1 when |G(0)| < 1 (in units of t).  For "1" forms
    G = -(alpha E + i gamma beta); for "0" forms 1/G = alpha E + i gamma beta.
    """
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
    definition; alpha_{k+2}/alpha_k approaches 2 as k grows.
    """
    if depth > 14:
        raise StructureError(f"profile capped at depth 14, got {depth}")
    profile = []
    for k in range(2, depth + 1, 2):
        sub = worst_case_tree(k)
        form = classify(sub, ideal_parameters(sub, delta, gamma))
        profile.append((k, form.alpha, form.beta))
    return profile
