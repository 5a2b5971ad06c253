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
(dots x energies) block, and keeps only the level below alive.  Each
dot's eps and each link's t^2 are gathered into per-level columns once
per call, by binary search of the reachable dots and (parent, child)
links in the sorted key arrays of the parameter tables
(:class:`~nandtree.model.ParamTable`); entries for other dots and links
are never read.  A missing entry for a reachable dot or link raises
:class:`~nandtree.model.StructureError`.

**Energy blocks.**  Levels whose (width x energies) block exceeds
``_BLOCK`` complex values form the wide bottom band.  It runs in energy
chunks of ``_BLOCK // width`` values, width being its widest level, so a
level step touches a few MiB however many energies are asked for.  The
narrow upper levels then run once over all energies, so long inverter
chains, which are narrow, are not repeated per chunk.  ``_BLOCK`` is
sized for cache: one block is 1 MiB against a 2 MiB L2 per core on the
x86 server this was measured on.  There, four times larger blocks made
401 energies on a depth-16 tree about 1.5x slower, and 16 times smaller
ones made the depth-12 H-fractal about 5x slower through per-level
overhead.

**Rounding.**  Results are reproducible bit for bit and match the
dot-by-dot recursion exactly.  Every dot applies the same operations in
the same order, ``(E + i*gamma) - eps - t_1^2 G_1 - t_2^2 G_2`` and then
the reciprocal, with ``t^2`` taken as Python's ``t ** 2``.  Energies
given as numpy arrays or scalars use numpy's complex arithmetic; its
elementwise results do not depend on the block shape.  A Python-number
energy is rounded as CPython's complex arithmetic rounds it.
``_py_reciprocal`` and ``_py_product`` reproduce CPython's complex
quotient and product in split real arithmetic, because numpy's complex
division and its fused-multiply-add complex product round differently.
The derivative's products take numpy's array form for energy arrays
with one or more dimensions, and the CPython form, which numpy's scalar
arithmetic shares, for scalars and 0-d arrays: a 0-d energy becomes a
numpy scalar at the first operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat

import numpy as np

from .model import GAMMA_FLOOR, DotParameters, LogicalForm, StructureError, TreeSpec, \
    build_tree, ideal_parameters

#: |G(0)| decision threshold between "1"-like (small) and "0"-like (pole).
CLASSIFY_THRESHOLD = 1.0
#: |G(0)| band flagged as ambiguous rather than silently decided.
AMBIGUITY_BAND = (0.5, 2.0)


@dataclass(frozen=True)
class GreenValue:
    """A Green's function sample with its evaluation context."""

    value: complex
    energy: float
    gamma: float


def green_leaf(epsilon: float, E: float, gamma: float) -> GreenValue:
    """Single-dot Green's function 1/(E + i*gamma - epsilon)."""
    g = max(gamma, GAMMA_FLOOR)
    return GreenValue(value=1.0 / (E + 1j * g - epsilon), energy=E, gamma=g)


#: Complex values per energy block of the wide bottom levels (1 MiB);
#: see "Energy blocks" above.
_BLOCK = 1 << 16


def _py_product(a, b):
    """a * b rounded as CPython's ``_Py_c_prod`` (no fused multiply-add)."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty_like(a)
    np.subtract(ar * br, ai * bi, out=out.real)
    np.add(ar * bi, ai * br, out=out.imag)
    return out


def _py_reciprocal(b):
    """1 / b rounded as CPython's ``_Py_c_quot`` with numerator 1 + 0j.

    The ratio |num / den| <= 1 is finite unless it is NaN, and a NaN
    ratio makes the result NaN, so ``1 + 0*ratio`` is taken as 1 and
    ``0*ratio - 1`` as -1.
    """
    br, bi = b.real, b.imag
    flip = np.abs(br) < np.abs(bi)
    num, den = np.where(flip, br, bi), np.where(flip, bi, br)
    ratio = num / den
    scale = den + num * ratio
    out = np.empty_like(b)
    np.divide(np.where(flip, ratio + 0.0, 1.0), scale, out=out.real)
    np.divide(np.where(flip, -1.0, 0.0 - ratio), scale, out=out.imag)
    return out


def _numpy_reciprocal(b):
    """1 / b in numpy's rounding, in place."""
    return np.divide(1.0, b, out=b)


def _columns(params: DotParameters, schedule):
    """Per level: eps of its dots, and t^2 of the links in each child slot."""
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
    # Python's t ** 2 (libm pow), which can differ from t * t in the last bit.
    t2 = np.fromiter(map(pow, t.tolist(), repeat(2)), float, len(t))
    t2_parts = iter(_cut(t2, parent_parts))
    return [(e, list(islice(t2_parts, len(level.slots))))
            for e, level in zip(_cut(eps, nodes), schedule)]


def _cut(flat: np.ndarray, parts) -> list[np.ndarray]:
    """``flat`` cut into consecutive pieces as long as ``parts``."""
    ends = list(accumulate(map(len, parts)))
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _climb(schedule, columns, base, g, dg, reciprocal, product):
    """Evaluate ``schedule`` bottom-up over the energies ``base`` = E + i*gamma.

    ``g``/``dg`` hold the values of the level below the first one given
    (``None`` when it starts at the leaves); returns the last level's.
    ``product`` multiplies in the derivative, which is skipped when it
    is ``None``.
    """
    derivative = product is not None
    for (_, slots), (eps, t2s) in zip(schedule, columns):
        denom = base - eps[:, None]
        if derivative:
            ddenom = np.ones(denom.shape, dtype=complex)
        for (index, mask), t2 in zip(slots, t2s):
            t2 = t2[:, None]
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
            dg = product(product(-g, g), ddenom)
    return g, dg


def _resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Level-by-level evaluation of G (and optionally dG/dE) at the root."""
    schedule = tree.levels()
    columns = _columns(params, schedule)
    ig = 1j * params.gamma
    numpy_energy = isinstance(E, (np.ndarray, np.generic))
    reciprocal = _numpy_reciprocal if numpy_energy else _py_reciprocal
    product = (np.multiply if np.ndim(E) else _py_product) if derivative else None
    base = np.asarray(E + ig, dtype=complex).reshape(-1)
    n = base.size

    # The narrow top levels take every energy at once; the wide levels
    # below them run in energy chunks that keep each block near _BLOCK.
    widths = [len(level.nodes) for level in schedule]
    split = len(schedule)
    while split and widths[split - 1] * n <= _BLOCK:
        split -= 1
    g = dg = None
    if split:
        chunk = max(1, _BLOCK // max(widths[:split]))
        g = np.empty((widths[split - 1], n), dtype=complex)
        dg = np.empty_like(g) if derivative else None
        for lo in range(0, n, chunk):
            part = slice(lo, lo + chunk)
            g[:, part], d = _climb(schedule[:split], columns[:split], base[part], None, None,
                                   reciprocal, product)
            if derivative:
                dg[:, part] = d
    g, dg = _climb(schedule[split:], columns[split:], base, g, dg, reciprocal, product)

    if numpy_energy:
        g = g[0].reshape(np.shape(E))
        return (g, dg[0].reshape(np.shape(E))) if derivative else g
    return (complex(g[0, 0]), complex(dg[0, 0])) if derivative else complex(g[0, 0])


def green_tree(tree, params: DotParameters, E: float) -> GreenValue:
    """Green's function at the tree root, exact up to rounding."""
    return GreenValue(value=complex(_resolve(tree, params, E)), energy=E, gamma=params.gamma)


def green_tree_many(tree, params: DotParameters, energies) -> np.ndarray:
    """Vectorized :func:`green_tree` over an array of energies."""
    return np.asarray(_resolve(tree, params, np.asarray(energies, dtype=float)))


def green_tree_derivative(tree, params: DotParameters, E: float) -> complex:
    """Analytic dG/dE at the root (chain rule through the recursion)."""
    _, dg = _resolve(tree, params, E, derivative=True)
    return complex(dg)


def classify(tree, params: DotParameters) -> LogicalForm:
    """Classify G near E = 0 as a "0"- or "1"-type logical form.

    bit = 1 when |G(0)| < 1 (in units of t).  For "1" forms
    G = -(alpha E + i gamma beta); for "0" forms 1/G = alpha E + i gamma beta.
    """
    g0, dg0 = _resolve(tree, params, 0.0, derivative=True)
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
