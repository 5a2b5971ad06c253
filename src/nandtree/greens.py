"""Exact recursive evaluation of the projected Green's function.

The root Green's function of a loop-free dot tree satisfies

    G_i(E)^-1 = E + i*gamma - eps_i - sum_c |t_c|^2 G_c(E)

with the single-dot form 1/(E + i*gamma - eps) truncating the recursion
at the leaves.  The recursion is exact (no perturbative approximation)
and is evaluated iteratively in post order so deep trees do not hit the
call stack.  The analytic energy derivative is propagated alongside via

    G_i' = -G_i^2 * (1 - sum_c |t_c|^2 G_c')

which is what the slope extraction in :func:`classify` uses.

Evaluators take any :class:`~nandtree.model.RootedTree`, the tree
protocol with the shared traversal: a :class:`~nandtree.model.TreeSpec`
or a chain-augmented tree from :mod:`nandtree.layout`.  The energy
argument may be a scalar or an ndarray (evaluated vectorized with a
fixed traversal order, so results are reproducible bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Post-order evaluation of G (and optionally dG/dE) at the root."""
    gamma = params.gamma
    ig = 1j * gamma
    g: dict = {}
    dg: dict = {}
    try:
        for node in tree.postorder():
            denom = E + ig - params.epsilon[node]
            ddenom = 1.0
            for c in tree.children(node):
                t2 = params.coupling[(node, c)] ** 2
                denom = denom - t2 * g.pop(c)
                if derivative:
                    ddenom = ddenom - t2 * dg.pop(c)
            gi = 1.0 / denom
            g[node] = gi
            if derivative:
                dg[node] = -gi * gi * ddenom
    except KeyError as exc:
        raise StructureError(f"parameters missing entry for {exc.args[0]!r}") from exc
    if derivative:
        return g[tree.root], dg[tree.root]
    return g[tree.root]


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
