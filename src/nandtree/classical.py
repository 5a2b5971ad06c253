"""Ground-truth boolean evaluation and the randomized query baseline."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import StructureError, TreeSpec, _as_bits

#: Critical i.i.d. probability of a leaf being 1, the golden-ratio fixed
#: point of p -> 1 - p^2 where short-circuiting is rarest (equivalently,
#: P(leaf = 0) = (3 - sqrt(5))/2).
CRITICAL_P1 = (np.sqrt(5.0) - 1.0) / 2.0

#: Brute-force cap for oracle_expectation (2**N assignments).
MAX_EXPECTATION_BITS = 20


class CapacityError(ValueError):
    """Input size beyond the documented brute-force limit."""


@dataclass(frozen=True)
class QueryStats:
    result: int
    queries: int
    seed: int


def _with_bits(tree: TreeSpec, bits) -> TreeSpec:
    if bits is None:
        return tree
    return replace(tree, input_bits=_as_bits(bits))


def _nand(tree: TreeSpec, leaves):
    """NAND of the tree over ``leaves[i]``, the value of leaf N + i: 0/1
    ints, or 0/1 integer arrays whose trailing axes are evaluated
    elementwise.  Runs over ``tree.levels()``, one numpy step per level
    and child slot, in uint8 to keep the arrays small; a NOT-marked node
    has only its first slot filled, so it inverts its single child.
    """
    bottom, *upper = tree.levels()
    value = np.asarray(leaves, dtype=np.uint8)[bottom.nodes - tree.n_leaves]
    for _, ((first, _), *rest) in upper:
        prod = value[first]
        for index, mask in rest:
            if mask is None:
                prod = prod * value[index]
            else:
                prod = prod.copy()
                prod[mask] *= value[index]
        value = 1 - prod
    return value[0]


def eval_nand(tree: TreeSpec, bits=None) -> int:
    """Recursive NAND of the tree; NOT markers invert their single child."""
    return int(_nand(tree, _with_bits(tree, bits).input_bits))


def eval_randomized(tree: TreeSpec, bits=None, seed: int = 0) -> QueryStats:
    """Short-circuit evaluation with uniformly random child order.

    A child returning 0 settles the NAND as 1 without querying the
    sibling.  Deterministic given the seed, and the result always equals
    :func:`eval_nand`.
    """
    tree = _with_bits(tree, bits)
    rng = np.random.default_rng(seed)
    queries = 0

    def visit(node: int) -> int:
        nonlocal queries
        kids = tree.children(node)
        if not kids:
            queries += 1
            return tree.leaf_bit(node)
        if len(kids) == 1:
            return 1 - visit(kids[0])
        first, second = kids if rng.integers(2) == 0 else (kids[1], kids[0])
        if visit(first) == 0:
            return 1
        return 1 - visit(second)

    return QueryStats(result=visit(tree.root), queries=queries, seed=seed)


def oracle_expectation(tree: TreeSpec, probs) -> float:
    """Expected tree output over independent Bernoulli input bits.

    Brute-force sum over all 2**N assignments of Pr(assignment) * f,
    with f the deterministic NAND evaluation.  Capped at N = 20.
    """
    probs = np.asarray(probs, dtype=float)
    n = tree.n_leaves
    if probs.shape != (n,):
        raise StructureError(f"need {n} probabilities, got shape {probs.shape}")
    if np.any((probs < 0) | (probs > 1)):
        raise StructureError("probabilities must lie in [0, 1]")
    if n > MAX_EXPECTATION_BITS:
        raise CapacityError(f"brute-force expectation capped at N = {MAX_EXPECTATION_BITS}")

    # All assignments at once: column i of `bits` is leaf bit b_i.
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    weight = np.prod(np.where(bits == 1, probs, 1.0 - probs), axis=1)
    return float(np.sum(weight * _nand(tree, bits.T)))
