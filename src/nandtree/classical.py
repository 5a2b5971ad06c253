"""Ground-truth boolean evaluation and the randomized query baseline."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import StructureError, TreeSpec

#: Critical i.i.d. probability of a leaf being 1, the golden-ratio fixed
#: point of p -> 1 - p^2 where short-circuiting is rarest (equivalently,
#: P(leaf = 0) = (3 - sqrt(5))/2).
CRITICAL_P1 = (np.sqrt(5.0) - 1.0) / 2.0


class CapacityError(ValueError):
    """Input size beyond a documented limit (no function raises it at present)."""


@dataclass(frozen=True)
class QueryStats:
    result: int
    queries: int
    seed: int


def _with_bits(tree: TreeSpec, bits) -> TreeSpec:
    """``tree``, or a copy carrying ``bits``, checked as the tree checks them."""
    if bits is None:
        return tree
    return replace(tree, input_bits=bits)


def _nand(tree: TreeSpec, leaves):
    """NAND of the tree over ``leaves[i]``, the value of leaf N + i: 0/1
    values, or arrays whose trailing axes are evaluated elementwise.
    Probabilities P(leaf = 1) of independent leaves give P(root = 1),
    since sibling subtrees stay independent: 1 - P_a P_b per NAND.
    Runs over ``tree.levels()``, one numpy step per level and child
    slot, in the dtype of ``leaves``; a NOT-marked node has only its
    first slot filled, so it inverts its single child (1 - P).
    """
    bottom, *upper = tree.levels()
    value = np.asarray(leaves)[bottom.nodes - tree.n_leaves]
    for level in upper:
        (first, _), *rest = level.slots
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
    return int(_nand(tree, _with_bits(tree, bits).leaf_bits))


def eval_randomized(tree: TreeSpec, bits=None, seed: int = 0) -> QueryStats:
    """Short-circuit evaluation with uniformly random child order.

    A child returning 0 settles the NAND as 1 without querying the
    sibling.  Deterministic given the seed, and the result always equals
    :func:`eval_nand`.  A negative seed raises
    :class:`~nandtree.model.StructureError`.
    """
    if seed < 0:
        raise StructureError(f"seed must be nonnegative, got {seed}")
    tree = _with_bits(tree, bits)
    leaves, n, markers = tree.input_bits, tree.n_leaves, tree.not_markers
    # Fewer than N NAND nodes are visited; the k-th one visited takes the
    # k-th draw, the stream that one integers(2) call per node gives.
    flips = iter(np.random.default_rng(seed).integers(2, size=n).astype(np.uint8).tobytes())
    queries = 0

    def visit(node: int) -> int:
        nonlocal queries
        if node >= n:
            queries += 1
            return leaves[node - n]
        if node in markers:
            return 1 - visit(2 * node)
        first = 2 * node + next(flips)
        if visit(first) == 0:
            return 1
        return 1 - visit(first ^ 1)

    return QueryStats(result=visit(tree.root), queries=queries, seed=seed)


def oracle_expectation(tree: TreeSpec, probs) -> float:
    """Expected tree output over independent Bernoulli input bits.

    The NAND of the probabilities themselves, in O(N): see :func:`_nand`.
    """
    probs = np.asarray(probs, dtype=float)
    n = tree.n_leaves
    if probs.shape != (n,):
        raise StructureError(f"need {n} probabilities, got shape {probs.shape}")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise StructureError("probabilities must lie in [0, 1]")
    return float(_nand(tree, probs))
