"""Brute-force oracle: dense Hamiltonian assembly and direct resolvent solve.

This module exists to verify the recursive evaluator in
:mod:`nandtree.greens` by a completely independent route: build the full
tree Hamiltonian and read the (site, site) element of
[(E + i*gamma) I - H]^-1 from a dense complex linear solve.  It is
deliberately dense and slow (capped at depth 10, 2047 dots) -- oracle
clarity over speed.

The Hamiltonian is built from the tree's dots and their parents
(:meth:`~nandtree.model.RootedTree.links`), while the recursion runs on
its evaluation schedule (:meth:`~nandtree.model.RootedTree.levels`).
Each tree computes the two in separate closed forms, and the tests
check both against node-by-node walks (``test_tree_shapes``,
``test_layout_reference``); that is what keeps this oracle independent
of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GAMMA_FLOOR, DotParameters, StructureError

MAX_ORACLE_DEPTH = 10


class NumericalError(RuntimeError):
    """Dense solve failed; carries a reciprocal-condition estimate."""


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense real-symmetric tree Hamiltonian with its node ordering."""

    nodes: tuple[int, ...]
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.nodes)

    def index(self, node: int) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise StructureError(f"node {node} not present in Hamiltonian") from None


def assemble(tree, params: DotParameters) -> HamiltonianMatrix:
    """H with diagonal eps_i and off-diagonal -t on each (parent, child) link.

    The nodes are the tree's reachable dots in ascending id order, so
    nodes dropped by NOT markers are absent.  Raises
    :class:`~nandtree.model.StructureError` for a tree past
    ``MAX_ORACLE_DEPTH``'s size (before anything is built), for
    parameters with a sample axis, and for a missing dot or link, which
    it names.
    """
    ids, parents = tree.links()
    if len(ids) > 2 ** (MAX_ORACLE_DEPTH + 1) - 1:
        raise StructureError(f"dense oracle capped at depth {MAX_ORACLE_DEPTH}")
    if params.sample_shape:
        raise StructureError("dense oracle takes one realization; "
                             "take one out with DotParameters.sample")
    order = np.argsort(ids)
    ids, parents = ids[order], parents[order]
    below = np.flatnonzero(parents >= 0)
    try:
        eps = params.epsilon.lookup(ids)
        t = params.coupling.lookup(np.stack([parents[below], ids[below]], axis=1))
    except KeyError as exc:
        raise StructureError(f"parameters missing entry for {exc.args[0]!r}") from exc
    H = np.diag(eps)
    up = np.searchsorted(ids, parents[below])
    H[up, below] = H[below, up] = -t
    return HamiltonianMatrix(nodes=tuple(ids.tolist()), matrix=H)


def green_direct(H: HamiltonianMatrix, E: float, gamma: float, site: int) -> complex:
    """<site| [(E + i*gamma) I - H]^-1 |site> via a dense complex solve."""
    g = max(gamma, GAMMA_FLOOR)
    i = H.index(site)
    A = (E + 1j * g) * np.eye(H.dimension) - H.matrix
    rhs = np.zeros(H.dimension, dtype=complex)
    rhs[i] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        rcond = 1.0 / np.linalg.cond(A)
        raise NumericalError(f"resolvent solve failed (rcond ~ {rcond:.2e})") from exc
    return complex(x[i])
