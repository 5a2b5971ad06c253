"""Brute-force oracle: dense Hamiltonian assembly and direct resolvent solve.

This module exists to verify the recursive evaluator in
:mod:`nandtree.greens` by a completely independent route: build the full
tree Hamiltonian and read the (site, site) element of
[(E + i*gamma) I - H]^-1 from a dense complex linear solve.  It is
deliberately dense and slow (capped at depth 10, 2047 dots) -- oracle
clarity over speed.
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

    The dots are collected by a walk over ``children()`` from the root,
    so the oracle shares no traversal code with the recursive engine;
    nodes dropped by NOT markers are absent.
    """
    nodes, stack = [], [tree.root]
    while stack:
        nodes.append(stack.pop())
        stack.extend(tree.children(nodes[-1]))
    nodes = tuple(sorted(nodes))
    if len(nodes) > 2 ** (MAX_ORACLE_DEPTH + 1) - 1:
        raise StructureError(f"dense oracle capped at depth {MAX_ORACLE_DEPTH}")
    idx = {n: i for i, n in enumerate(nodes)}
    H = np.zeros((len(nodes), len(nodes)))
    for n in nodes:
        H[idx[n], idx[n]] = params.epsilon[n]
        for c in tree.children(n):
            H[idx[n], idx[c]] = H[idx[c], idx[n]] = -params.coupling[(n, c)]
    return HamiltonianMatrix(nodes=nodes, matrix=H)


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
