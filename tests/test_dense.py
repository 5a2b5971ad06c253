import numpy as np
import pytest

from nandtree import (
    HamiltonianMatrix,
    StructureError,
    TreeSpec,
    assemble,
    build_tree,
    green_direct,
    green_tree,
    ideal_parameters,
    sample_disorder,
)
from nandtree.dense import MAX_ORACLE_DEPTH
from nandtree.model import DisorderSpec


def test_assemble_smallest_tree():
    tree = build_tree(1, (0, 0))
    H = assemble(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert H.nodes == (1, 2, 3)
    expected = np.array([[0.0, -1.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.array_equal(H.matrix, expected)


def test_assemble_leaf_detunings():
    tree = build_tree(1, (1, 1))
    H = assemble(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert np.array_equal(np.diag(H.matrix), [0.0, 10.0, -10.0])


def test_assemble_is_symmetric():
    rng = np.random.default_rng(2)
    tree = build_tree(4, rng.integers(0, 2, size=16))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    params = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, seed=9))
    H = assemble(tree, params).matrix
    assert np.array_equal(H, H.T)


def test_assemble_drops_not_marked_subtree():
    tree = TreeSpec(depth=2, input_bits=(1, 0, 1, 1), not_markers=frozenset({1}))
    H = assemble(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert 3 not in H.nodes and 6 not in H.nodes and 7 not in H.nodes
    assert H.dimension == 4


def test_assemble_depth_cap():
    depth = MAX_ORACLE_DEPTH + 1
    tree = build_tree(depth, [0] * 2**depth)
    with pytest.raises(StructureError):
        assemble(tree, ideal_parameters(tree, 10.0, 1e-6))


def test_green_direct_scalar_resolvent():
    H = HamiltonianMatrix(nodes=(1,), matrix=np.array([[3.0]]))
    g = green_direct(H, 0.5, 1e-3, 1)
    assert g == pytest.approx(1.0 / (0.5 + 1e-3j - 3.0))


def test_green_direct_unknown_site():
    H = HamiltonianMatrix(nodes=(1,), matrix=np.array([[0.0]]))
    with pytest.raises(StructureError):
        green_direct(H, 0.0, 1e-3, 7)


def test_oracle_matches_small_tree_value():
    tree = build_tree(1, (0, 0))
    params = ideal_parameters(tree, 10.0, 0.0)
    H = assemble(tree, params)
    direct = green_direct(H, 0.01, params.gamma, 1)
    assert direct == pytest.approx(-0.0050003, rel=1e-4)
    recursive = green_tree(tree, params, 0.01)
    assert abs(recursive - direct) <= 1e-10 * abs(direct)


def test_oracle_equivalence_disordered_63_dots():
    rng = np.random.default_rng(23)
    tree = build_tree(5, rng.integers(0, 2, size=32))
    ideal = ideal_parameters(tree, 10.0, 1e-4)
    params = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, seed=77))
    H = assemble(tree, params)
    for E in rng.uniform(-3, 3, size=20):
        direct = green_direct(H, float(E), params.gamma, tree.root)
        recursive = green_tree(tree, params, float(E))
        assert abs(recursive - direct) <= 1e-10 * abs(direct)


def test_oracle_equivalence_with_not_markers():
    tree = TreeSpec(
        depth=3, input_bits=(1, 0, 1, 1, 0, 0, 1, 0), not_markers=frozenset({3})
    )
    ideal = ideal_parameters(tree, 10.0, 1e-4)
    params = sample_disorder(tree, ideal, DisorderSpec(0.05, 0.05, seed=4))
    H = assemble(tree, params)
    for E in (-1.7, -0.2, 0.0, 0.4, 2.1):
        direct = green_direct(H, E, params.gamma, tree.root)
        recursive = green_tree(tree, params, E)
        assert abs(recursive - direct) <= 1e-10 * abs(direct)


def test_resolvent_symmetry():
    # Real symmetric H: conjugating G is the same as flipping the sign
    # of the imaginary part of the energy argument.
    rng = np.random.default_rng(6)
    tree = build_tree(3, rng.integers(0, 2, size=8))
    params = sample_disorder(
        tree, ideal_parameters(tree, 10.0, 1e-3), DisorderSpec(0.1, 0.1, seed=13)
    )
    H = assemble(tree, params)
    E, gamma = 0.3, 1e-3
    g_plus = green_direct(H, E, gamma, 1)
    A = (E - 1j * gamma) * np.eye(H.dimension) - H.matrix
    rhs = np.zeros(H.dimension, dtype=complex)
    rhs[H.index(1)] = 1.0
    g_minus = complex(np.linalg.solve(A, rhs)[H.index(1)])
    assert g_minus == pytest.approx(np.conj(g_plus))
