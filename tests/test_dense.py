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
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, DotParameters, RootedTree, sample_disorder_many

import reference_walks as walks


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


class LinksOnly(RootedTree):
    """A tree given by its ``links()`` alone."""

    def __init__(self, tree):
        self.root, self._links = tree.root, tree.links()

    def links(self):
        return self._links


def test_assemble_checks_the_cap_before_reading_parameters():
    # The cap follows from the number of dots alone, with no walk over
    # them; parameters that lack every entry are never read.
    tree = LinksOnly(build_tree(16, [0] * 2**16))
    with pytest.raises(StructureError, match=f"capped at depth {MAX_ORACLE_DEPTH}"):
        assemble(tree, DotParameters({}, {}, 10.0, 1e-6))


def test_assemble_names_a_missing_dot_or_link():
    tree = TreeSpec(3, (1, 0, 1, 1, 0, 0, 1, 0), frozenset({3}))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    eps, coupling = walks.as_dict(ideal.epsilon), walks.as_dict(ideal.coupling)
    del eps[5]
    with pytest.raises(StructureError, match="missing entry for 5$"):
        assemble(tree, DotParameters(eps, coupling, 10.0, 1e-6))
    eps[5] = 0.0
    del coupling[(2, 5)]
    with pytest.raises(StructureError, match=r"missing entry for \(2, 5\)$"):
        assemble(tree, DotParameters(eps, coupling, 10.0, 1e-6))


def test_assemble_rejects_a_sample_axis():
    tree = build_tree(2, (1, 0, 1, 1))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, DisorderSpec(0.1, 0.1, 0), range(3))
    with pytest.raises(StructureError, match="DotParameters.sample"):
        assemble(tree, many)
    assert np.array_equal(assemble(tree, many.sample(1)).matrix,
                          assemble(tree, sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 1)))
                          .matrix)


def walked_assembly_trees():
    rng = np.random.default_rng(41)
    for depth in range(1, 7):
        bits = rng.integers(0, 2, 2**depth)
        yield build_tree(depth, bits)
        markers = rng.choice(np.arange(1, 2**depth), max(1, 2**depth // 4)).tolist()
        yield TreeSpec(depth, tuple(bits.tolist()), frozenset(markers))
    for k in (0, 1, 2, 41):
        yield chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2})), k)
    for depth in range(2, 5):
        tree = build_tree(depth, rng.integers(0, 2, 2**depth))
        yield expand_to_tree(build_hfractal(tree), tree)


@pytest.mark.parametrize("tree", walked_assembly_trees(), ids=lambda t: type(t).__name__)
def test_assemble_matches_the_walked_assembly(tree):
    # Bit for bit what the walk over children() from the root assembled,
    # and from the dots and parents alone.
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    for params in (ideal, sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 5))):
        want = walks.assemble(tree, params)
        for got in (assemble(tree, params), assemble(LinksOnly(tree), params)):
            assert got.nodes == want.nodes and all(type(n) is int for n in got.nodes)
            assert got.matrix.dtype == want.matrix.dtype
            assert np.array_equal(got.matrix.view(np.uint64), want.matrix.view(np.uint64))


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
