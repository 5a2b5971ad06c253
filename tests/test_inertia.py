"""The inertia count in ``greens`` against dense eigenvalues.

``inertia_count`` plus the probe dot's pivot must give the number of
eigenvalues of the dense Hermitian probe+tree Hamiltonian below E, also
at energies that are exact eigenvalues, where pivots are exactly zero.
"""

import numpy as np
import pytest

from nandtree import assemble, build_tree, ideal_parameters, sample_disorder
from nandtree.greens import compile_tree, inertia_count, worst_case_tree
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, TreeSpec
from test_greens_engine import RaggedTree, ragged_parameters

#: Probe detuning and coupling (t1^2 = 0.0225) attached above the root.
EPS0, T1 = 0.0, 0.15


def probe_plus_tree(tree, params) -> np.ndarray:
    """Eigenvalues of the dense probe+tree Hamiltonian (probe first)."""
    H = assemble(tree, params)
    A = np.zeros((H.dimension + 1, H.dimension + 1))
    A[1:, 1:] = H.matrix
    A[0, 0] = EPS0
    root = 1 + H.index(tree.root)
    A[0, root] = A[root, 0] = -T1
    return np.linalg.eigvalsh(A)


def counted(tree, params, energies):
    counts, g1 = inertia_count(tree, params, energies)
    return counts + (energies - EPS0 - T1**2 * g1 > 0)


def assert_counts(tree, params, spectrum, generic, exact=()):
    """Counts at ``generic`` energies (away from every eigenvalue) and at
    ``exact`` ones, which may be eigenvalues: then only those strictly
    below count.  The tree alone is checked at the generic energies too."""
    tol = 1e-9
    generic = np.asarray(generic, dtype=float)
    gap = np.abs(spectrum[None, :] - generic[:, None]).min(axis=1)
    generic = generic[gap > tol]
    want = (spectrum[None, :] < generic[:, None]).sum(axis=1)
    assert np.array_equal(counted(tree, params, generic), want)
    exact = np.asarray(exact, dtype=float)
    if exact.size:
        below = (spectrum[None, :] < exact[:, None] - tol).sum(axis=1)
        assert np.array_equal(counted(tree, params, exact), below)
    tree_only = np.linalg.eigvalsh(assemble(tree, params).matrix)
    far = generic[np.abs(tree_only[None, :] - generic[:, None]).min(axis=1) > tol]
    assert np.array_equal(inertia_count(tree, params, far)[0],
                          (tree_only[None, :] < far[:, None]).sum(axis=1))


def energies_for(spectrum, rng):
    # Random energies, the midpoints between neighbouring eigenvalues and
    # points just outside the spectrum.
    mids = 0.5 * (spectrum[1:] + spectrum[:-1])
    return np.concatenate([rng.uniform(-12.0, 12.0, 60), mids,
                           [spectrum[0] - 1.0, spectrum[-1] + 1.0]])


def random_markers(rng, depth):
    n = 2**depth
    return frozenset(int(m) for m in rng.choice(np.arange(1, n), size=max(1, n // 4)))


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("depth", range(1, 9))
def test_count_matches_dense_on_trees(depth, marked):
    rng = np.random.default_rng(10 * depth + marked)
    markers = random_markers(rng, depth) if marked else frozenset()
    tree = TreeSpec(depth, tuple(rng.integers(0, 2, 2**depth)), markers)
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    noisy = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, seed=depth))
    for params in (ideal, noisy):
        spectrum = probe_plus_tree(tree, params)
        # On most ideal trees E = 0 is an eigenvalue: pivots are exactly zero.
        exact = (0.0,) if params is ideal else ()
        assert_counts(tree, params, spectrum, energies_for(spectrum, rng), exact)


@pytest.mark.parametrize("bits", [0, 1])
@pytest.mark.parametrize("depth", [2, 5, 8])
def test_count_at_a_degenerate_zero(depth, bits):
    # Uniform ideal trees have E = 0 as an eigenvalue of high
    # multiplicity: the count there is the eigenvalues strictly below.
    tree = build_tree(depth, [bits] * 2**depth)
    params = ideal_parameters(tree, 10.0, 1e-6)
    spectrum = probe_plus_tree(tree, params)
    zero = np.abs(spectrum) <= 1e-9
    assert zero.sum() >= 2 or bits
    assert counted(tree, params, np.zeros(1))[0] == (spectrum < -1e-9).sum()
    assert counted(tree, params, np.array([1e-6]))[0] == (spectrum < 1e-6).sum()


@pytest.mark.parametrize("k", [0, 1, 5])
def test_count_matches_dense_below_chain(k):
    rng = np.random.default_rng(k)
    chained = chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2})), k)
    ideal = ideal_parameters(chained, 10.0, 1e-6)
    for params in (ideal, sample_disorder(chained, ideal, DisorderSpec(0.1, 0.1, seed=k))):
        spectrum = probe_plus_tree(chained, params)
        exact = (0.0,) if params is ideal else ()
        assert_counts(chained, params, spectrum, energies_for(spectrum, rng), exact)


@pytest.mark.parametrize("depth", range(2, 7))
def test_count_matches_dense_on_hfractal(depth):
    rng = np.random.default_rng(depth)
    tree = build_tree(depth, rng.integers(0, 2, 2**depth))
    chained = expand_to_tree(build_hfractal(tree), tree)
    ideal = ideal_parameters(chained, 10.0, 1e-6)
    for params in (ideal, sample_disorder(chained, ideal, DisorderSpec(0.1, 0.1, seed=depth))):
        spectrum = probe_plus_tree(chained, params)
        exact = (0.0,) if params is ideal else ()
        assert_counts(chained, params, spectrum, energies_for(spectrum, rng), exact)


def test_count_shapes_and_root_pivot():
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    params = ideal_parameters(tree, 10.0, 1e-6)
    E = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    counts, g1 = inertia_count(tree, params, E)
    assert counts.shape == g1.shape == (3, 4) and counts.dtype == np.int64
    assert g1.dtype == float
    # Away from eigenvalues the root pivot's reciprocal is the gamma = 0 G_1.
    H = assemble(tree, params)
    r = H.index(tree.root)
    resolvent = np.linalg.inv(0.37 * np.eye(H.dimension) - H.matrix)
    assert inertia_count(tree, params, 0.37)[1] == pytest.approx(resolvent[r, r], rel=1e-12)
    assert inertia_count(tree, params, np.zeros(0))[0].shape == (0,)


def test_count_across_energy_blocks():
    # Enough energies that the wide levels run in several chunks.
    rng = np.random.default_rng(3)
    tree = build_tree(9, rng.integers(0, 2, 512))
    params = sample_disorder(tree, ideal_parameters(tree, 10.0, 1e-6),
                             DisorderSpec(0.1, 0.1, seed=3))
    E = rng.uniform(-3.0, 3.0, 600)
    whole = inertia_count(tree, params, E)
    parts = [inertia_count(tree, params, E[i:i + 7]) for i in range(0, 600, 7)]
    assert np.array_equal(whole[0], np.concatenate([c for c, _ in parts]))
    assert np.array_equal(whole[1], np.concatenate([g for _, g in parts]))


def merged_trees():
    """Ideal trees whose subtrees repeat, so the merged schedule has
    fewer dots than the tree: uniform, worst-case and an H-fractal."""
    yield "all-0", build_tree(6, [0] * 64)
    yield "all-1", build_tree(6, [1] * 64)
    yield "worst-case", worst_case_tree(6)
    tree = worst_case_tree(4)
    yield "hfractal", expand_to_tree(build_hfractal(tree), tree)


@pytest.mark.parametrize("name, tree", merged_trees(), ids=[n for n, _ in merged_trees()])
def test_count_weights_merged_classes(name, tree):
    # Each class counts once per dot it stands for, also at E = 0, where
    # ideal trees have exact eigenvalues and zero pivots.
    params = ideal_parameters(tree, 10.0, 1e-6)
    steps = compile_tree(tree, params).steps
    widths = [s.eps.shape[-2] for s in steps]
    assert sum(widths) < sum(w if s.mult is None else int(s.mult.sum()) for w, s in zip(widths, steps))
    spectrum = probe_plus_tree(tree, params)
    rng = np.random.default_rng(len(spectrum))
    assert_counts(tree, params, spectrum, energies_for(spectrum, rng), exact=(0.0,))
    tree_only = np.linalg.eigvalsh(assemble(tree, params).matrix)
    assert inertia_count(tree, params, 0.0)[0] == (tree_only < -1e-9).sum()


@pytest.mark.parametrize("seed", range(4))
def test_count_matches_dense_on_ragged_trees(seed):
    # Leaves at many depths, detunings and couplings from a few values:
    # childless dots above a level of distinct dots still merge.
    rng = np.random.default_rng(seed)
    tree = RaggedTree(rng, 7)
    for distinct_bottom in (False, True):
        params = ragged_parameters(tree, rng, distinct_bottom)
        spectrum = probe_plus_tree(tree, params)
        assert_counts(tree, params, spectrum, energies_for(spectrum, rng))
