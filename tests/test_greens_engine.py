"""The level-by-level engine in ``greens`` against the recursion it replaced.

``reference_resolve`` is the dot-by-dot post-order recursion that
evaluated every Green's function before the level schedule existed,
kept verbatim as the reference.  The engine must reproduce it bit for
bit: same values, same signed zeros, same output shapes.
"""

import numpy as np
import pytest

from nandtree import DotParameters, StructureError, build_tree, ideal_parameters, sample_disorder
from nandtree.greens import _BLOCK, _py_product, _py_reciprocal, _resolve
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, RootedTree, TreeSpec


def reference_resolve(tree, params: DotParameters, E, derivative: bool = False):
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


def assert_same(got, want):
    """Equal bit for bit, with the same type for Python scalars and the same shape."""
    if type(want) is complex:
        assert type(got) is complex
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert np.array_equal(got.reshape(-1).view(np.uint64), want.reshape(-1).view(np.uint64))


ENERGIES = {
    "float": 0.37,
    "zero": 0.0,
    "0-d": np.asarray(-0.21),
    "numpy scalar": np.float64(0.52),
    "1-D": np.linspace(-1.5, 1.5, 7),
    "2-D": np.linspace(-1.0, 1.0, 12).reshape(3, 4),
    "empty": np.zeros(0),
}


def assert_engine_matches(tree, params):
    for E in ENERGIES.values():
        assert_same(_resolve(tree, params, E), reference_resolve(tree, params, E))
    for E in (-1.2, *ENERGIES.values()):
        got, want = _resolve(tree, params, E, True), reference_resolve(tree, params, E, True)
        assert_same(got[0], want[0])
        assert_same(got[1], want[1])


def random_markers(rng, depth):
    n = 2**depth
    return frozenset(int(m) for m in rng.choice(np.arange(1, n), size=max(1, n // 4)))


def parameter_sets(tree, seed):
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    return ideal, sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, seed))


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("depth", range(1, 9))
def test_engine_matches_reference_on_trees(depth, marked):
    rng = np.random.default_rng(100 * depth + marked)
    markers = random_markers(rng, depth) if marked else frozenset()
    tree = TreeSpec(depth, tuple(rng.integers(0, 2, 2**depth)), markers)
    for params in parameter_sets(tree, depth):
        assert_engine_matches(tree, params)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_engine_matches_reference_below_chain(k):
    rng = np.random.default_rng(k)
    chained = chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2})), k)
    for params in parameter_sets(chained, k):
        assert_engine_matches(chained, params)


@pytest.mark.parametrize("depth", range(2, 7))
def test_engine_matches_reference_on_hfractal(depth):
    rng = np.random.default_rng(depth)
    tree = build_tree(depth, rng.integers(0, 2, 2**depth))
    chained = expand_to_tree(build_hfractal(tree), tree)
    for params in parameter_sets(chained, depth):
        assert_engine_matches(chained, params)


def test_engine_matches_reference_across_energy_blocks():
    # 401 energies on these trees cross the wide/narrow band boundary, and
    # the wide band runs in several energy chunks.
    rng = np.random.default_rng(12)
    tree = build_tree(12, rng.integers(0, 2, 4096))
    chained = expand_to_tree(build_hfractal(tree), tree)
    energies = np.linspace(-1.0, 1.0, 401)
    for t in (tree, chained):
        widths = [len(level.nodes) for level in t.levels()]
        assert max(widths) * 401 > 2 * _BLOCK and widths[-1] * 401 <= _BLOCK
    for params in parameter_sets(tree, 12):
        assert_same(_resolve(tree, params, energies), reference_resolve(tree, params, energies))
    params = ideal_parameters(chained, 10.0, 1e-6)
    assert_same(_resolve(chained, params, energies), reference_resolve(chained, params, energies))


def test_levels_closed_form_matches_breadth_first():
    for depth in range(1, 7):
        tree = TreeSpec(depth, (0,) * 2**depth)
        closed, generic = tree.levels(), RootedTree.levels(tree)
        assert len(closed) == len(generic) == depth + 1
        below = None
        for a, b in zip(closed, generic):
            assert np.array_equal(a.nodes, b.nodes)
            assert len(a.slots) == len(b.slots)
            for (ia, ma), (ib, mb) in zip(a.slots, b.slots):
                positions = np.arange(len(below))
                assert np.array_equal(positions[ia], positions[ib])
                assert ma is None and mb is None
            below = a.nodes
        reachable = sorted(int(n) for level in closed for n in level.nodes)
        assert reachable == sorted(tree.postorder())


def _without(params, node=None, link=None):
    eps = {k: v for k, v in params.epsilon.items() if k != node}
    coup = {k: v for k, v in params.coupling.items() if k != link}
    return DotParameters(eps, coup, params.delta, params.gamma)


def test_missing_entries_raise_for_reachable_dots_only():
    tree = TreeSpec(3, (0, 1, 1, 0, 1, 1, 1, 0), frozenset({3}))
    chained = chain_below(tree, 4)
    for t in (tree, chained):
        params = ideal_parameters(t, 10.0, 1e-6)
        # The dropped subtree under the NOT marker at node 3 has no entries.
        assert 7 not in params.epsilon and (3, 7) not in params.coupling
        inner = next(n for n in t.postorder() if len(t.children(n)) == 1)
        link = (inner, t.children(inner)[0])
        for broken in (_without(params, node=inner), _without(params, link=link)):
            for E in (0.0, np.linspace(-1.0, 1.0, 5)):
                with pytest.raises(StructureError):
                    _resolve(t, broken, E)
                with pytest.raises(StructureError):
                    reference_resolve(t, broken, E)


def test_couplings_matched_by_parent_and_child():
    # Entries for links the tree does not have, some sharing a child id
    # with a real link, are ignored; a real link only under another
    # parent is missing.
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    params = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 8))
    extra = {(99, 5): 0.5, (98, 9): 2.0, (97, 100): 3.0}
    noisy = DotParameters(params.epsilon, {**extra, **params.coupling, (96, 4): 0.7},
                          params.delta, params.gamma)
    assert_engine_matches(tree, noisy)
    moved = {k: v for k, v in noisy.coupling.items() if k != (2, 5)}
    with pytest.raises(StructureError, match=r"\(2, 5\)"):
        _resolve(tree, DotParameters(params.epsilon, moved, params.delta, params.gamma), 0.0)
    with pytest.raises(StructureError):
        _resolve(tree, DotParameters(params.epsilon, {}, params.delta, params.gamma), 0.0)


def test_split_real_helpers_round_as_cpython():
    rng = np.random.default_rng(21)
    parts = rng.normal(size=(2, 4000)) * 10.0 ** rng.uniform(-8, 8, size=(2, 4000))
    special = [0.0, -0.0, 1.0, -1.0, 3.0, 1e-300, -1e300, np.inf, -np.inf]
    grid = np.array([(a, b) for a in special for b in special if a or b]).T
    z = np.empty(parts.shape[1] + grid.shape[1], dtype=complex)
    z.real, z.imag = np.concatenate([parts, grid], axis=1)
    w = rng.permutation(z)
    with np.errstate(invalid="ignore"):
        product, reciprocal = _py_product(z, w), _py_reciprocal(z)
    want = np.array([complex(x) * complex(y) for x, y in zip(z, w)])
    assert_same(product, want)
    want = np.array([1.0 / complex(x) for x in z])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(reciprocal), nan)
    assert_same(reciprocal[~nan], want[~nan])
