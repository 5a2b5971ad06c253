"""Array-backed parameter tables against the dict builders they replaced.

``reference_ideal_parameters`` and ``reference_sample_disorder`` are the
dict-based builders from before :class:`~nandtree.model.ParamTable`,
kept verbatim (returning their dicts) as the reference.  The array
builders must give the same keys in the same order and the same values
bit for bit, and draw the same random numbers.
"""

import math
import random

import numpy as np
import pytest

from nandtree import (ProbeSpec, QuadratureError, StructureError, build_tree, classify,
                      conductance, ideal_parameters, sample_disorder)
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, DotParameters, ParamTable, TreeSpec


def reference_ideal_parameters(tree, delta, gamma):
    order = tree.postorder()
    eps = dict.fromkeys(order, 0.0)
    coup = {}
    for node in order:
        kids = tree.children(node)
        for c in kids:
            coup[node, c] = 1.0
        if not kids:
            eps[node] = tree.leaf_sign(node) * tree.leaf_bit(node) * delta
    return eps, coup


def reference_sample_disorder(eps_ideal, coup_ideal, spec):
    rng = np.random.default_rng(spec.seed)
    links = sorted(coup_ideal)
    nodes = sorted(eps_ideal)
    tvals = rng.normal(spec.mean_t, spec.sigma_t, size=len(links))
    evals = rng.normal(0.0, spec.sigma_eps, size=len(nodes))
    coup = {
        link: max(float(t), spec.coupling_floor) for link, t in zip(links, tvals)
    }
    eps = {
        node: eps_ideal[node] + float(de) for node, de in zip(nodes, evals)
    }
    return eps, coup


def assert_table(table, want: dict):
    """Same keys in the same order, as Python ints or int pairs, and the same bits."""
    assert isinstance(table, ParamTable)
    keys = list(table)
    assert keys == list(want)
    assert all(type(k) is (tuple if table.links else int) for k in keys)
    if table.links:
        assert all(type(part) is int for k in keys for part in k)
    got = np.asarray(table.values_array, dtype=float)
    ref = np.array(list(want.values()), dtype=float)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _trees():
    rng = random.Random(4)
    for depth in range(1, 11):
        bits = [rng.randrange(2) for _ in range(2**depth)]
        yield build_tree(depth, bits)
        markers = rng.sample(range(1, 2**depth), min(3, 2**depth - 1))
        yield TreeSpec(depth, tuple(bits), frozenset(markers))
    for k in (0, 1, 5):
        yield chain_below(build_tree(3, "10110010"), k)
        yield chain_below(TreeSpec(3, (0, 1, 1, 0, 1, 1, 1, 0), frozenset({3})), k)
    for depth in range(2, 7):
        tree = build_tree(depth, [rng.randrange(2) for _ in range(2**depth)])
        yield expand_to_tree(build_hfractal(tree), tree)


TREES = list(_trees())


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_ideal_parameters_match_dict_builder(tree):
    params = ideal_parameters(tree, 10.0, 1e-6)
    eps, coup = reference_ideal_parameters(tree, 10.0, 1e-6)
    assert_table(params.epsilon, eps)
    assert_table(params.coupling, coup)
    nodes, links, _ = tree.postorder_arrays()
    assert nodes.tolist() == tree.postorder()
    assert list(map(tuple, links.tolist())) == tree.links()


def test_closed_form_postorder_matches_traversal():
    for depth in range(1, 12):
        tree = build_tree(depth, [1, 0] * 2 ** (depth - 1))
        closed = tree.postorder_arrays()
        generic = super(TreeSpec, tree).postorder_arrays()
        for a, b in zip(closed, generic):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_sample_disorder_matches_dict_sampler(tree):
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    eps_ideal, coup_ideal = reference_ideal_parameters(tree, 10.0, 1e-6)
    for seed in (0, 7, 2**40 + 3):
        for spec in (DisorderSpec(0.05, 0.02, seed), DisorderSpec(0.9, 0.3, seed)):
            sampled = sample_disorder(tree, ideal, spec)
            eps, coup = reference_sample_disorder(eps_ideal, coup_ideal, spec)
            assert_table(sampled.epsilon, eps)
            assert_table(sampled.coupling, coup)


def test_sample_disorder_clamps_at_the_floor():
    tree = build_tree(6, [0, 1] * 32)
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    eps_ideal, coup_ideal = reference_ideal_parameters(tree, 10.0, 1e-6)
    clamped = 0
    for seed in range(5):
        spec = DisorderSpec(0.9, 0.1, seed, coupling_floor=0.4)
        sampled = sample_disorder(tree, ideal, spec)
        eps, coup = reference_sample_disorder(eps_ideal, coup_ideal, spec)
        assert_table(sampled.coupling, coup)
        assert_table(sampled.epsilon, eps)
        clamped += int(np.sum(sampled.coupling.values_array == 0.4))
    assert clamped > 20


def test_tables_behave_as_mappings():
    tree = TreeSpec(2, (1, 0, 1, 1), frozenset({3}))
    params = ideal_parameters(tree, 10.0, 1e-6)
    eps, coup = reference_ideal_parameters(tree, 10.0, 1e-6)
    assert params.epsilon == eps and eps == params.epsilon
    assert params.coupling == coup and params.coupling != {**coup, (1, 2): 2.0}
    assert len(params.epsilon) == len(eps) == 6 and len(params.coupling) == 5
    assert dict(params.epsilon.items()) == eps and params.coupling.values() == [1.0] * 5
    assert params.epsilon[4] == 10.0 and type(params.epsilon[np.int64(4)]) is float
    assert params.coupling[(1, 2)] == 1.0 and params.coupling[np.array([2, 4])] == 1.0
    assert 3 in params.epsilon and 7 not in params.epsilon
    assert (3, 6) in params.coupling and (3, 7) not in params.coupling
    for table, key in [(params.epsilon, 7), (params.epsilon, -1), (params.epsilon, 2**40),
                       (params.epsilon, 2.0), (params.epsilon, "a"), (params.epsilon, (1, 2)),
                       (params.coupling, (3, 7)), (params.coupling, (1, 2, 3)),
                       (params.coupling, 1), (params.coupling, (0, 2**32 + 2))]:
        with pytest.raises(KeyError):
            table[key]
    assert params.epsilon.get(7) is None
    # (0, 2**32 + 2) packs into the same int64 code as (1, 2).
    with pytest.raises(KeyError, match=r"\(0, 4294967298\)"):
        params.coupling.lookup([[1, 2], [0, 2**32 + 2]])
    assert params.coupling.lookup([[1, 3], [1, 2]]).tolist() == [1.0, 1.0]


def test_tables_from_dicts_keep_their_order():
    eps = {3: 0.5, 1: -0.25, 2: 0.0}
    coup = {(1, 3): 0.5, (1, 2): 2.0}
    params = DotParameters(eps, coup, 10.0, 1e-6)
    assert_table(params.epsilon, eps)
    assert_table(params.coupling, coup)
    assert DotParameters(params.epsilon, params.coupling, 10.0, 1e-6) == params
    empty = DotParameters({}, {}, 10.0, 1e-6)
    assert len(empty.epsilon) == len(empty.coupling) == 0 and empty.coupling == {}
    with pytest.raises(KeyError):
        empty.coupling[(1, 2)]


@pytest.mark.parametrize("eps, coup", [
    ({"a": 0.0}, {}),
    ({1.5: 0.0}, {}),
    ({-1: 0.0}, {}),
    ({2**31: 0.0}, {}),
    ({1: 0.0}, {1: 1.0}),
    ({1: 0.0}, {(1, 2, 3): 1.0}),
    ({1: "x"}, {}),
])
def test_tables_reject_bad_keys_and_values(eps, coup):
    with pytest.raises(StructureError):
        DotParameters(eps, coup, 10.0, 1e-6)


def test_tables_reject_swapped_kinds_and_duplicate_keys():
    nodes = ParamTable([1, 2], [0.0, 0.0])
    links = ParamTable([[1, 2]], [1.0])
    with pytest.raises(StructureError):
        DotParameters(links, links, 10.0, 1e-6)
    with pytest.raises(StructureError):
        DotParameters(nodes, nodes, 10.0, 1e-6)
    with pytest.raises(StructureError):
        ParamTable([1, 1], [0.0, 1.0])
    with pytest.raises(StructureError):
        ParamTable([[1, 2], [3, 4], [1, 2]], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_nonfinite_or_nonpositive_coupling_is_rejected(bad):
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    coup = {**params.coupling, (3, 6): bad, (1, 2): bad}
    with pytest.raises(StructureError, match=r"\(3, 6\)"):
        DotParameters(params.epsilon, coup, 10.0, 1e-6)


def test_nan_detuning_is_rejected():
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    eps = {**params.epsilon, 6: math.nan, 3: math.nan}
    with pytest.raises(StructureError, match="node 6 "):
        DotParameters(eps, params.coupling, 10.0, 1e-6)
    # A fully detuned dot stays allowed.
    far = DotParameters({**params.epsilon, 7: math.inf}, params.coupling, 10.0, 1e-6)
    assert classify(tree, far).bit in (0, 1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
def test_ideal_parameters_reject_bad_delta(delta):
    with pytest.raises(StructureError):
        ideal_parameters(build_tree(1, (0, 1)), delta, 1e-6)


def test_quadrature_error_reports_panels_and_tolerance():
    tree = build_tree(1, (1, 0))
    params = ideal_parameters(tree, 10.0, 1e-5)
    with pytest.raises(QuadratureError) as info:
        conductance(tree, params, ProbeSpec(1e-5, 1e-5, temperature=0.1))
    err = info.value
    assert err.panels == 8192 and err.achieved > 1e-8
    assert "8192 panels" in str(err) and f"{err.achieved:.2e}" in str(err)
