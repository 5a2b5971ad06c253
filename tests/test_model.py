import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nandtree import (
    GAMMA_FLOOR,
    DisorderSpec,
    DotParameters,
    StructureError,
    TreeSpec,
    build_tree,
    ideal_parameters,
    sample_disorder,
)

import reference_walks as walks


def test_build_tree_depth3_shape():
    tree = build_tree(3, "10110010")
    ids, parents, _ = tree.dots()
    assert ids.tolist() == list(range(1, 16))
    assert tree.n_leaves == 8
    assert sorted(set(ids.tolist()) - set(parents.tolist())) == list(range(8, 16))
    assert tree.input_bits == (1, 0, 1, 1, 0, 0, 1, 0)


def test_build_tree_smallest():
    tree = build_tree(1, "00")
    ids, parents, _ = tree.dots()
    assert ids.tolist() == [1, 2, 3] and parents.tolist() == [-1, 1, 1]


def test_build_tree_1011_block():
    tree = build_tree(2, "1011")
    ids, _, signs = tree.dots()
    assert len(ids) == 7
    # Leaf N + i carries bit i, with sign (-1)**i.
    assert signs[3:].tolist() == [1, 0, 1, -1]


def test_build_tree_rejects_bad_input():
    with pytest.raises(StructureError):
        build_tree(2, "101")  # wrong length
    with pytest.raises(StructureError):
        build_tree(0, "")  # no levels
    with pytest.raises(StructureError):
        build_tree(1, "02")  # non-bit character
    with pytest.raises(StructureError):
        TreeSpec(depth=1, input_bits=(0, 0), not_markers=frozenset({2}))  # leaf marker


def test_index_algebra():
    tree = build_tree(3, "10110010")
    # Node i has children 2i and 2i + 1, one level further from the root.
    ids, parents, _ = tree.dots()
    assert parents[1:].tolist() == [node >> 1 for node in range(2, 16)]
    assert [level.nodes.tolist() for level in tree.levels()] == \
        [list(range(2**k, 2 ** (k + 1))) for k in range(3, -1, -1)]
    # Leaf N + i carries bit i with sign (-1)**i.
    assert build_tree(3, "11111111").dots()[2][7:].tolist() == [(-1) ** i for i in range(8)]
    order = walks.postorder(tree)
    assert sorted(order) == list(range(1, 16))
    assert order[-1] == tree.root
    seen = set()
    children = walks.children_of(tree)
    for node in order:
        assert all(c in seen for c in children(node))
        seen.add(node)


def test_not_marker_drops_right_subtree():
    tree = TreeSpec(depth=2, input_bits=(1, 0, 1, 1), not_markers=frozenset({1}))
    ids, parents, _ = tree.dots()
    assert ids.tolist() == [1, 2, 4, 5] and parents.tolist() == [-1, 1, 2, 2]
    assert 3 not in walks.postorder(tree)
    assert 6 not in walks.postorder(tree)


def test_ideal_parameters_detunings():
    tree = build_tree(1, (1, 1))
    p = ideal_parameters(tree, 10.0, 1e-6)
    assert p.epsilon.lookup([2, 3]).tolist() == [10.0, -10.0]

    tree = build_tree(1, (0, 0))
    p = ideal_parameters(tree, 10.0, 1e-6)
    assert p.epsilon.lookup([2, 3]).tolist() == [0.0, 0.0]

    tree = build_tree(2, (1, 0, 1, 1))
    p = ideal_parameters(tree, 10.0, 1e-6)
    assert p.epsilon.lookup([4, 5, 6, 7]).tolist() == [10.0, 0.0, 10.0, -10.0]
    assert np.all(p.coupling.values_array == 1.0)
    assert p.epsilon.lookup([1, 2, 3]).tolist() == [0.0, 0.0, 0.0]


def test_ideal_parameters_validation_and_gamma_floor():
    tree = build_tree(1, (0, 0))
    with pytest.raises(StructureError):
        ideal_parameters(tree, 0.0, 1e-6)
    with pytest.raises(StructureError):
        ideal_parameters(tree, 10.0, -1.0)
    assert ideal_parameters(tree, 10.0, 0.0).gamma == GAMMA_FLOOR


def test_dot_parameters_clamps_gamma_and_rejects_bad_couplings():
    p = DotParameters(epsilon={1: 0.0}, coupling={}, delta=10.0, gamma=0.0)
    assert p.gamma == GAMMA_FLOOR
    for gamma in (-1.0, -1e-15, -math.inf):
        with pytest.raises(StructureError, match=f"gamma must be nonnegative, got {gamma}"):
            DotParameters(epsilon={1: 0.0}, coupling={}, delta=10.0, gamma=gamma)
    with pytest.raises(StructureError):
        DotParameters(epsilon={1: 0.0}, coupling={(1, 2): 0.0}, delta=10.0, gamma=1e-6)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_dot_parameters_rejects_non_finite_gamma(gamma):
    with pytest.raises(StructureError, match="gamma must be finite"):
        DotParameters(epsilon={1: 0.0}, coupling={}, delta=10.0, gamma=gamma)
    with pytest.raises(StructureError, match="gamma must be finite"):
        ideal_parameters(build_tree(1, (0, 1)), 10.0, gamma)


@pytest.mark.parametrize("field", ["sigma_t", "sigma_eps", "mean_t", "coupling_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_disorder_spec_rejects_non_finite_fields(field, value):
    kwargs = {"sigma_t": 0.1, "sigma_eps": 0.1, "seed": 0, field: value}
    with pytest.raises(StructureError, match=f"{field} must be finite, got {value}"):
        DisorderSpec(**kwargs)


def test_disorder_spec_validation():
    with pytest.raises(StructureError):
        DisorderSpec(sigma_t=-0.1, sigma_eps=0.0, seed=0)
    with pytest.raises(StructureError):
        DisorderSpec(sigma_t=1.0, sigma_eps=0.0, seed=0)  # >= mean_t
    with pytest.raises(StructureError, match="seed must be nonnegative, got -1"):
        DisorderSpec(sigma_t=0.1, sigma_eps=0.1, seed=-1)
    assert DisorderSpec(sigma_t=0.1, sigma_eps=0.1, seed=0).seed == 0


def test_sample_disorder_zero_width_is_identity():
    tree = build_tree(3, "10110010")
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    sampled = sample_disorder(tree, ideal, DisorderSpec(0.0, 0.0, seed=42))
    assert walks.as_dict(sampled.epsilon) == walks.as_dict(ideal.epsilon)
    assert walks.as_dict(sampled.coupling) == walks.as_dict(ideal.coupling)


def test_sample_disorder_deterministic():
    tree = build_tree(3, "10110010")
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    spec = DisorderSpec(0.03, 0.03, seed=7)
    a, b, c = (sample_disorder(tree, ideal, s)
               for s in (spec, spec, DisorderSpec(0.03, 0.03, seed=8)))
    for table in ("epsilon", "coupling"):
        a_, b_, c_ = (walks.as_dict(getattr(p, table)) for p in (a, b, c))
        assert a_ == b_ and a_ != c_


def test_sample_disorder_coupling_floor():
    tree = build_tree(2, "0000")
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    spec = DisorderSpec(0.9, 0.0, seed=5, coupling_floor=0.1)
    for _ in range(20):
        sampled = sample_disorder(tree, ideal, spec)
        assert np.all(sampled.coupling.values_array >= 0.1)
        spec = DisorderSpec(0.9, 0.0, seed=spec.seed + 1, coupling_floor=0.1)


def test_sample_disorder_detuning_statistics():
    # Sample mean of internal detunings should sit within 3 sigma / sqrt(count).
    tree = build_tree(5, [0] * 32)
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    sigma = 0.03
    internal = [n for n in walks.postorder(tree) if n < tree.n_leaves]
    values = []
    for seed in range(40):
        sampled = sample_disorder(tree, ideal, DisorderSpec(0.0, sigma, seed=seed))
        values.extend(sampled.epsilon.lookup(internal).tolist())
    mean = np.mean(values)
    assert abs(mean) <= 3.0 * sigma / np.sqrt(len(values))


def test_paired_one_detunings_cancel():
    # For adjacent leaves both carrying bit 1 the +-Delta terms cancel,
    # leaving only the sampled disorder.
    tree = build_tree(2, (1, 1, 1, 1))
    ideal = walks.as_dict(ideal_parameters(tree, 10.0, 1e-6).epsilon)
    assert ideal[4] + ideal[5] == 0.0
    assert ideal[6] + ideal[7] == 0.0
    sampled = walks.as_dict(sample_disorder(tree, ideal_parameters(tree, 10.0, 1e-6),
                                            DisorderSpec(0.0, 0.05, seed=3)).epsilon)
    noise = {n: sampled[n] - ideal[n] for n in sampled}
    assert sampled[4] + sampled[5] == pytest.approx(noise[4] + noise[5])


@settings(max_examples=50, deadline=None)
@given(depth=st.integers(min_value=1, max_value=6), data=st.data())
def test_leaf_round_trip_property(depth, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=2**depth, max_size=2**depth))
    tree = build_tree(depth, bits)
    ids, parents, signs = tree.dots()
    n = tree.n_leaves
    # Leaf N + i, childless, carries bit i with sign (-1)**i.
    assert ids[n - 1:].tolist() == list(range(n, 2 * n))
    assert not set(ids[n - 1:].tolist()) & set(parents.tolist())
    assert signs[n - 1:].tolist() == [(-1) ** i * b for i, b in enumerate(bits)]
    assert len(walks.links(tree)) == len(ids) - 1 == 2 * n - 2
