import gc
import math
import re

import numpy as np
import pytest

from nandtree import (
    LayoutGraph,
    StructureError,
    TreeSpec,
    build_hfractal,
    build_tree,
    chain_below,
    classify,
    expand_to_tree,
    feasibility,
    green_tree,
    hybrid_time,
    ideal_chain_parameters,
    ideal_parameters,
    inverter_counts,
    inverter_map,
    worst_case_2d,
)
from nandtree.classical import eval_nand
from nandtree.layout import _distinct

import reference_walks as walks


def test_inverter_counts_published_prefix():
    assert inverter_counts(7) == (0, 2, 4, 10, 20, 38, 76)
    # extension keeps counts even (distances odd) and at least doubles
    assert inverter_counts(9) == (0, 2, 4, 10, 20, 38, 76, 154, 310)
    with pytest.raises(StructureError):
        inverter_counts(0)


def test_inverter_map_values():
    assert inverter_map(1.25, 0.75, 0) == (1.25, 0.75)
    assert inverter_map(1.0, 1.0, 1) == (2.0, 2.0)
    assert inverter_map(0.5, 0.5, 3) == (3.5, 3.5)
    with pytest.raises(StructureError):
        inverter_map(1.0, 1.0, -1)


def test_inverter_map_matches_explicit_chain():
    # A 6-inverter chain below the (0,0) tree (alpha = beta = 1/2)
    # must classify to (3.5, 3.5) within 1%.
    tree = build_tree(1, (0, 0))
    chained = chain_below(tree, 6)
    form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
    assert form.bit == 1
    assert form.alpha == pytest.approx(3.5, rel=0.01)
    assert form.beta == pytest.approx(3.5, rel=0.01)


def test_hfractal_smallest():
    graph = build_hfractal(build_tree(1, (0, 0)))
    assert len(graph.dots) == 3
    assert graph.n_inverters == 0


def test_hfractal_depth3_counts_per_level():
    tree = build_tree(3, "10110010")
    graph = build_hfractal(tree)
    # root link level has 4 inverters per leg, then 2, then 0
    by_level = {}
    pos = {d: (x, y) for d, x, y in graph.dots}
    children = walks.children_of(tree)
    for node in walks.postorder(tree):
        for child in children(node):
            dist = sum(abs(a - b) for a, b in zip(pos[node], pos[child]))
            by_level.setdefault(node.bit_length() - 1, set()).add(dist - 1)
    assert by_level[0] == {4}
    assert by_level[1] == {2}
    assert by_level[2] == {0}


def test_hfractal_geometry_invariants():
    for depth in range(1, 7):
        tree = build_tree(depth, [0] * 2**depth)
        graph = build_hfractal(tree)
        coords = [(x, y) for _, x, y in graph.dots]
        assert len(set(coords)) == len(coords)  # no two dots coincide
        pos = {d: (x, y) for d, x, y in graph.dots}
        degree = {}
        for a, b in graph.links:
            assert abs(pos[a][0] - pos[b][0]) + abs(pos[a][1] - pos[b][1]) == 1
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for dot, level in zip(graph.dots[:, 0].tolist(), graph.level.tolist()):
            if level < 0:
                assert degree[dot] == 2
            else:
                assert degree.get(dot, 0) <= 3


def test_hfractal_area_scaling():
    for depth in range(2, 9):
        tree = build_tree(depth, [0] * 2**depth)
        area = build_hfractal(tree).bounding_box_area()
        assert area <= 15 * 3**depth


def test_hfractal_depth_cap():
    with pytest.raises(StructureError):
        build_hfractal(build_tree(17, [0] * 2**17))


def test_hfractal_leaves_no_reference_cycle():
    # The lists and dicts of a build are freed when the build returns,
    # not left for the cyclic garbage collector.
    tree = build_tree(8, [0] * 256)
    gc.disable()
    try:
        gc.collect()
        build_hfractal(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_expand_even_chain_preserves_bit():
    tree = build_tree(1, (1, 1))
    base = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
    chained = chain_below(tree, 2)
    form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
    assert form.bit == base.bit == 0
    assert form.alpha == pytest.approx(base.alpha + 1.0, rel=0.01)
    assert form.beta == pytest.approx(base.beta + 1.0, rel=0.01)


def test_expand_single_inverter_is_not():
    tree = build_tree(1, (1, 1))
    chained = chain_below(tree, 1)
    form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
    assert form.bit == 1


def test_chain_growth_matches_inverter_map():
    tree = build_tree(1, (0, 0))
    base = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
    for d in range(1, 11):
        chained = chain_below(tree, 2 * d)
        form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
        expected = inverter_map(base.alpha, base.beta, d)
        assert form.bit == base.bit
        assert form.alpha == pytest.approx(expected[0], rel=0.01)
        assert form.beta == pytest.approx(expected[1], rel=0.01)


def test_expand_hfractal_1011():
    tree = build_tree(2, (1, 0, 1, 1))
    chained = expand_to_tree(build_hfractal(tree), tree)
    form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
    assert form.bit == eval_nand(tree) == 1


def test_expand_hfractal_exhaustive_small():
    for depth in (1, 2, 3):
        for code in range(2 ** 2**depth):
            bits = [(code >> i) & 1 for i in range(2**depth)]
            tree = build_tree(depth, bits)
            chained = expand_to_tree(build_hfractal(tree), tree)
            form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
            assert form.bit == eval_nand(tree), bits


def test_layout_needs_one_level_per_dot():
    with pytest.raises(StructureError, match="one level per dot, got 2 for 1 dots"):
        LayoutGraph(dots=((1, 0, 0),), links=(), level=(0, -1))


def test_expand_rejects_odd_unmarked_chain():
    # Minimal hand-built layout: one inverter between root and a leaf.
    graph = LayoutGraph(
        dots=((1, 0, 0), (4, 1, 0), (2, 2, 0), (3, -1, 0)),
        links=((1, 4), (4, 2), (1, 3)),
        level=(0, -1, 1, 1),
    )
    tree = build_tree(1, (1, 1))
    with pytest.raises(StructureError, match="odd inverter chain"):
        expand_to_tree(graph, tree)


def two_inverter_layout(inverter):
    """Root 1 with leaf 3 below it and leaf 2 below a chain of two
    inverters, 4 and ``inverter``."""
    return LayoutGraph(
        dots=((1, 0, 0), (4, 1, 0), (inverter, 2, 0), (2, 3, 0), (3, -1, 0)),
        links=((1, 4), (4, inverter), (inverter, 2), (1, 3)),
        level=(0, -1, -1, 1, 1),
    )


@pytest.mark.parametrize("bad", [-5, -1, 2**31, 2**40])
def test_expand_names_a_dot_id_outside_the_key_range(bad):
    tree = build_tree(1, (1, 1))
    chained = expand_to_tree(two_inverter_layout(5), tree)
    assert classify(chained, ideal_parameters(chained, 10.0, 1e-6)).bit == 0
    with pytest.raises(StructureError, match=re.escape(f"layout dot id {bad} lies outside")):
        expand_to_tree(two_inverter_layout(bad), tree)


def renumbered(graph, scale):
    """``graph`` with each inverter id i renumbered to scale * i + 1."""
    ids = graph.dots[:, 0]
    new = np.where(graph.level < 0, ids * scale + 1, ids)
    order = np.argsort(ids)
    links = new[order][np.searchsorted(ids[order], graph.links)]
    return LayoutGraph(np.column_stack([new, graph.dots[:, 1:]]), links, graph.level)


@pytest.mark.parametrize("depth", [2, 5, 8])
@pytest.mark.parametrize("scale", [1, 1000])
def test_direct_ids_match_the_sort(depth, scale, monkeypatch):
    # The H-fractal's dense ids are addressed directly; renumbered sparsely
    # they take np.unique.  Both give np.unique's ids and inverse, and the
    # same chained tree up to the renumbering.
    tree = build_tree(depth, [int(i % 3 == 0) for i in range(2**depth)])
    graph = renumbered(build_hfractal(tree), scale)
    ids = np.concatenate([graph.links.T.ravel(), graph.dots[graph.level < 0, 0],
                          np.flatnonzero(tree.structure()[0])])
    want = np.unique(ids, return_inverse=True)
    sorts, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(a) or unique(*a, **k))
    got = _distinct(ids)
    assert len(sorts) == (scale > 1)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    chained = expand_to_tree(graph, tree)
    plain = expand_to_tree(build_hfractal(tree), tree)
    assert np.array_equal(chained.length, plain.length)
    assert np.array_equal(chained.chains, plain.chains * scale + 1)
    assert classify(chained, ideal_parameters(chained, 10.0, 1e-6)) == \
        classify(plain, ideal_parameters(plain, 10.0, 1e-6))


CHAIN_TREE = TreeSpec(
    depth=3, input_bits=(1, 0, 1, 1, 0, 1, 1, 1), not_markers=frozenset({3})
)
CHAINED = {
    **{f"chain_below_{k}": chain_below(CHAIN_TREE, k) for k in (0, 1, 2, 5)},
    "hfractal": expand_to_tree(build_hfractal(CHAIN_TREE), CHAIN_TREE),
}


def test_ideal_chain_parameters_is_ideal_parameters():
    assert ideal_chain_parameters is ideal_parameters


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_ideal_parameters_on_chained_tree(name):
    chained = CHAINED[name]
    delta = 10.0
    params = ideal_parameters(chained, delta, 1e-6)
    assert params.epsilon.keys_array.tolist() == sorted(walks.postorder(chained))
    assert list(map(tuple, params.coupling.keys_array.tolist())) == sorted(walks.links(chained))
    assert set(params.coupling.values_array.tolist()) == {1.0}
    n = CHAIN_TREE.n_leaves
    children = walks.children_of(chained)
    leaves = [node for node in walks.postorder(chained) if not children(node)]
    # Node 3 carries a NOT marker, so node 7 and its leaves 14, 15 are absent.
    assert leaves == list(range(n, 2 * n - 2))
    for node, eps in walks.as_dict(params.epsilon).items():
        if node in leaves:
            i = node - n
            assert eps == (-1) ** i * CHAIN_TREE.input_bits[i] * delta
        else:
            assert eps == 0.0
    # Inverter ids start past the tree nodes; only chain_below(tree, 0) has none.
    inverters = [node for node in params.epsilon.keys_array.tolist() if node >= 2 * n]
    assert bool(inverters) == (name != "chain_below_0")


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_ideal_parameters_rejects_negative_gamma_on_chained_tree(name):
    with pytest.raises(StructureError):
        ideal_parameters(CHAINED[name], 10.0, -1.0)


def test_two_level_boolean_formulas():
    # Every depth-2 {NAND, NOT} formula, all inputs: the compiled layout
    # evaluates to the formula's truth table.
    for marker_bits in range(8):
        markers = frozenset(
            node for i, node in enumerate((1, 2, 3)) if (marker_bits >> i) & 1
        )
        for code in range(16):
            bits = tuple((code >> i) & 1 for i in range(4))
            tree = TreeSpec(depth=2, input_bits=bits, not_markers=markers)
            chained = expand_to_tree(build_hfractal(tree), tree)
            form = classify(chained, ideal_chain_parameters(chained, 10.0, 1e-6))
            assert form.bit == eval_nand(tree), (sorted(markers), bits)


def test_worst_case_2d_values():
    alpha2, beta2, bound2 = worst_case_2d(2)
    assert alpha2 == beta2 == 4.0 and bound2 == 4.0  # equality at the base
    alpha10, _, _ = worst_case_2d(10)
    assert alpha10 / 2**5 < 10.0
    for n in range(4, 21, 2):
        alpha, beta, bound = worst_case_2d(n)
        assert alpha == beta
        assert alpha < bound
    # A_{n+2}/A_n approaches 2 from above (the leading term is ~ n 2^{n/2})
    a = {n: worst_case_2d(n)[0] for n in range(2, 41, 2)}
    ratios = [a[n + 2] / a[n] for n in range(4, 39, 2)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert 2.0 < ratios[-1] < 2.15
    with pytest.raises(StructureError):
        worst_case_2d(3)
    with pytest.raises(StructureError):
        worst_case_2d(42)


def test_feasibility_gaas_scale_constants():
    report = feasibility(0.1, 100.0, 0.1, 1.0, 1.0, 100.0)
    assert report.n_max == 2**13
    assert report.area_mm2 <= 0.02
    assert 50.0 <= report.eval_time_ns <= 70.0
    assert report.limiting_factor in ("detuning disorder", "coupling disorder")


def test_feasibility_strong_disorder():
    report = feasibility(0.1, 100.0, 0.1, 100.0, 1.0, 100.0)
    assert report.n_max == 1
    assert report.limiting_factor == "detuning disorder"


def test_feasibility_rejects_nonpositive():
    with pytest.raises(StructureError):
        feasibility(0.1, 100.0, 0.0, 1.0, 1.0, 100.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(StructureError, match="positive and finite"):
            feasibility(0.1, bad, 0.1, 1.0, 1.0, 100.0)


@pytest.mark.parametrize("sigma", [1e-95, 1e-96, 1e-300])
def test_feasibility_rejects_an_area_beyond_a_float(sigma):
    with pytest.raises(StructureError, match="footprint of 2\\*\\*\\d+ inputs overflows"):
        feasibility(sigma, 100.0, 0.1, sigma, sigma, 100.0)
    # The largest ratio whose area still fits gives a finite area.
    report = feasibility(1e-90, 100.0, 0.1, 1e-90, 1e-90, 100.0)
    assert math.isfinite(report.area_mm2) and report.n_max == 2**611


def test_feasibility_time_unit_conversion():
    report = feasibility(0.1, 100.0, 0.1, 1.0, 1.0, 100.0)
    assert report.eval_time_ns == pytest.approx(10.0 * 0.6582119569 / 0.1)


def test_hybrid_time():
    hybrid0, classical0 = hybrid_time(0)
    assert hybrid0 == pytest.approx(2.0**6.5)
    assert classical0 == pytest.approx(2.0 ** (0.753 * 13))
    for k in range(0, 15):
        hybrid, classical = hybrid_time(k)
        assert hybrid < classical
        assert math.log2(classical / hybrid) == pytest.approx(0.753 * 13 - 6.5)
    with pytest.raises(StructureError):
        hybrid_time(-1)
