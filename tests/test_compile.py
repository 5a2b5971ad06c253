"""Compilation in ``greens``: the parameter columns gathered by position,
and identical subtrees merged only where a call evaluates more than one
energy.

Each fast path is checked bit for bit against the slow path it stands
for: the position gather against the binary search of
``ParamTable.find`` (``greens._located``), and unmerged one-energy
results against the merged schedule.
"""

import re

import numpy as np
import pytest

from nandtree import (DotParameters, StructureError, build_tree, classify, green_tree,
                      green_tree_derivative, green_tree_many, greens, ideal_parameters,
                      sample_disorder, sample_disorder_many)
from nandtree.greens import CompiledTree, _resolve, compile_tree, inertia_count
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, TreeSpec
from nandtree.transport import (ProbeSpec, conductance, readout, sweep, transmission,
                                transmission_curve)

import reference_walks as walks


def trees():
    rng = np.random.default_rng(9)
    yield "unmarked", build_tree(5, rng.integers(0, 2, 32))
    yield "marked", TreeSpec(5, tuple(rng.integers(0, 2, 32)), frozenset({2, 5, 13}))
    yield "chain_below", chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({3})), 5)
    tree = build_tree(4, rng.integers(0, 2, 16))
    yield "hfractal", expand_to_tree(build_hfractal(tree), tree)


TREES = dict(trees())


def parameter_cases(tree):
    """Ideal parameters (which merge), one disordered realization and a
    batch of three (which do not)."""
    ideal = ideal_parameters(tree, 10.0, 1e-3)
    specs = [DisorderSpec(0.1, 0.1, seed) for seed in range(3)]
    return [ideal, sample_disorder(tree, ideal, specs[0]),
            sample_disorder_many(tree, ideal, specs)]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


def assert_same_steps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a.eps, b.eps)
        assert len(a.t2s) == len(b.t2s) == len(a.slots)
        for ta, tb in zip(a.t2s, b.t2s):
            assert_same(ta, tb)
        assert (a.mult is None) == (b.mult is None)
        if a.mult is not None:
            assert np.array_equal(a.mult, b.mult)


def with_extra(params, dot, link):
    """``params`` with an entry for a dot and a link the tree lacks."""
    eps, coupling = walks.as_dict(params.epsilon), walks.as_dict(params.coupling)
    if dot:
        eps[2**30] = 0.25
    if link:
        coupling[(1, 2**30 + 1)] = 0.75
    return DotParameters(eps, coupling, params.delta, params.gamma)


@pytest.mark.parametrize("name", TREES)
def test_position_gather_matches_lookup(name):
    tree = TREES[name]
    schedule = tree.levels()
    assert all(level.rows is not None for level in schedule)
    for params in parameter_cases(tree):
        for table, codes in zip((params.epsilon, params.coupling), tree.table_codes()):
            assert np.array_equal(table.codes, codes)
        assert_same_steps(greens._columns(params, schedule),
                          greens._columns(params, greens._located(params, schedule)))
        assert_same_steps(greens._gather(tree, params),
                          greens._columns(params, greens._located(params, schedule)))


def test_unmarked_tree_columns_are_views_of_the_tables():
    tree = TREES["unmarked"]
    for params in parameter_cases(tree):
        steps = greens._gather(tree, params)
        assert all(np.shares_memory(s.eps, params.epsilon.values_array) for s in steps)
        slot_t2s = [t2 for s in steps for t2 in s.t2s]
        assert all(t2.base is slot_t2s[0].base for t2 in slot_t2s)


@pytest.mark.parametrize("name", TREES)
@pytest.mark.parametrize("dot, link", [(True, False), (False, True), (True, True)])
def test_tables_with_extra_keys_take_the_lookup(name, dot, link, monkeypatch):
    tree = TREES[name]
    located, find = [], greens._located
    monkeypatch.setattr(greens, "_located",
                        lambda params, schedule: located.append(1) or find(params, schedule))
    E = np.linspace(-1.0, 1.0, 7)
    for params in parameter_cases(tree)[:2]:
        extended = with_extra(params, dot, link)
        located.clear()
        assert_same(green_tree_many(tree, extended, E), green_tree_many(tree, params, E))
        assert_same(green_tree(tree, extended, 0.1), green_tree(tree, params, 0.1))
        assert len(located) == 2
        located.clear()
        green_tree(tree, params, 0.1)
        assert not located


@pytest.mark.parametrize("name", TREES)
def test_missing_entries_name_the_same_key(name):
    # The lookup reads the dots deepest level first, then the links level
    # by level and slot by slot; the first missing key is named.
    tree = TREES[name]
    params = ideal_parameters(tree, 10.0, 1e-3)
    leaf = int(tree.levels()[0].nodes[-1])
    link = next(k for k in walks.as_dict(params.coupling) if k[1] == leaf)
    drop_dot = {k: v for k, v in walks.as_dict(params.epsilon).items() if k != leaf}
    drop_link = {k: v for k, v in walks.as_dict(params.coupling).items() if k != link}
    for eps, coupling, key in ((drop_dot, params.coupling, leaf),
                               (params.epsilon, drop_link, link),
                               (drop_dot, drop_link, leaf)):
        broken = DotParameters(eps, coupling, params.delta, params.gamma)
        message = f"parameters missing entry for {key!r}"
        for E in (0.0, np.linspace(-1.0, 1.0, 3)):
            with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
                green_tree_many(tree, broken, E)


@pytest.mark.parametrize("name", TREES)
def test_unmerged_one_energy_results_equal_merged(name):
    tree = TREES[name]
    for params in parameter_cases(tree):
        merged = compile_tree(tree, params)
        plain = CompiledTree(params, tuple(greens._gather(tree, params)))
        assert all(s.mult is None for s in plain.steps)
        for E in (0.0, 0.37, -1.25):
            for a, b in zip(_resolve(plain, params, E, True), _resolve(merged, params, E, True)):
                assert_same(a, b)
            for a, b in zip(inertia_count(plain, params, E), inertia_count(merged, params, E)):
                assert_same(a, b)
    ideal = parameter_cases(tree)[0]
    widths = [s.eps.shape[-2] for s in compile_tree(tree, ideal).steps]
    assert sum(widths) < sum(level.nodes.shape[-1] for level in tree.levels())


@pytest.fixture
def classings(monkeypatch):
    """How often ``greens._classes`` runs: once per classed level."""
    calls, classes = [], greens._classes
    monkeypatch.setattr(greens, "_classes", lambda keys: calls.append(1) or classes(keys))
    return calls


def test_one_energy_calls_never_class(classings):
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 0.01)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.03, 0.03, s) for s in range(3)])
    cold = ProbeSpec()
    for call in (lambda: classify(tree, ideal), lambda: green_tree(tree, ideal, 0.2),
                 lambda: green_tree_derivative(tree, ideal, 0.2),
                 lambda: green_tree_many(tree, many, 0.2),
                 lambda: inertia_count(tree, ideal, 0.2),
                 lambda: transmission(tree, ideal, cold, 0.2),
                 lambda: readout(tree, ideal, cold), lambda: readout(tree, many, cold),
                 lambda: sweep(tree, ideal, cold, "eps0", [-0.2, 0.0, 0.2])):
        call()
        assert not classings
    green_tree_many(tree, ideal, np.linspace(-1.0, 1.0, 5))
    assert classings


def test_many_energy_calls_merge_once(classings):
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 0.01)
    compile_tree(tree, ideal)
    once = len(classings)
    assert once
    warm, cold = ProbeSpec(temperature=0.01), ProbeSpec()
    for call in (lambda: green_tree_many(tree, ideal, np.linspace(-1.0, 1.0, 5)),
                 lambda: inertia_count(tree, ideal, [0.1, 0.2]),
                 lambda: transmission_curve(tree, ideal, cold, np.linspace(-1.0, 1.0, 5)),
                 lambda: conductance(tree, ideal, warm), lambda: readout(tree, ideal, warm),
                 lambda: sweep(tree, ideal, cold, "E", [-0.2, 0.0, 0.2]),
                 lambda: sweep(tree, ideal, warm, "E", [-0.2, 0.0, 0.2]),
                 lambda: sweep(tree, ideal, warm, "eps0", [-0.2, 0.0, 0.2])):
        classings.clear()
        call()
        assert len(classings) == once
