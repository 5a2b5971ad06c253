"""Inverter chains as stacked levels, evaluated as Möbius products.

A chained tree gives each maximal run of single-child levels as one
stacked level; ``greens`` evaluates it as a product of the dots' 2x2
matrices.  Expanded row by row, the stacks are the levels of the
breadth-first walk.  The products round differently from the level
recursion, so their values are checked against the reference within
``CHAIN_RTOL`` (``test_greens_engine``), but they must not depend on
which samples, energies or columns share a block, and the inertia
count, which walks the rows of a stack, stays bit for bit.
"""

import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from nandtree import (assemble, build_tree, classify, green_tree_many, greens, ideal_parameters,
                      sample_disorder, sample_disorder_many)
from nandtree.greens import _BLOCK, _resolve, inertia_count
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, RootedTree, TreeSpec

import reference_walks as walks
from test_greens_engine import CHAIN_RTOL, reference_on_array, stacked
from test_layout_reference import assert_same_levels


def hfractal(depth, seed=None):
    rng = np.random.default_rng(depth if seed is None else seed)
    tree = build_tree(depth, rng.integers(0, 2, 2**depth))
    return expand_to_tree(build_hfractal(tree), tree)


def chained_trees():
    rng = np.random.default_rng(17)
    for k in (2, 3, 8, 41):
        tree = TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2}))
        yield f"below-{k}", chain_below(tree, k)
    for depth in range(2, 9):
        yield f"hfractal-{depth}", hfractal(depth)


CHAINED = dict(chained_trees())


class Walked(walks.WalkedTree):
    """``tree`` seen through its ``children()`` alone: its schedule is the
    breadth-first walk's, one plain level per distance from the root."""

    def __init__(self, tree):
        self.tree, self.root = tree, tree.root
        self.children = walks.children_of(tree)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("tree", [
    *(chain_below(TreeSpec(3, (1, 0, 1, 1, 0, 0, 1, 0), frozenset({2})), k) for k in (0, 1, 2, 41)),
    *(hfractal(depth) for depth in range(2, 9))], ids=lambda t: type(t).__name__)
def test_table_codes_come_from_the_rank_sorts(tree):
    # The codes put in place by the ranks are those the ids and links give
    # when sorted again, on a fresh tree and on one whose ranks are known.
    want = RootedTree.table_codes(tree)
    for _ in range(2):
        got = tree.table_codes()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


@pytest.mark.parametrize("name", CHAINED)
def test_stacked_levels_expand_to_the_walked_levels(name):
    tree = CHAINED[name]
    schedule, walked = tree.levels(), walks.levels(tree)
    assert stacked(tree)
    assert_same_levels(schedule, walked)
    # Each stack is a maximal run of two or more levels whose nodes all
    # have one child.
    single = [len(level.slots) == 1 and level.slots[0].mask is None
              and below is not None and len(level.nodes) == len(below.nodes)
              for below, level in zip([None] + walked, walked)]
    runs = []
    for flag, group in groupby(single):
        n = len(list(group))
        runs += [n] if flag and n > 1 else [1] * n
    assert [len(level.nodes) if level.nodes.ndim == 2 else 1 for level in schedule] == runs
    # The rows of a stack point where the binary search finds its dots and links.
    params = ideal_parameters(tree, 10.0, 1e-6)
    found = greens._located(params, walked)
    for got, want in zip(walks.expanded(schedule), found, strict=True):
        assert np.array_equal(got.rows, want.rows)
        assert (got.up is None) == (want.up is None)
        if got.up is not None:
            assert np.array_equal(got.up, want.up)


def parameter_sets(tree):
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    return ideal, sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 3))


@pytest.mark.parametrize("name", ["below-41", "hfractal-5"])
def test_long_runs_stay_within_tolerance_far_from_the_band(name):
    # Outside the band a chain's matrices grow or shrink geometrically;
    # each product is rescaled, so nothing overflows.
    tree = CHAINED[name]
    E = np.array([-30.0, -2.5, 2.5, 30.0])
    for params in parameter_sets(tree):
        got, want = _resolve(tree, params, E, True), reference_on_array(tree, params, E, True)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= CHAIN_RTOL * np.abs(w))


@pytest.mark.parametrize("block", [_BLOCK, 1, 7, 300])
def test_chained_values_do_not_depend_on_the_block(block, monkeypatch):
    # Each sample, energy and column of a stack composes its own product
    # and rescales it by its own entries, so it does not matter which
    # others share its block; energies far outside the band, whose
    # products grow by 40**300, share blocks with energies inside it.
    monkeypatch.setattr(greens, "_BLOCK", block)
    E = np.array([-1.2, 0.0, 0.37, 40.0, -25.0])
    for tree in (chain_below(build_tree(2, (1, 0, 1, 1)), 300), hfractal(4)):
        ideal = ideal_parameters(tree, 10.0, 1e-3)
        many = sample_disorder_many(tree, ideal, [DisorderSpec(s / 10, s / 10, s)
                                                  for s in range(4)])
        got = _resolve(tree, many, E, True)
        assert all(np.all(np.isfinite(part)) for part in got)
        for s in range(4):
            row = many.sample(s)
            for i, e in enumerate(E):
                alone = _resolve(tree, row, e, True)
                for k in range(2):
                    assert np.array_equal(bits(got[k][s, i]), bits(alone[k]))
            assert np.array_equal(bits(green_tree_many(tree, row, E)), bits(got[0][s]))


@pytest.mark.parametrize("name", ["below-3", "below-41", "hfractal-3", "hfractal-5"])
def test_inertia_on_stacked_levels_is_the_level_walk(name):
    # The count walks a stack row by row in the level recursion's
    # arithmetic: bit for bit what the walked schedule gives, merged
    # (many energies) or not (one), and the dense spectrum's count.
    tree = CHAINED[name]
    walked = Walked(tree)
    for params in parameter_sets(tree):
        for E in (0.0, 0.37, np.linspace(-2.5, 2.5, 41)):
            got, want = inertia_count(tree, params, E), inertia_count(walked, params, E)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(bits(got[1]), bits(want[1]))
        spectrum = np.linalg.eigvalsh(assemble(tree, params).matrix)
        E = np.linspace(-3.0, 3.0, 61)
        E = E[np.abs(spectrum[None, :] - E[:, None]).min(axis=1) > 1e-9]
        assert np.array_equal(inertia_count(tree, params, E)[0],
                              (spectrum[None, :] < E[:, None]).sum(axis=1))


def test_many_energies_on_the_depth_12_hfractal_stay_in_memory():
    # The stacks run in chunks whose planes hold at most _BLOCK values.
    tree = hfractal(12, seed=12)
    params = ideal_parameters(tree, 10.0, 1e-6)
    energies = np.linspace(-1.0, 1.0, 401)
    tracemalloc.start()
    try:
        g = green_tree_many(tree, params, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(g))
    assert peak <= 12e6  # 8.2 MB on the level engine


def test_marked_tree_computes_its_reach_once(monkeypatch):
    # The reach mask is kept on the tree: a classify of a fresh marked
    # tree computes it once, for both its schedule and its table codes,
    # and later calls on the same tree not again.
    calls, structure = [], TreeSpec.structure
    monkeypatch.setattr(TreeSpec, "structure",
                        lambda self: calls.append(1) or structure(self))
    rng = np.random.default_rng(8)
    bits_in, markers = tuple(rng.integers(0, 2, 64)), frozenset(range(1, 64, 7))
    params = ideal_parameters(TreeSpec(6, bits_in, markers), 10.0, 1e-6)
    for _ in range(2):
        tree = TreeSpec(6, bits_in, markers)
        calls.clear()
        classify(tree, params)
        assert len(calls) == 1
    calls.clear()
    classify(tree, params)
    green_tree_many(tree, params, np.linspace(-1.0, 1.0, 5))
    assert not calls
    assert all(not a.flags.writeable for a in tree._structure)
