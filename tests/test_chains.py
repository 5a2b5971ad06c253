"""Inverter chains as stacked levels, evaluated as Möbius products.

A chained tree gives each maximal run of single-child levels as one
stacked level; ``greens`` evaluates it as a product of the dots' 2x2
matrices.  Expanded row by row, the stacks are the levels of the
breadth-first walk.  The products round differently from the level
recursion, so their values are checked against the reference within
``CHAIN_RTOL`` (``test_greens_engine``), but they must not depend on
which samples, energies or columns share a block, nor on which stacks
are composed together, and the inertia count, which walks the rows of a
stack, stays bit for bit.  The stack-by-stack composer is kept here
(``stack_product``) as the reference for the composer that serves many
stacks at once, and the sorts that ranked a chained tree's dots
(``sorted_ranks``) for the direct ranks.
"""

import tracemalloc
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from nandtree import (assemble, build_tree, classify, green_tree_many, greens, ideal_parameters,
                      sample_disorder, sample_disorder_many)
from nandtree.greens import _BLOCK, _resolve, inertia_count
from nandtree.layout import ChainedTree, LayoutGraph, build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, RootedTree, TreeSpec
from nandtree.transport import ProbeSpec, transmission

import reference_walks as walks
from test_greens_engine import (CHAIN_RTOL, assert_parts_match_one_worker, reference_on_array,
                                 stacked)
from test_layout_reference import assert_same_arrays, assert_same_levels


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
    # when sorted, as built and as kept.
    want = RootedTree.sorted_codes(tree)
    for _ in range(2):
        got = tree.table_codes()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def test_a_chained_tree_keeps_read_only_copies_of_its_inputs():
    # What a chained tree caches is built from its length and chains, so it
    # holds read-only int64 copies of them: a write to them raises, and a
    # write to the caller's arrays, before first use or after, changes
    # nothing it evaluates.
    base = chain_below(build_tree(3, "10110010"), 3)
    want = [*base.links(), *base.table_codes()]
    length, chains = base.length.copy(), base.chains.copy()
    tree = ChainedTree(base.tree, length.tolist(), chains)
    chains[0] = 1000
    assert_same_arrays([*tree.links(), *tree.table_codes()], want)
    chains[1] = 1001
    assert_same_arrays([*tree.links(), *tree.table_codes()], want)
    for name, given in (("length", length), ("chains", chains)):
        kept = getattr(tree, name)
        assert kept.dtype == np.int64 and not kept.flags.writeable and kept is not given
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1


def sorted_ranks(tree):
    """``tree._ranks`` by sorting: the argsort of the ids and the lexsort
    of the (parent, child) links."""
    ids, dots = tree._dots
    rows, up = np.empty(len(ids), np.intp), np.zeros(len(ids), np.intp)
    rows[np.argsort(ids)] = np.arange(len(ids))
    up[np.lexsort((ids[1:], ids[dots.parent[1:]])) + 1] = np.arange(len(ids) - 1)
    return rows, up


def renumbered(graph, inverter_ids):
    """``graph`` with its inverters renumbered to ``inverter_ids``, given in
    the order of its dots."""
    ids, inverter = graph.dots[:, 0], graph.level < 0
    new = ids.copy()
    new[inverter] = inverter_ids
    order = np.argsort(ids)
    links = new[order][np.searchsorted(ids[order], graph.links)]
    return LayoutGraph(np.column_stack([new, graph.dots[:, 1:]]), links, graph.level)


def renumbered_trees():
    """Chained trees whose inverter ids are shuffled, so that a dot's
    two children come in either order of id: densely (the direct ranks)
    and sparsely (the sorts)."""
    rng = np.random.default_rng(23)
    for depth in (2, 4, 6):
        tree = build_tree(depth, rng.integers(0, 2, 2**depth))
        graph = build_hfractal(tree)
        count = graph.n_inverters
        for name, spread in (("dense", 1), ("sparse", 1000)):
            ids = 2 * tree.n_leaves + spread * rng.permutation(count)
            yield f"{name}-{depth}", expand_to_tree(renumbered(graph, ids), tree)


RANKED = {**CHAINED, **dict(renumbered_trees())}


@pytest.mark.parametrize("name", RANKED)
def test_direct_ranks_match_the_sorts(name, monkeypatch):
    # Dense ids are ranked without a sort and the links by their parents'
    # ranks; both ranks equal those the argsort and lexsort gave.
    tree = RANKED[name]
    tree._dots
    sorts = []
    for sort in ("argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, sort, lambda *a, _sort=getattr(np, sort), **k:
                            sorts.append(1) or _sort(*a, **k))
    got = tree._ranks
    monkeypatch.undo()
    assert bool(sorts) == name.startswith("sparse")
    for a, b in zip(got, sorted_ranks(tree), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
    found = walks.located(tree, params, schedule)
    for got, (rows, up) in zip(walks.expanded(schedule), found, strict=True):
        assert np.array_equal(got.rows, rows)
        assert (got.up is None) == (up is None)
        if got.up is not None:
            assert np.array_equal(got.up, up)


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


@pytest.mark.parametrize("name", ["below-2", "below-3", "below-8", "hfractal-4"])
def test_stacks_stay_finite_at_far_energies(name):
    # Each dot matrix is scaled by a power of two before any product, so
    # far out, where a product of two dots reaches E^2 and one of four E^4,
    # nothing overflows (the suite makes an overflow warning an error), and
    # the values stay the level recursion's; so does T, which is 0.0.
    tree = CHAINED[name]
    E = np.array([-1e300, -1e150, -1e80, 1e80, 1e150, 1e300])
    for params in parameter_sets(tree):
        got, want = _resolve(tree, params, E, True), reference_on_array(tree, params, E, True)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= CHAIN_RTOL * np.abs(w))
        for e in (1e200, -1e200):
            assert transmission(tree, params, ProbeSpec(), e) == 0.0


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
        # Widths 0 to 0.3, so an exactly ideal row shares blocks with
        # disordered ones; a batch has one spec, so the rows are stacked.
        rows = [sample_disorder(tree, ideal, DisorderSpec(s / 10, s / 10, s)) for s in range(4)]
        many = replace(
            ideal, epsilon=ideal.epsilon._with(np.stack([r.epsilon.values_array for r in rows])),
            coupling=ideal.coupling._with(np.stack([r.coupling.values_array for r in rows])))
        got = _resolve(tree, many, E, True)
        assert all(np.all(np.isfinite(part)) for part in got)
        for s in range(4):
            row = many.sample(s)
            for i, e in enumerate(E):
                alone = _resolve(tree, row, e, True)
                for k in range(2):
                    assert np.array_equal(bits(got[k][s, i]), bits(alone[k]))
            assert np.array_equal(bits(green_tree_many(tree, row, E)), bits(got[0][s]))


@pytest.mark.parametrize("block", [_BLOCK, 7, 300])
@pytest.mark.parametrize("name", ["below-41", "hfractal-4"])
def test_parts_match_one_worker(name, block, monkeypatch):
    # Each part composes its own products, in planes of its own block.
    monkeypatch.setattr(greens, "_BLOCK", block)
    assert_parts_match_one_worker(CHAINED[name], monkeypatch)


@pytest.mark.parametrize("block", [_BLOCK, 1, 7, 300])
def test_stacks_composed_together_match_each_alone(block, monkeypatch):
    # The stacks that fit a block are composed in one pass; each product
    # is bit for bit what composing its stack alone gives (greens._compose
    # given one piece at a time), with and without the derivative, ideal
    # and for a batch, at one energy and at several.
    monkeypatch.setattr(greens, "_BLOCK", block)
    groups = []
    compose = greens._compose
    monkeypatch.setattr(greens, "_compose",
                        lambda pieces, *a: groups.append(len(pieces)) or compose(pieces, *a))
    # Tiny blocks compose in many tiny chunks: the depth-8 H-fractal only
    # at the larger blocks, to keep the test fast.
    for name in ("below-41", "hfractal-3", "hfractal-5") + (("hfractal-8",) if block > 7 else ()):
        tree = CHAINED[name]
        ideal = ideal_parameters(tree, 10.0, 1e-3)
        many = sample_disorder_many(tree, ideal, DisorderSpec(0.1, 0.1, 0), range(3))
        for params in (ideal, many):
            for E in (np.array(0.0), np.array([-1.2, 0.0, 0.37, 40.0]), np.array([])):
                for derivative in (False, True):
                    together = _resolve(tree, params, E, derivative)
                    with monkeypatch.context() as m:
                        m.setattr(greens, "_compose", lambda pieces, *a:
                                  [compose([piece], *a)[0] for piece in pieces])
                        alone = _resolve(tree, params, E, derivative)
                    if not derivative:
                        together, alone = (together,), (alone,)
                    for a, b in zip(together, alone, strict=True):
                        assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
    if block > 7:
        assert any(n > 1 for n in groups)


@pytest.mark.parametrize("name", ["below-41", "hfractal-3"])
def test_empty_batches_give_empty_results(name):
    # A batch of no samples, or no energies, runs through the stacks too.
    tree = CHAINED[name]
    none = sample_disorder_many(tree, ideal_parameters(tree, 10.0, 1e-3), DisorderSpec(0, 0, 0), [])
    for E in (np.array([0.0, 0.1]), np.array(0.0), np.array([])):
        for got in (*_resolve(tree, none, E, True), *inertia_count(tree, none, E)):
            assert got.shape == (0,) + E.shape


def stack_product(c, d, derivative) -> list:
    """The product of one stack of dot matrices [[0, 1], [c_j, d_j]] (and
    its derivative), stack by stack as ``greens`` composed it before the
    stacks of a call were composed together: kept as the reference.  Each
    dot matrix is first scaled by the power of two from its largest entry,
    to s [[0, 1], [c_j, d_j]]."""
    s = greens._power(np.maximum(np.maximum(np.abs(d.real), np.abs(d.imag)),
                                 np.maximum(np.abs(c), 1.0)))
    c, d = s * c, s * d
    n = len(d) - len(d) % 2
    seed = [0.0, 0.0, 0.0, s[n:]] if derivative else []
    tops = [[0.0, s[n:], c[n:], d[n:]] + seed] if n < len(d) else []
    s0, c0, d0, s1, c1, d1 = s[0:n:2], c[0:n:2], d[0:n:2], s[1:n:2], c[1:n:2], d[1:n:2]
    planes = [s1 * c0, s1 * d0, d1 * c0, s0 * c1 + d1 * d0]
    if derivative:
        planes += [np.zeros_like(c0), s1 * s0, planes[0], s1 * d0 + s0 * d1]
    while len(planes[0]) > 1:
        n = len(planes[0]) - len(planes[0]) % 2
        if n < len(planes[0]):
            tops.append([p[n:] for p in planes])
        planes = greens._rescaled(greens._product([p[1:n:2] for p in planes],
                                                  [p[0:n:2] for p in planes]))
    for top in reversed(tops):
        planes = greens._rescaled(greens._product(top, planes))
    return [p[0] for p in planes]


def test_compose_pieces_together_as_each_alone():
    # _compose on several pieces, and on each alone, gives each piece's
    # products bit for bit as the stack-by-stack reference: odd and even
    # lengths, pieces of equal length, one column or many, one energy or
    # several.
    rng = np.random.default_rng(31)
    for lengths in ([2], [3, 2], [5, 5, 2], [2494, 3, 64, 17, 1024], [7, 7, 7]):
        for energies in (1, 3):
            z = rng.normal(size=energies) + 1e-3j
            pieces = [(rng.uniform(0.5, 1.5, (n, m)), rng.normal(size=(n, m)))
                      for n, m in zip(lengths, rng.integers(1, 5, len(lengths)))]
            for derivative in (False, True):
                together = greens._compose(pieces, z, derivative)
                for (t2, eps), planes in zip(pieces, together, strict=True):
                    (alone,) = greens._compose([(t2, eps)], z, derivative)
                    want = stack_product(-t2[..., None], z - eps[..., None], derivative)
                    assert len(planes) == len(alone) == len(want) == (8 if derivative else 4)
                    for got in (planes, alone):
                        for a, b in zip(got, want):
                            a, b = (np.broadcast_to(x, (t2.shape[1], energies)).astype(complex)
                                    for x in (a, b))
                            assert np.array_equal(bits(a), bits(b))


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
