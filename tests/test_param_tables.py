"""Array-backed parameter tables against the dict builders they replaced.

``reference_ideal_parameters`` and ``reference_sample_disorder`` are the
dict-based builders from before :class:`~nandtree.model.ParamTable`,
kept verbatim (returning their dicts) as the reference.  The array
builders must give the same keys, in ascending order, and the same
values bit for bit, and draw the same random numbers.
``single_sample_disorder`` is the one-spec array sampler from before the
sample axis, kept as the reference for
:func:`~nandtree.model.sample_disorder_many` with its reorder into
ascending key order spelled out, as tables no longer keep another order.
"""

import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest

from nandtree import (ProbeSpec, QuadratureError, StructureError, build_tree, classify,
                      conductance, ideal_parameters, sample_disorder, sample_disorder_many,
                      transport)
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree import model
from nandtree.model import (DisorderSpec, DotParameters, ParamTable, RootedTree, TreeSpec,
                            _ascending)

import reference_walks as walks
from test_layout_reference import assert_same_arrays


def reference_ideal_parameters(tree, delta, gamma):
    order = walks.postorder(tree)
    children = walks.children_of(tree)
    eps = dict.fromkeys(order, 0.0)
    coup = {}
    for node in order:
        kids = children(node)
        for c in kids:
            coup[node, c] = 1.0
        if not kids:
            eps[node] = walks.leaf_sign(tree, node) * walks.leaf_bit(tree, node) * delta
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
    """The keys of ``want`` in ascending order and the same bits."""
    assert isinstance(table, ParamTable)
    want = dict(sorted(want.items()))
    assert table.keys_array.dtype == np.int64
    assert list(walks.as_dict(table)) == list(want)
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
    assert_same_arrays(walks.by_id(walks.tree_dots(tree)), walks.dots(tree))


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_tables_from_table_codes_match_tables_from_dots(tree):
    # ideal_parameters keys its tables by table_codes(), which come
    # ascending, so no sort is needed; the tables equal those built from
    # the dots in the tree's own order, sorted by ParamTable.
    codes = tree.table_codes()
    assert all(_ascending(c)[1] is None for c in codes)
    ids, parents, signs = walks.tree_dots(tree)
    below = parents >= 0
    want = (ParamTable(ids, signs * 10.0),
            ParamTable(np.stack([parents[below], ids[below]], axis=1), np.ones(len(ids) - 1)))
    params = ideal_parameters(tree, 10.0, 1e-6)
    for got, ref, code in zip((params.epsilon, params.coupling), want, codes, strict=True):
        assert_same_arrays((got.keys_array, got.values_array.view(np.uint64), got.codes),
                           (ref.keys_array, ref.values_array.view(np.uint64), ref.codes))
        assert np.array_equal(got.codes, code)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_table_codes_match_the_sorted_dots(tree):
    # A TreeSpec gives its codes in closed form, with no sort and no check,
    # and a chained tree from its ranks: both equal the codes that the
    # protocol's rule sorts from the dots.
    for got, want in zip(tree.table_codes(), RootedTree.table_codes(tree), strict=True):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_ideal_tables_take_the_codes_as_they_are(tree, monkeypatch):
    # No copy and no repack: the tables' codes are the arrays table_codes()
    # made, and no key is packed into a code.
    made, table_codes = [], type(tree).table_codes
    monkeypatch.setattr(type(tree), "table_codes",
                        lambda self: made.append(table_codes(self)) or made[-1])
    packed, codes = [], model._codes
    monkeypatch.setattr(model, "_codes", lambda keys: packed.append(1) or codes(keys))
    params = ideal_parameters(tree, 10.0, 1e-6)
    (ids, links), = made
    assert params.epsilon.codes is ids and params.coupling.codes is links
    assert params.epsilon.keys_array is ids and not packed
    assert not any(a.flags.writeable for t in (params.epsilon, params.coupling)
                   for a in (t.keys_array, t.values_array, t.codes))


@pytest.mark.parametrize("codes, message", [
    ([1, 3, 2], "strictly ascending"), ([1, 2, 2], "strictly ascending"),
    ([-1, 2], r"node ids must lie in \[0, 2\*\*31\)"),
    ([2, 2**31], r"node ids must lie in \[0, 2\*\*31\)")])
def test_tables_from_codes_check_them(codes, message):
    codes = np.array(codes)
    with pytest.raises(StructureError, match=message):
        ParamTable._of_codes(codes, np.zeros(len(codes)), codes)


@pytest.mark.parametrize("tree", [t for t in TREES if isinstance(t, TreeSpec)][::3],
                         ids=lambda t: f"depth{t.depth}-{len(t.not_markers)}")
def test_leaf_values_of_any_id(tree):
    # Ids outside the heap indices, negative or past 2N, read 0 as
    # internal dots and inverters do.
    n = tree.n_leaves
    ids = np.array([-2**40, -1, 0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n, 2 * n + 7, 2**40])
    want = [walks.leaf_sign(tree, i) * walks.leaf_bit(tree, i) if n <= i < 2 * n else 0
            for i in ids.tolist()]
    got = tree.leaf_values(ids)
    assert got.dtype == np.int64 and got.tolist() == want
    every = np.arange(2 * n)
    assert tree.leaf_values(every).tolist() == \
        [walks.leaf_sign(tree, i) * walks.leaf_bit(tree, i) if i >= n else 0 for i in range(2 * n)]


def near_codes(tree: TreeSpec):
    """Strictly ascending codes close to ``tree``'s own: its own, with one
    link moved to another parent, with a dot or a link dropped or added,
    and those of trees of the same depth and other NOT markers."""
    ids, links = tree.table_codes()
    n = 2 * tree.n_leaves
    yield ids, links
    moved = links.copy()
    moved[-1] += 1 << 32  # the last child under the next parent
    yield ids, moved
    yield ids[:-1], links
    yield ids, links[:-1]
    yield np.union1d(ids, [n]), links
    yield np.union1d(ids, [0]), np.union1d(links, [1 << 32])
    for markers in (frozenset(), frozenset({1}), frozenset({n // 2 - 1}), tree.not_markers | {2}):
        if all(m < n // 2 for m in markers):
            yield TreeSpec(tree.depth, tree.input_bits, markers).table_codes()


@pytest.mark.parametrize("tree", [t for t in TREES if isinstance(t, TreeSpec)],
                         ids=lambda t: f"depth{t.depth}-{len(t.not_markers)}")
def test_closed_form_ownership_matches_the_comparison(tree):
    # TreeSpec.has_codes decides without building table_codes(); it agrees
    # with the comparison against them that it replaces.
    cases = list(near_codes(tree))
    for ids, links in cases:
        assert tree.has_codes(ids, links) == RootedTree.has_codes(tree, ids, links)
    assert tree.has_codes(*cases[0])
    assert sum(tree.has_codes(*c) for c in cases) == sum(
        np.array_equal(a, cases[0][0]) and np.array_equal(b, cases[0][1]) for a, b in cases)


def test_closed_form_dots_match_traversal():
    for depth in range(1, 12):
        tree = build_tree(depth, [1, 0] * 2 ** (depth - 1))
        ids, parents, signs = walks.tree_dots(tree)
        assert ids.tolist() == list(range(1, 2 ** (depth + 1)))
        assert_same_arrays((ids, parents, signs), walks.dots(tree))


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


def ascending(table: ParamTable) -> np.ndarray:
    """Positions of the keys in ascending order, links lexicographically."""
    return np.lexsort(table.keys_array.reshape(len(table), -1).T[::-1])


def single_sample_disorder(tree, ideal: DotParameters, spec: DisorderSpec) -> DotParameters:
    rng = np.random.default_rng(spec.seed)
    links, nodes = ascending(ideal.coupling), ascending(ideal.epsilon)
    tvals = rng.normal(spec.mean_t, spec.sigma_t, size=len(links))
    evals = rng.normal(0.0, spec.sigma_eps, size=len(nodes))
    floor = spec.coupling_floor
    coup = ParamTable(ideal.coupling.keys_array[links], np.where(tvals < floor, floor, tvals))
    eps = ParamTable(ideal.epsilon.keys_array[nodes], ideal.epsilon.values_array[nodes] + evals)
    return replace(ideal, epsilon=eps, coupling=coup)


def assert_same_sample(got: DotParameters, want: DotParameters):
    """Same keys in the same order, same values bit for bit."""
    assert got.sample_shape == () and (got.delta, got.gamma) == (want.delta, want.gamma)
    for a, b in ((got.epsilon, want.epsilon), (got.coupling, want.coupling)):
        assert a.keys_array.tolist() == b.keys_array.tolist()
        assert np.array_equal(a.values_array.view(np.uint64), b.values_array.view(np.uint64))


SPECS = [DisorderSpec(0.05, 0.02, 0), DisorderSpec(0.9, 0.3, 7, coupling_floor=0.4),
         DisorderSpec(0.2, 0.1, 2**40 + 3, mean_t=1.5), DisorderSpec(0.0, 0.0, 5)]


@pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
def test_sample_disorder_many_rows_match_single_sampler(tree):
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, SPECS)
    assert many.sample_shape == (len(SPECS),)
    assert many.epsilon.values_array.shape == (len(SPECS), len(ideal.epsilon))
    for i, spec in enumerate(SPECS):
        want = single_sample_disorder(tree, ideal, spec)
        assert_same_sample(many.sample(i), want)
        assert_same_sample(sample_disorder(tree, ideal, spec), want)


def test_sample_disorder_many_clamps_each_row_at_its_floor():
    tree = build_tree(6, [0, 1] * 32)
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    specs = [DisorderSpec(0.9, 0.1, seed, coupling_floor=floor)
             for seed, floor in enumerate((0.4, 0.1, 0.6, 0.4))]
    many = sample_disorder_many(tree, ideal, specs)
    for i, spec in enumerate(specs):
        assert_same_sample(many.sample(i), single_sample_disorder(tree, ideal, spec))
        row = many.coupling.values_array[i]
        assert np.sum(row == spec.coupling_floor) > 5 and row.min() == spec.coupling_floor


def test_tables_with_a_sample_axis():
    tree = TreeSpec(2, (1, 0, 1, 1), frozenset({3}))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.1, 0.1, s) for s in range(3)])
    eps = many.epsilon
    assert len(eps) == 6 and eps.keys_array.tolist() == ideal.epsilon.keys_array.tolist()
    column = eps.values_array[:, eps.keys_array.tolist().index(4)].tolist()
    assert eps.lookup([4]).shape == (3, 1) and eps.lookup([4])[:, 0].tolist() == column
    assert many.coupling.lookup([[1, 2], [2, 4]]).shape == (3, 2)
    assert [eps.row(i).lookup([4]).tolist() for i in range(3)] == [[v] for v in column]
    with pytest.raises(StructureError, match="sample axis"):
        DotParameters(eps, ideal.coupling, 10.0, 1e-6)
    coup = many.coupling.values_array.copy()
    coup[1, many.coupling.keys_array.tolist().index([2, 5])] = -1.0
    with pytest.raises(StructureError, match=r"\(2, 5\)"):
        DotParameters(eps, ParamTable(many.coupling.keys_array, coup), 10.0, 1e-6)
    # The lowest bad key is named, even when a higher one is bad in an earlier sample.
    coup[2, many.coupling.keys_array.tolist().index([1, 2])] = 0.0
    with pytest.raises(StructureError, match=r"\(1, 2\) must be finite and positive, got 0\.0"):
        DotParameters(eps, ParamTable(many.coupling.keys_array, coup), 10.0, 1e-6)
    with pytest.raises(StructureError):
        ParamTable([1, 2], np.zeros((2, 3)))


def test_table_lookups():
    tree = TreeSpec(2, (1, 0, 1, 1), frozenset({3}))
    params = ideal_parameters(tree, 10.0, 1e-6)
    eps, coup = reference_ideal_parameters(tree, 10.0, 1e-6)
    assert len(params.epsilon) == len(eps) == 6 and len(params.coupling) == 5
    assert walks.as_dict(params.epsilon) == eps and walks.as_dict(params.coupling) == coup
    assert params.epsilon.lookup(np.array([4, 3])).tolist() == [10.0, 0.0]
    for table, key in [(params.epsilon, 7), (params.epsilon, -1), (params.epsilon, 2**40),
                       (params.coupling, (3, 7)), (params.coupling, (0, 2**32 + 2))]:
        with pytest.raises(KeyError):
            table.lookup([key])
    # (0, 2**32 + 2) packs into the same int64 code as (1, 2).
    with pytest.raises(KeyError, match=r"\(0, 4294967298\)"):
        params.coupling.lookup([[1, 2], [0, 2**32 + 2]])
    assert params.coupling.lookup([[1, 3], [1, 2]]).tolist() == [1.0, 1.0]


def test_lookups_of_no_keys_are_empty():
    # No keys find nothing, shaped like the values with 0 on the key axis:
    # on node and link tables, with and without a sample axis, and empty.
    tree = TreeSpec(2, (1, 0, 1, 1), frozenset({3}))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.1, 0.1, s) for s in range(3)])
    empty = DotParameters({}, {}, 10.0, 1e-6)
    for params, shape in ((ideal, (0,)), (many, (3, 0)), (empty, (0,))):
        for table, keys in ((params.epsilon, []), (params.epsilon, np.zeros(0, np.int64)),
                            (params.coupling, []), (params.coupling, np.zeros((0, 2), np.int64))):
            assert table.find(keys).shape == (0,)
            assert table.lookup(keys).shape == shape


def assert_same_table(got: ParamTable, want: ParamTable):
    """Same key and value arrays bit for bit, same lookups and iteration."""
    assert got.keys_array.dtype == want.keys_array.dtype
    assert np.array_equal(got.keys_array, want.keys_array)
    assert got.values_array.shape == want.values_array.shape
    assert np.array_equal(got.values_array.view(np.uint64), want.values_array.view(np.uint64))
    keys = want.keys_array[::-1]
    assert np.array_equal(got.lookup(keys).view(np.uint64), want.lookup(keys).view(np.uint64))


@pytest.mark.parametrize("samples", [(), (3,)])
def test_tables_from_shuffled_entries_match_the_sorted_build(samples):
    rng = np.random.default_rng(15)
    nodes = np.sort(rng.choice(1000, 40, replace=False))
    links = np.stack([nodes[:-1] // 2, nodes[1:]], axis=1)
    links = links[np.lexsort(links.T[::-1])]
    for keys in (nodes, links):
        values = rng.normal(size=samples + (len(keys),))
        values[..., ::7] = -0.0
        shuffle = rng.permutation(len(keys))
        want = ParamTable(keys, values)
        assert_same_table(want, ParamTable(keys.tolist(), values.tolist()))
        assert_same_table(ParamTable(keys[shuffle], values[..., shuffle]), want)
        assert want.keys_array.tolist() == keys.tolist()


def test_tables_from_dicts_follow_ascending_keys():
    eps = {3: 0.5, 1: -0.25, 2: 0.0}
    coup = {(1, 3): 0.5, (1, 2): 2.0}
    params = DotParameters(eps, coup, 10.0, 1e-6)
    assert params.epsilon.keys_array.tolist() == [1, 2, 3]
    assert params.coupling.keys_array.tolist() == [[1, 2], [1, 3]]
    assert_table(params.epsilon, eps)
    assert_table(params.coupling, coup)
    assert DotParameters(params.epsilon, params.coupling, 10.0, 1e-6) == params
    empty = DotParameters({}, {}, 10.0, 1e-6)
    assert len(empty.epsilon) == len(empty.coupling) == 0
    with pytest.raises(KeyError):
        empty.coupling.lookup([(1, 2)])


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
    # Duplicates among keys given in ascending order and among shuffled ones.
    for keys in ([1, 1], [1, 2, 2, 3], [3, 1, 3], [[1, 2], [1, 2], [1, 3]],
                 [[1, 2], [3, 4], [1, 2]]):
        with pytest.raises(StructureError, match="distinct"):
            ParamTable(keys, np.ones(len(keys)))
        with pytest.raises(StructureError, match="distinct"):
            ParamTable(keys, np.ones((2, len(keys))))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_nonfinite_or_nonpositive_coupling_is_rejected(bad):
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    coup = {**walks.as_dict(params.coupling), (3, 6): bad, (1, 2): bad}
    coup = dict(reversed(coup.items()))  # (3, 6) before (1, 2)
    # The bad entry with the lowest key is named, whatever the mapping's order.
    with pytest.raises(StructureError, match=r"\(1, 2\)"):
        DotParameters(params.epsilon, coup, 10.0, 1e-6)


def test_nan_detuning_is_rejected():
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    eps = dict(reversed({**walks.as_dict(params.epsilon), 6: math.nan, 3: math.nan}.items()))
    with pytest.raises(StructureError, match="node 3 "):
        DotParameters(eps, params.coupling, 10.0, 1e-6)
    # A fully detuned dot stays allowed.
    far = DotParameters({**walks.as_dict(params.epsilon), 7: math.inf}, params.coupling,
                        10.0, 1e-6)
    assert classify(tree, far).bit in (0, 1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
def test_ideal_parameters_reject_bad_delta(delta):
    with pytest.raises(StructureError):
        ideal_parameters(build_tree(1, (0, 1)), delta, 1e-6)


def test_quadrature_error_reports_panels_and_tolerance(monkeypatch):
    # Without its resonances the graded mesh misses peaks far narrower than kT.
    monkeypatch.setattr(transport, "_resonances", lambda *args: np.zeros(0))
    tree = build_tree(1, (1, 0))
    params = ideal_parameters(tree, 10.0, 1e-5)
    with pytest.raises(QuadratureError) as info:
        conductance(tree, params, ProbeSpec(1e-5, 1e-5, temperature=0.1))
    err = info.value
    assert err.panels > 0 and err.achieved > 1e-8
    assert f"{err.panels} graded panels" in str(err) and f"{err.achieved:.2e}" in str(err)
    assert pickle.loads(pickle.dumps(err)).panels == err.panels


def test_table_arrays_are_read_only():
    tree = TreeSpec(3, (1, 0, 1, 1, 0, 0, 1, 0), frozenset({3}))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.1, 0.1, s) for s in range(2)])
    for params in (ideal, sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 1)), many,
                   many.sample(1)):
        for table in (params.epsilon, params.coupling):
            for array in (table.keys_array, table.values_array, table.codes):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
