"""Compilation in ``greens``: the parameter columns gathered by position,
and identical subtrees merged only where a call evaluates more than one
energy.

Each fast path is checked bit for bit against the slow path it stands
for: the rows of the position gather against the binary search of
``ParamTable.find``, unmerged one-energy results against the merged
schedule, classes from exactly packed keys against classes from hashed
keys, directly addressed classes against sorted ones, the squares of
unit couplings against ``np.float_power``, and the merged inertia count
against the unmerged one.  Tables that are not a tree's own, with extra
keys or only looking like its own (``RootedTree.has_codes``), are read
onto its own codes by ``ParamTable.find`` (``greens._own``) and then
gathered by position too.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from nandtree import (DotParameters, StructureError, build_tree, classify, green_tree,
                      green_tree_derivative, green_tree_many, greens, ideal_parameters,
                      sample_disorder, sample_disorder_many)
from nandtree.greens import CompiledTree, _resolve, compile_tree, inertia_count
from nandtree.layout import ChainedTree, build_hfractal, chain_below, expand_to_tree
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
        # Each level's rows are where the binary search finds its dots and links.
        dots, links = (np.arange(len(table)) for table in (params.epsilon, params.coupling))
        found = walks.located(tree, params, schedule)
        for level, (rows, up) in zip(walks.expanded(schedule), found, strict=True):
            assert np.array_equal(dots[level.rows], rows)
            assert (level.up is None) == (up is None)
            if up is not None:
                assert np.array_equal(links[level.up], up)
        own = greens._own(tree, params)
        assert_same_steps(greens._columns(params, schedule), greens._columns(own, schedule))
        assert_same_steps(greens._gather(tree, params), greens._columns(own, schedule))


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
    # Tables with keys the tree lacks are read onto its own codes, to the
    # same tables bit for bit, and then give the same results.
    tree = TREES[name]
    located = own_calls(monkeypatch)
    E = np.linspace(-1.0, 1.0, 7)
    for params in parameter_cases(tree)[:2]:
        extended = with_extra(params, dot, link)
        own = greens._own(tree, extended)
        for got, want in zip((own.epsilon, own.coupling), (params.epsilon, params.coupling)):
            assert_same(got.keys_array, want.keys_array)
            assert_same(got.values_array, want.values_array)
            assert_same(got.codes, want.codes)
        located.clear()
        assert_same(green_tree_many(tree, extended, E), green_tree_many(tree, params, E))
        assert_same(green_tree(tree, extended, 0.1), green_tree(tree, params, 0.1))
        assert len(located) == 2
        located.clear()
        green_tree(tree, params, 0.1)
        assert not located


def own_calls(monkeypatch) -> list:
    """One entry per reading of the tables onto a tree's codes (``greens._own``)."""
    located, own = [], greens._own
    monkeypatch.setattr(greens, "_own",
                        lambda tree, params: located.append(1) or own(tree, params))
    return located


def test_treespec_compile_builds_no_table_codes(monkeypatch):
    # Whether the tables are the tree's own is decided in closed form
    # (TreeSpec.has_codes), without building the tree's table codes.
    calls, table_codes = [], TreeSpec.table_codes
    monkeypatch.setattr(TreeSpec, "table_codes", lambda self: calls.append(1) or table_codes(self))
    located = own_calls(monkeypatch)
    for tree in (TREES["unmarked"], TREES["marked"]):
        for params in parameter_cases(tree):
            calls.clear()
            compile_tree(tree, params)
            classify(tree, params.sample(0) if params.sample_shape else params)
            green_tree_many(tree, params, np.linspace(-1.0, 1.0, 5))
            inertia_count(tree, params, [0.1, 0.2])
            assert not calls and not located


def foreign_tables():
    """Tables that are not a tree's own but look alike: with its ids and
    link count but one wrong (parent, child) link, and from another tree of
    the same number of dots (NOT markers on different nodes, inverters
    numbered otherwise)."""
    rng = np.random.default_rng(21)
    bits = tuple(rng.integers(0, 2, 32))
    tree = build_tree(5, bits)
    ideal = ideal_parameters(tree, 10.0, 1e-3)
    coupling = walks.as_dict(ideal.coupling)
    del coupling[(2, 4)]
    coupling[(3, 4)] = 1.0
    yield "one wrong link", tree, DotParameters(ideal.epsilon, coupling, 10.0, 1e-3), (2, 4)
    marked, other = TreeSpec(5, bits, frozenset({4})), TreeSpec(5, bits, frozenset({5}))
    assert len(marked.links()[0]) == len(other.links()[0])
    yield "other markers", marked, ideal_parameters(other, 10.0, 1e-3), 11
    hf = expand_to_tree(build_hfractal(tree), tree)
    renumbered = ChainedTree(tree, hf.length, hf.chains[::-1].copy())
    yield "other inverter ids", hf, ideal_parameters(renumbered, 10.0, 1e-3), (1, 64)


FOREIGN = {name: case for name, *case in foreign_tables()}


@pytest.mark.parametrize("name", FOREIGN)
def test_foreign_tables_take_the_lookup(name, monkeypatch):
    # Tables that only look like the tree's own are read onto its codes by
    # binary search, as any table that is not its own, which names the
    # lowest dot id missing, or else (the same ids all there) the lowest link.
    tree, params, missing = FOREIGN[name]
    assert not tree.has_codes(params.epsilon.codes, params.coupling.codes)
    located = own_calls(monkeypatch)
    message = f"parameters missing entry for {missing!r}"
    for E in (0.0, np.linspace(-1.0, 1.0, 3)):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            green_tree_many(tree, params, E)
    assert len(located) == 2


@pytest.mark.parametrize("name", TREES)
def test_missing_entries_name_the_same_key(name):
    # The lookup names the lowest missing dot id, or else the lowest
    # missing link.
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
    # Each call on fresh parameters (a copy keeps no kT > 0 results); a
    # kT > 0 call repeated on the same parameters merges nothing more.
    for call, kept in (
            (lambda p: green_tree_many(tree, p, np.linspace(-1.0, 1.0, 5)), False),
            (lambda p: inertia_count(tree, p, [0.1, 0.2]), False),
            (lambda p: transmission_curve(tree, p, cold, np.linspace(-1.0, 1.0, 5)), False),
            (lambda p: conductance(tree, p, warm), True), (lambda p: readout(tree, p, warm), True),
            (lambda p: sweep(tree, p, cold, "E", [-0.2, 0.0, 0.2]), False),
            (lambda p: sweep(tree, p, warm, "E", [-0.2, 0.0, 0.2]), True),
            (lambda p: sweep(tree, p, warm, "eps0", [-0.2, 0.0, 0.2]), True)):
        params = replace(ideal)
        for want in (once, 0 if kept else once):
            classings.clear()
            call(params)
            assert len(classings) == want


def same_partition(classes, want) -> bool:
    """Whether two labellings of the same rows group them alike."""
    pairs = set(zip(np.ravel(classes).tolist(), np.ravel(want).tolist()))
    return len(pairs) == len(set(np.ravel(classes).tolist())) == len(set(np.ravel(want).tolist()))


def key_cases():
    """Key matrices as a level's classing meets them, and whether their
    rows pack into exact codes."""
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 3, (600, 6))
    keys[:, 2] = -7  # a constant column
    yield "small ranges", keys, True
    yield "all constant", np.full((300, 5), -3), True
    # One column left is its own code, whatever its range.
    bits = rng.choice(np.array([0.0, -0.5, 1.0]).view(np.int64), 400)
    yield "one varying column", np.column_stack([np.full(400, 9), bits]), True
    # Ranges of 2**31 and 2**31 - 1 multiply to just below 2**62; two
    # of 2**31 reach it and go to the hash.
    ends = rng.integers(0, 2, (500, 2))
    yield "just below 2**62", ends * [2**31 - 1, 2**31 - 2], True
    yield "at 2**62", ends * (2**31 - 1), False
    wide = rng.integers(0, 3, (500, 3)) << 40
    yield "beyond 2**62", wide, False
    yield "float bits", rng.choice(np.array([0.25, -0.25, 1.0]), (500, 4)).view(np.int64), False


KEYS = {name: (keys, packs) for name, keys, packs in key_cases()}


@pytest.mark.parametrize("name", KEYS)
def test_packed_classes_match_hashed_classes(name):
    keys, packs = KEYS[name]
    codes = greens._packed(keys)
    assert (codes is not None) == packs
    exact = np.unique(keys, axis=0, return_inverse=True)[1]
    if packs:
        assert same_partition(codes, exact)
    rep, classes = greens._classes(keys)
    assert np.array_equal(keys[rep[classes]], keys)
    assert same_partition(classes, exact)
    assert same_partition(classes, np.unique(greens._row_hash(keys), return_inverse=True)[1])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("columns", [1, 2])
def test_addressed_classes_match_sorted_classes(offset, columns, monkeypatch):
    # Codes whose range is at most the number of rows (offset 0 and -1)
    # address a table of classes directly; a range one wider is sorted.
    # Both number the classes in the order of the codes, as the argsort
    # did, and every row matches its representative.
    rng = np.random.default_rng(30 + offset)
    n, radix = 600, 12
    span = n + offset
    codes = rng.integers(0, span, n)
    codes[:3] = 0, span - 1, radix - 1  # the whole range, and every digit
    # One column is its own code; two pack mixed-radix to the same codes.
    keys = np.column_stack([np.full(n, -3), codes] if columns == 1 else
                           [codes // radix, np.full(n, 8), codes % radix])
    assert np.array_equal(greens._packed(keys), codes)
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    rep, classes = greens._classes(keys)
    monkeypatch.undo()
    assert len(sorts) == (span > n)
    assert np.array_equal(classes, np.unique(codes, return_inverse=True)[1])
    assert np.array_equal(keys[rep[classes]], keys)
    assert len(rep) == len(np.unique(codes))


@pytest.mark.parametrize("name", TREES)
def test_packed_merge_matches_hashed_merge(name, monkeypatch):
    # The same classes level by level, and the same bits, whether the keys
    # pack or are all hashed.
    tree = TREES[name]
    E = np.linspace(-1.0, 1.0, 7)
    for params in parameter_cases(tree):
        packed = compile_tree(tree, params)
        with monkeypatch.context() as m:
            m.setattr(greens, "_packed", lambda keys: None)
            hashed = compile_tree(tree, params)
            assert_same(green_tree_many(hashed, params, E), green_tree_many(tree, params, E))
        assert [s.eps.shape for s in packed.steps] == [s.eps.shape for s in hashed.steps]
        for a, b in zip(packed.steps, hashed.steps):
            assert (a.mult is None) == (b.mult is None)
            if a.mult is not None:
                assert sorted(a.mult.tolist()) == sorted(b.mult.tolist())
        assert_same(green_tree_many(packed, params, E), green_tree_many(tree, params, E))


@pytest.mark.parametrize("shape", [(5000,), (3, 5000)])
def test_unit_couplings_skip_pow_bit_for_bit(shape):
    rng = np.random.default_rng(12)
    t = np.abs(rng.normal(1.0, 0.3, shape)) + 1e-3
    t[rng.random(shape) < 0.4] = 1.0
    t.flat[:5] = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.1, 1.0]
    got = greens._squares(t)
    assert_same(got, np.float_power(t, 2))
    assert_same(got.ravel()[:50], np.array([x ** 2 for x in t.ravel()[:50].tolist()]))


@pytest.mark.parametrize("name", TREES)
def test_merged_inertia_count_equals_unmerged(name):
    # Many energies merge and weight each class by its multiplicity; one
    # energy at a time runs unmerged.  E = 0 is an eigenvalue of the ideal
    # trees, where zero pivots pair.
    tree = TREES[name]
    E = np.concatenate([[0.0], np.random.default_rng(13).uniform(-3.0, 3.0, 47)])
    for params in parameter_cases(tree):
        counts, g = inertia_count(tree, params, E)
        alone = [inertia_count(tree, params, E[i:i + 1]) for i in range(len(E))]
        assert_same(counts, np.concatenate([c for c, _ in alone], axis=-1))
        assert_same(g, np.concatenate([r for _, r in alone], axis=-1))
