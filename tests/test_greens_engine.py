"""The level-by-level engine in ``greens`` against the recursion it replaced.

``reference_resolve`` is the dot-by-dot post-order recursion that
evaluated every Green's function before the level schedule existed,
kept verbatim as the reference.  It runs on the energies as a 1-D
array, so in numpy's arithmetic, and the engine must reproduce it bit
for bit for every kind of energy: same values, same signed zeros, same
output shapes.  Chained trees whose schedule stacks single-child levels
are the exception: their stacks run as Möbius products, which round
differently, and must agree within ``CHAIN_RTOL``.  Parameters with a
sample axis must give, bit for bit, what the loop over their samples
that the axis replaces gives.
"""

import multiprocessing
import subprocess
import sys
import threading

import numpy as np
import pytest

from nandtree import (DotParameters, StructureError, build_tree, classify, ensemble, green_tree,
                      green_tree_derivative, green_tree_many, greens, ideal_parameters,
                      sample_disorder, sample_disorder_many)
from nandtree.greens import _BLOCK, _resolve, inertia_count
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, ParamTable, TreeSpec

import reference_walks as walks
from test_tree_bits import _env


def reference_resolve(tree, params: DotParameters, E, derivative: bool = False):
    """Post-order evaluation of G (and optionally dG/dE) at the root."""
    gamma = params.gamma
    ig = 1j * gamma
    epsilon, coupling = walks.as_dict(params.epsilon), walks.as_dict(params.coupling)
    children = walks.children_of(tree)
    g: dict = {}
    dg: dict = {}
    try:
        for node in walks.postorder(tree):
            denom = E + ig - epsilon[node]
            ddenom = 1.0
            for c in children(node):
                t2 = coupling[(node, c)] ** 2
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


def on_flat_array(resolve):
    """``resolve`` run on the energies ``E`` as a 1-D array, its results
    reshaped to the energies' shape."""
    def run(tree, params, E, derivative: bool = False):
        out = resolve(tree, params, np.reshape(E, -1), derivative)
        shape = np.shape(E)
        return tuple(v.reshape(shape) for v in out) if derivative else out.reshape(shape)
    return run


reference_on_array = on_flat_array(reference_resolve)


def assert_same(got, want):
    """Equal bit for bit, with the same shape."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert np.array_equal(got.reshape(-1).view(np.uint64), want.reshape(-1).view(np.uint64))


#: Relative tolerance of results on stacked schedules against the
#: reference, fixed before the products were written: over 10x the worst
#: difference a prototype of them showed on chains and H-fractals
#: (6.5e-11), and far finer than the readout's thresholds on |G(0)|.
CHAIN_RTOL = 1e-9


def assert_close(got, want):
    """Within ``CHAIN_RTOL`` of ``want``, relative to each value, with the
    same shape."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert np.all(np.abs(got - want) <= CHAIN_RTOL * np.abs(want))


def stacked(tree) -> bool:
    """Whether the schedule of ``tree`` has a stacked level."""
    return any(level.nodes.ndim == 2 for level in tree.levels())


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
    """G and dG/dE against the reference: bit for bit, or within
    ``CHAIN_RTOL`` on a stacked schedule."""
    check = assert_close if stacked(tree) else assert_same
    for E in ENERGIES.values():
        check(_resolve(tree, params, E), reference_on_array(tree, params, E))
    for E in (-1.2, *ENERGIES.values()):
        got, want = _resolve(tree, params, E, True), reference_on_array(tree, params, E, True)
        check(got[0], want[0])
        check(got[1], want[1])


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
    assert not stacked(tree)
    for params in parameter_sets(tree, depth):
        assert_engine_matches(tree, params)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 40, 300])
def test_engine_matches_reference_below_chain(k):
    # One chain dot is a plain level; from two on they stack, of even or
    # odd length.
    rng = np.random.default_rng(k)
    chained = chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2})), k)
    assert stacked(chained) == (k > 1)
    for params in parameter_sets(chained, k):
        assert_engine_matches(chained, params)


@pytest.mark.parametrize("depth", range(2, 7))
def test_engine_matches_reference_on_hfractal(depth):
    rng = np.random.default_rng(depth)
    tree = build_tree(depth, rng.integers(0, 2, 2**depth))
    chained = expand_to_tree(build_hfractal(tree), tree)
    assert stacked(chained)
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
        widths = [level.nodes.shape[-1] for level in t.levels()]
        assert max(widths) * 401 > 2 * _BLOCK and widths[-1] * 401 <= _BLOCK
    for params in parameter_sets(tree, 12):
        assert_same(_resolve(tree, params, energies),
                    reference_resolve(tree, params, energies))
    params = ideal_parameters(chained, 10.0, 1e-6)
    assert_close(_resolve(chained, params, energies),
                 reference_resolve(chained, params, energies))


def sample_axis_trees():
    rng = np.random.default_rng(5)
    yield TreeSpec(5, tuple(rng.integers(0, 2, 32)), random_markers(rng, 5))
    yield chain_below(TreeSpec(3, tuple(rng.integers(0, 2, 8)), frozenset({2})), 5)
    tree = build_tree(4, rng.integers(0, 2, 16))
    yield expand_to_tree(build_hfractal(tree), tree)


@pytest.mark.parametrize("block", [_BLOCK, 40, 200, 1000])
def test_sample_axis_matches_per_sample_loop(block, monkeypatch):
    # Small blocks split the wide band into blocks of a few samples, or
    # of a few energies of one sample.
    monkeypatch.setattr(greens, "_BLOCK", block)
    specs = [DisorderSpec(0.1, 0.1, seed) for seed in range(7)]
    for tree in sample_axis_trees():
        ideal = ideal_parameters(tree, 10.0, 1e-3)
        many = sample_disorder_many(tree, ideal, specs)
        rows = [sample_disorder(tree, ideal, spec) for spec in specs]
        for E in (0.37, np.asarray(-0.21), ENERGIES["1-D"], ENERGIES["2-D"]):
            loop = [green_tree_many(tree, p, E) for p in rows]
            assert_same(green_tree_many(tree, many, E), np.stack(loop))
            got = _resolve(tree, many, E, True)
            for k in range(2):
                assert_same(got[k], np.stack([_resolve(tree, p, E, True)[k] for p in rows]))
        counts, g = inertia_count(tree, many, ENERGIES["2-D"])
        loop = [inertia_count(tree, p, ENERGIES["2-D"]) for p in rows]
        assert np.array_equal(counts, np.stack([c for c, _ in loop]))
        assert np.array_equal(g.view(np.uint64), np.stack([r for _, r in loop]).view(np.uint64))


def test_levels_closed_form_matches_breadth_first():
    for depth in range(1, 7):
        tree = TreeSpec(depth, (0,) * 2**depth)
        closed, generic = tree.levels(), walks.levels(tree)
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
        assert reachable == sorted(walks.postorder(tree))


def _without(params, node=None, link=None):
    eps = {k: v for k, v in walks.as_dict(params.epsilon).items() if k != node}
    coup = {k: v for k, v in walks.as_dict(params.coupling).items() if k != link}
    return DotParameters(eps, coup, params.delta, params.gamma)


def test_missing_entries_raise_for_reachable_dots_only():
    tree = TreeSpec(3, (0, 1, 1, 0, 1, 1, 1, 0), frozenset({3}))
    chained = chain_below(tree, 4)
    for t in (tree, chained):
        params = ideal_parameters(t, 10.0, 1e-6)
        # The dropped subtree under the NOT marker at node 3 has no entries.
        assert 7 not in walks.as_dict(params.epsilon)
        assert (3, 7) not in walks.as_dict(params.coupling)
        children = walks.children_of(t)
        inner = next(n for n in walks.postorder(t) if len(children(n)) == 1)
        link = (inner, children(inner)[0])
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
    noisy = DotParameters(params.epsilon,
                          {**extra, **walks.as_dict(params.coupling), (96, 4): 0.7},
                          params.delta, params.gamma)
    assert_engine_matches(tree, noisy)
    moved = {k: v for k, v in walks.as_dict(noisy.coupling).items() if k != (2, 5)}
    with pytest.raises(StructureError, match=r"\(2, 5\)"):
        _resolve(tree, DotParameters(params.epsilon, moved, params.delta, params.gamma), 0.0)
    with pytest.raises(StructureError):
        _resolve(tree, DotParameters(params.epsilon, {}, params.delta, params.gamma), 0.0)


@pytest.mark.parametrize("tree", sample_axis_trees(), ids=["marked", "chained", "hfractal"])
def test_scalar_energies_round_as_arrays(tree, monkeypatch):
    ideal = ideal_parameters(tree, 10.0, 1e-3)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.1, 0.1, seed) for seed in range(8)])
    rows = [many.sample(s) for s in range(8)]
    energies = [float(E) for E in np.linspace(-1.5, 1.5, 7)]

    def evaluate():
        values = [f(tree, p, E) for p in rows for E in energies
                  for f in (green_tree, green_tree_derivative)]
        forms = [classify(tree, p) for p in rows]
        assert all(type(v) is complex for v in values)
        return np.array(values), np.array([(f.alpha, f.beta) for f in forms])

    scalar = evaluate()
    # From here on every Python-float energy goes in as a 1-element array.
    monkeypatch.setattr(greens, "_resolve", on_flat_array(greens._resolve))
    for got, want in zip(scalar, evaluate()):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The merged schedule: dots whose subtrees carry bit-identical parameters
# are evaluated once (``compile_tree``).

def merged_widths(tree, params):
    """Classes and summed multiplicities per level, deepest first."""
    steps = greens.compile_tree(tree, params).steps
    widths = [s.eps.shape[-2] for s in steps]
    return widths, [w if s.mult is None else int(s.mult.sum()) for w, s in zip(widths, steps)]


def test_ideal_worst_case_tree_merges_to_three_dots_per_level():
    tree = greens.worst_case_tree(16)
    classes, dots = merged_widths(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert max(classes) <= 3 and len(classes) == 17
    assert dots == [level.nodes.shape[-1] for level in tree.levels()]


def test_disordered_tree_keeps_every_width():
    rng = np.random.default_rng(4)
    for tree in (build_tree(9, rng.integers(0, 2, 512)),
                 chain_below(TreeSpec(4, tuple(rng.integers(0, 2, 16)), frozenset({3})), 6)):
        ideal = ideal_parameters(tree, 10.0, 1e-6)
        widths = [level.nodes.shape[-1] for level in tree.levels()]
        noisy = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, 4))
        assert merged_widths(tree, noisy) == (widths, widths)
        classes, dots = merged_widths(tree, ideal)
        assert dots == widths and sum(classes) < sum(widths)


def test_hash_collisions_fall_back_to_exact_rows(monkeypatch):
    # Every level is hashed, not packed, and every row hashes alike: each
    # level is grouped by its full key rows.
    monkeypatch.setattr(greens, "_packed", lambda keys: None)
    monkeypatch.setattr(greens, "_row_hash", lambda keys: np.zeros(len(keys), np.uint64))
    rng = np.random.default_rng(6)
    tree = TreeSpec(6, tuple(rng.integers(0, 2, 64)), random_markers(rng, 6))
    hfractal = expand_to_tree(build_hfractal(build_tree(3, rng.integers(0, 2, 8))),
                              build_tree(3, rng.integers(0, 2, 8)))
    for t in (tree, greens.worst_case_tree(6), hfractal):
        for params in parameter_sets(t, 6):
            assert_engine_matches(t, params)
    worst = greens.worst_case_tree(6)
    ideal = ideal_parameters(worst, 10.0, 1e-6)
    assert max(merged_widths(worst, ideal)[0]) <= 3
    E = np.linspace(-2.0, 2.0, 41)
    counts, g = inertia_count(worst, ideal, E)
    monkeypatch.undo()
    want = inertia_count(worst, ideal, E)
    assert np.array_equal(counts, want[0]) and np.array_equal(g.view(np.uint64),
                                                             want[1].view(np.uint64))


def test_signed_zero_detunings_stay_two_classes():
    tree = build_tree(2, (0, 0, 0, 0))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    eps = walks.as_dict(ideal.epsilon)
    eps[5] = -0.0
    params = DotParameters(eps, ideal.coupling, ideal.delta, ideal.gamma)
    classes, dots = merged_widths(tree, params)
    assert classes == [2, 2, 1] and dots == [4, 2, 1]
    assert merged_widths(tree, ideal)[0] == [1, 1, 1]
    assert_engine_matches(tree, params)
    # At E = -0.0 the two leaves' denominators differ in the sign of their real part.
    E = np.array([-0.0, 0.0])
    assert_same(_resolve(tree, params, E), reference_on_array(tree, params, E))


@pytest.mark.parametrize("node, link, classes", [
    (5, None, [2, 2, 1]),  # a leaf
    (3, None, [1, 2, 1]),  # a dot with children
    (None, (2, 4), [1, 2, 1]),  # a coupling
])
def test_batch_keys_span_every_sample(node, link, classes):
    # Samples 0 and 1 are the ideal uniform tree, whose levels merge to
    # one dot; sample 2 differs in one entry, so the keys that span every
    # sample split its level.  Each sample stays what it gives alone.
    tree = build_tree(2, (0, 0, 0, 0))
    ideal = ideal_parameters(tree, 10.0, 1e-6)
    eps, t = ideal.epsilon, ideal.coupling
    eps_rows = np.stack([eps.values_array] * 3)
    t_rows = np.stack([t.values_array] * 3)
    eps_rows[2] += 0.1 * (eps.keys_array == node)
    t_rows[2] += 0.1 * (t.keys_array == link).all(axis=1)
    many = DotParameters(ParamTable(eps.keys_array, eps_rows),
                         ParamTable(t.keys_array, t_rows), ideal.delta, ideal.gamma)
    assert merged_widths(tree, many)[0] == classes
    assert merged_widths(tree, many.sample(0))[0] == [1, 1, 1]
    E = ENERGIES["1-D"]
    rows = [DotParameters(dict(zip(eps.keys_array.tolist(), eps_rows[s])),
                          dict(zip(map(tuple, t.keys_array.tolist()), t_rows[s])),
                          ideal.delta, ideal.gamma) for s in range(3)]
    assert_same(green_tree_many(tree, many, E),
                np.stack([green_tree_many(tree, p, E) for p in rows]))
    compiled = greens.compile_tree(tree, many)
    for s in range(3):
        row = compiled.sample(s)
        assert_same(green_tree_many(row, row.params, E), green_tree_many(tree, rows[s], E))
        assert_same(green_tree_many(row, row.params, E), reference_on_array(tree, rows[s], E))


def test_compiled_tree_belongs_to_its_parameters():
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal, noisy = parameter_sets(tree, 3)
    compiled = greens.compile_tree(tree, ideal)
    assert greens.compile_tree(compiled, ideal) is compiled
    assert_same(green_tree_many(compiled, ideal, ENERGIES["2-D"]),
                green_tree_many(tree, ideal, ENERGIES["2-D"]))
    with pytest.raises(StructureError, match="compiled from"):
        green_tree_many(compiled, noisy, 0.0)


def test_scalar_evaluators_reject_a_sample_axis():
    tree = build_tree(2, (1, 0, 1, 1))
    many = sample_disorder_many(tree, ideal_parameters(tree, 10.0, 1e-6),
                                [DisorderSpec(0.1, 0.1, seed) for seed in range(3)])
    for call in (lambda: green_tree(tree, many, 0.1), lambda: green_tree_derivative(tree, many, 0.1),
                 lambda: classify(tree, many)):
        with pytest.raises(StructureError, match="green_tree_many or DotParameters.sample"):
            call()
    assert type(green_tree(tree, many.sample(2), 0.1)) is complex


class RaggedTree(walks.WalkedTree):
    """A random tree whose leaves sit at many depths."""

    def __init__(self, rng, depth):
        self.root, self.kids, frontier, n = 1, {}, [1], 1
        for level in range(depth):
            nxt = []
            for node in frontier:
                count = 2 if level < 2 else int(rng.choice([0, 1, 2], p=[0.3, 0.2, 0.5]))
                self.kids[node] = tuple(range(n + 1, n + 1 + count))
                n += count
                nxt += self.kids[node]
            frontier = nxt
        self.deepest = frontier

    def children(self, node):
        return self.kids.get(node, ())


def ragged_parameters(tree, rng, distinct_bottom):
    """Detunings and couplings from a few values, so subtrees repeat; with
    ``distinct_bottom`` the deepest dots get distinct detunings, so
    classing stops there and only childless dots above are classed."""
    nodes = walks.postorder(tree)
    eps = {n: float(rng.choice([0.0, 0.5, -0.5])) for n in nodes}
    if distinct_bottom:
        eps.update({n: 0.1 * i + 1.0 for i, n in enumerate(tree.deepest)})
    coupling = {link: float(rng.choice([1.0, 0.8])) for link in walks.links(tree)}
    return DotParameters(eps, coupling, 10.0, 1e-3)


@pytest.mark.parametrize("seed", range(6))
def test_ragged_trees_match_reference(seed):
    rng = np.random.default_rng(seed)
    tree = RaggedTree(rng, 7)
    for distinct_bottom in (False, True):
        params = ragged_parameters(tree, rng, distinct_bottom)
        classes, dots = merged_widths(tree, params)
        assert dots == [level.nodes.shape[-1] for level in tree.levels()]
        assert sum(classes) < sum(dots)
        assert_engine_matches(tree, params)


# Parts at once: a call whose widest level needs more than one block runs
# its energies in parts, on as many threads, each part bit for bit what
# one thread gives.

def assert_identical(got, want):
    """Equal bit for bit, with the same dtypes and shapes, over tuples too."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_parts_match_one_worker(tree, monkeypatch):
    """G, G with dG/dE, and the inertia count of ``tree``, ideal and for a
    batch over many energies, and for a batch at one energy, with 2, 3
    and 5 workers as with 1.  The sizes are picked so that the widest
    level of the batch over many energies needs more than ``_PARTS``
    blocks, and so runs in as many parts as workers, at most ``_PARTS``;
    the batch at one energy needs more than two blocks, and runs whole."""
    block = greens._BLOCK
    widest = max(level.nodes.shape[-1] for level in tree.levels())
    energies = np.linspace(-1.5, 1.5, max(7, block // widest + 1))
    ideal = ideal_parameters(tree, 10.0, 1e-3)
    specs = [DisorderSpec(0.1, 0.1, seed) for seed in range(max(5, 2 * block // widest + 1))]
    many = sample_disorder_many(tree, ideal, specs)
    few = sample_disorder_many(tree, ideal, specs[:5])
    # (parameters, energies, most parts or None if not checked)
    cases = [(ideal, energies, None), (few, energies, greens._PARTS), (many, np.float64(0.3), 1)]
    parts, at_once = [], greens._at_once
    monkeypatch.setattr(greens, "_at_once", lambda jobs: parts.append(len(jobs)) or at_once(jobs))
    results = {}
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(greens, "_cpus", lambda: workers)
        results[workers] = []
        for params, E, most in cases:
            for call in (lambda: green_tree_many(tree, params, E),
                         lambda: _resolve(tree, params, E, True),
                         lambda: inertia_count(tree, params, E)):
                parts.clear()
                results[workers].append(call())
                if most is not None:
                    assert parts == ([min(workers, most)] if min(workers, most) > 1 else [])
    for workers in (2, 3, 5):
        for got, want in zip(results[workers], results[1]):
            assert_identical(got, want)


def split_trees():
    rng = np.random.default_rng(25)
    bits_in = tuple(rng.integers(0, 2, 64))
    yield build_tree(6, bits_in)
    yield TreeSpec(6, bits_in, random_markers(rng, 6))
    yield greens.worst_case_tree(6)


@pytest.mark.parametrize("block", [_BLOCK, 7, 300])
@pytest.mark.parametrize("tree", split_trees(), ids=["plain", "marked", "worst-case"])
def test_parts_match_one_worker(tree, block, monkeypatch):
    monkeypatch.setattr(greens, "_BLOCK", block)
    assert_parts_match_one_worker(tree, monkeypatch)


@pytest.mark.parametrize("context", ["copied", "empty"])
def test_parts_keep_the_callers_error_state(context, monkeypatch):
    # The zero energy is in the last part, on a thread of the call: its
    # zero pivot divides by zero under inertia_count's errstate there too,
    # also where the thread does not see the caller's context, as numpy
    # before 2.0 keeps the error state per thread.
    if context == "empty":
        monkeypatch.setattr(greens.contextvars, "copy_context", greens.contextvars.Context)
    monkeypatch.setattr(greens, "_cpus", lambda: 2)
    tree = build_tree(10, [0] * 1024)
    counts, g = inertia_count(tree, ideal_parameters(tree, 10.0, 1e-6),
                              np.r_[np.linspace(-3.0, 3.0, 200_000), 0.0])
    assert counts[-1] == 682 and g[-1] == -np.inf


def test_a_failing_part_raises_its_own_error(monkeypatch):
    # Of three parts, the last two fail: every part ends before the call
    # returns, and the second part's error is raised.
    monkeypatch.setattr(greens, "_cpus", lambda: 3)
    blocks, ended = greens._blocks, []

    def failing(steps, base, *args):
        try:
            if base[0] > -1.0:
                raise ValueError(f"part from {base[0]:.1f}")
            return blocks(steps, base, *args)
        finally:
            ended.append(base[0])

    monkeypatch.setattr(greens, "_blocks", failing)
    tree = build_tree(8, [0] * 256)
    with pytest.raises(ValueError, match=r"^part from -0\.7$"):
        inertia_count(tree, ideal_parameters(tree, 10.0, 1e-6), np.linspace(-2.0, 2.0, 300_000))
    assert len(ended) == 3


def test_concurrent_callers_get_their_own_parts(monkeypatch):
    # Four callers, each cut into three parts, with thread switches every
    # few microseconds: each caller's parts fill only its own result.
    monkeypatch.setattr(greens, "_BLOCK", 300)
    tree = build_tree(6, np.random.default_rng(4).integers(0, 2, 64))
    ideal = ideal_parameters(tree, 10.0, 1e-3)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.1, 0.1, seed) for seed in range(4)])
    calls = [lambda k=k: inertia_count(tree, many.sample(k), np.linspace(-2.0, 2.0, 101 + k))
             for k in range(4)]
    want = [call() for call in calls]
    monkeypatch.setattr(greens, "_cpus", lambda: 3)
    got = [None] * len(calls)

    def run(k):
        for _ in range(20):
            got[k] = calls[k]()
            assert_identical(got[k], want[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for g, w in zip(got, want):
        assert_identical(g, w)


def _shift_scaling_in_child(pipe, parts):
    parts.clear()
    pipe.send((ensemble.shift_scaling((8,), 0.01, 20, 7), len(parts)))


def test_parts_leave_no_threads_behind_for_a_fork(monkeypatch):
    # A split call's threads end with it, so a process may fork after it
    # (newer Pythons warn, an error here, of forking with threads alive),
    # and the forked child splits its own calls.
    monkeypatch.setattr(greens, "_cpus", lambda: 2)
    parts, at_once = [], greens._at_once
    monkeypatch.setattr(greens, "_at_once", lambda jobs: parts.append(len(jobs)) or at_once(jobs))
    threads = threading.active_count()
    want = ensemble.shift_scaling((8,), 0.01, 20, 7)
    assert parts and threading.active_count() == threads
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_shift_scaling_in_child, args=(send, parts))
    child.start()
    try:
        assert receive.poll(60), "the child gave no result"
        assert receive.recv() == (want, len(parts))
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert not multiprocessing.active_children()


def test_import_starts_no_pool():
    code = "import sys, nandtree; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_env())
    assert out.stdout.split() == ["False"]
