import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nandtree import (
    TreeSpec,
    build_tree,
    classify,
    eval_nand,
    eval_randomized,
    ideal_parameters,
    oracle_expectation,
)
from nandtree.classical import CRITICAL_P1, QueryStats, _nand, _with_bits
from nandtree.model import StructureError

import reference_walks as walks


def test_eval_nand_truth_table():
    assert eval_nand(build_tree(1, (1, 1))) == 0
    assert eval_nand(build_tree(1, (0, 0))) == 1
    assert eval_nand(build_tree(1, (0, 1))) == 1
    assert eval_nand(build_tree(1, (1, 0))) == 1


def test_eval_nand_1011():
    assert eval_nand(build_tree(2, (1, 0, 1, 1))) == 1


def test_eval_nand_override_bits():
    tree = build_tree(2, (0, 0, 0, 0))
    # NAND(NAND(1,1), NAND(1,1)) = NAND(0, 0) = 1
    assert eval_nand(tree, (1, 1, 1, 1)) == 1
    # NAND(NAND(0,1), NAND(0,0)) = NAND(1, 1) = 0
    assert eval_nand(tree, (0, 1, 0, 0)) == 0
    with pytest.raises(StructureError):
        eval_nand(tree, (1, 1, 1))


def test_eval_nand_with_not_marker():
    # NOT at the root: result is the inversion of the left subtree only.
    for left_bits in ((0, 0), (0, 1), (1, 1)):
        marked = TreeSpec(
            depth=2, input_bits=left_bits + (0, 0), not_markers=frozenset({1})
        )
        left_value = eval_nand(build_tree(1, left_bits))
        assert eval_nand(marked) == 1 - left_value


def test_eval_nand_matches_physical_classification():
    tree = build_tree(3, "10110010")
    form = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert form.bit == eval_nand(tree)


def test_eval_randomized_short_circuit_counts():
    for seed in range(20):
        stats = eval_randomized(build_tree(1, (0, 0)), seed=seed)
        assert stats.result == 1 and stats.queries == 1
        stats = eval_randomized(build_tree(1, (1, 1)), seed=seed)
        assert stats.result == 0 and stats.queries == 2


def test_eval_randomized_deterministic_given_seed():
    tree = build_tree(4, np.random.default_rng(0).integers(0, 2, size=16))
    a = eval_randomized(tree, seed=123)
    b = eval_randomized(tree, seed=123)
    assert a == b


def recursive_randomized(tree: TreeSpec, bits=None, seed: int = 0) -> QueryStats:
    """``eval_randomized`` as it was before its child-order bits were drawn
    in one call, kept verbatim as the reference."""
    tree = _with_bits(tree, bits)
    rng = np.random.default_rng(seed)
    queries = 0

    def visit(node: int) -> int:
        nonlocal queries
        kids = tree.children(node)
        if not kids:
            queries += 1
            return tree.leaf_bit(node)
        if len(kids) == 1:
            return 1 - visit(kids[0])
        first, second = kids if rng.integers(2) == 0 else (kids[1], kids[0])
        if visit(first) == 0:
            return 1
        return 1 - visit(second)

    return QueryStats(result=visit(tree.root), queries=queries, seed=seed)


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("depth", range(1, 13))
def test_eval_randomized_matches_recursive_reference(depth, marked):
    rng = np.random.default_rng(depth + 100 * marked)
    n = 2**depth
    for _ in range(4):
        markers = rng.integers(1, n, size=max(1, n // 8)).tolist() if marked else []
        bits = (rng.random(n) < rng.uniform(0.3, 0.8)).astype(int)
        tree = TreeSpec(depth, tuple(bits), frozenset(markers))
        seed = int(rng.integers(2**63))
        assert eval_randomized(tree, seed=seed) == recursive_randomized(tree, seed=seed)
        bits = rng.integers(0, 2, n)
        assert eval_randomized(tree, bits, seed) == recursive_randomized(tree, bits, seed)


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_eval_randomized_agrees_with_deterministic(depth, seed, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=2**depth, max_size=2**depth))
    tree = build_tree(depth, bits)
    stats = eval_randomized(tree, seed=seed)
    assert stats.result == eval_nand(tree)
    assert 1 <= stats.queries <= tree.n_leaves


def test_query_exponent_band():
    # Mean query count on inputs at the critical leaf probability grows
    # as N**c with c between the trivial 0.5 and exhaustive 1.0 bounds;
    # the asymptotic exponent is ~0.753.
    depths = (6, 8, 10)
    means = []
    for depth in depths:
        n = 2**depth
        total = 0
        trials = 300
        for s in range(trials):
            rng = np.random.default_rng(10_000 * depth + s)
            bits = (rng.random(n) < CRITICAL_P1).astype(int)
            total += eval_randomized(build_tree(depth, bits), seed=s).queries
        means.append(total / trials)
    slope = np.polyfit([np.log(2.0**d) for d in depths], np.log(means), 1)[0]
    assert 0.6 <= slope <= 0.9


def test_oracle_expectation_two_level_cases():
    tree = build_tree(2, (0, 0, 0, 0))
    assert oracle_expectation(tree, (1.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert oracle_expectation(tree, (0.0, 0.0, 0.0, 0.0)) == float(eval_nand(tree, (0, 0, 0, 0)))
    assert oracle_expectation(tree, (0.5, 0.5, 0.5, 0.5)) == pytest.approx(7.0 / 16.0)


def test_oracle_expectation_matches_polynomial():
    tree = build_tree(2, (0, 0, 0, 0))
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = rng.random(4)
        poly = p[0] * p[1] + p[2] * p[3] - p[0] * p[1] * p[2] * p[3]
        assert abs(oracle_expectation(tree, p) - poly) <= 1e-12


def test_oracle_expectation_deterministic_probs():
    for depth in (1, 2, 3):
        n = 2**depth
        tree = build_tree(depth, [0] * n)
        for code in range(2**n):
            bits = [(code >> i) & 1 for i in range(n)]
            expected = float(eval_nand(tree, bits))
            assert oracle_expectation(tree, [float(b) for b in bits]) == expected


def test_oracle_expectation_validation():
    tree = build_tree(2, (0, 0, 0, 0))
    with pytest.raises(StructureError):
        oracle_expectation(tree, (0.5, 0.5))
    with pytest.raises(StructureError):
        oracle_expectation(tree, (0.5, 0.5, 0.5, 1.5))
    with pytest.raises(StructureError):
        oracle_expectation(tree, (0.5, 0.5, 0.5, float("nan")))


def _brute_expectation(tree, probs):
    """Sum over all 2**N assignments of Pr(assignment) * NAND(assignment)."""
    n = tree.n_leaves
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weight = np.prod(np.where(bits == 1, probs, 1.0 - probs), axis=1)
    return float(np.sum(weight * _nand(tree, bits.T)))


def test_oracle_expectation_matches_brute_force_with_not_markers():
    rng = np.random.default_rng(31)
    for _ in range(60):
        depth = int(rng.integers(1, 5))
        n = 2**depth
        markers = rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
        tree = TreeSpec(depth, (0,) * n, frozenset(markers.tolist()))
        probs = rng.random(n)
        want = _brute_expectation(tree, probs)
        assert oracle_expectation(tree, probs) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_oracle_expectation_scales_to_4096_leaves():
    rng = np.random.default_rng(5)
    for markers in (frozenset(), frozenset({1, 6, 100, 2047})):
        bits = rng.integers(0, 2, 4096)
        tree = TreeSpec(12, tuple(bits.tolist()), markers)
        assert oracle_expectation(tree, bits.astype(float)) == float(eval_nand(tree))


def _reference_nand(tree, leaves):
    """The post-order dict recursion that evaluated the NAND before the level schedule."""
    value = {}
    for node in walks.postorder(tree):
        kids = tree.children(node)
        if not kids:
            value[node] = leaves[tree.leaf_index(node)]
        elif len(kids) == 1:
            value[node] = 1 - value[kids[0]]
        else:
            value[node] = 1 - value[kids[0]] * value[kids[1]]
    return value[tree.root]


def test_level_nand_matches_postorder_recursion():
    rng = np.random.default_rng(12)
    for _ in range(200):
        depth = int(rng.integers(1, 11))
        n = 2**depth
        markers = rng.choice(np.arange(1, n), size=int(rng.integers(0, min(n - 1, 6) + 1)),
                             replace=False)
        tree = TreeSpec(depth, tuple(rng.integers(0, 2, n).tolist()), frozenset(markers.tolist()))
        got = eval_nand(tree)
        assert type(got) is int and got == _reference_nand(tree, tree.input_bits)
    for markers in (frozenset(), frozenset({1}), frozenset({2, 3})):
        tree = TreeSpec(3, (0,) * 8, markers)
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        want = np.array([_reference_nand(tree, row.tolist()) for row in bits])
        assert np.array_equal(_nand(tree, bits.T), want)


def test_eval_randomized_rejects_a_negative_seed():
    with pytest.raises(StructureError, match="seed must be nonnegative, got -1"):
        eval_randomized(build_tree(2, (1, 0, 1, 1)), seed=-1)
