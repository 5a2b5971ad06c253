import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nandtree import (
    DotParameters,
    StructureError,
    build_tree,
    classify,
    green_tree,
    green_tree_derivative,
    green_tree_many,
    ideal_parameters,
    sample_disorder,
    worst_case_profile,
    worst_case_tree,
)
from nandtree.classical import eval_nand
from nandtree.greens import inertia_count
from nandtree.model import DisorderSpec

import reference_walks as walks


def depth_one_closed_form(params, E):
    """1/(E + i gamma - eps_1 - sum_c t_c^2 G_c) with G_c = 1/(E + i gamma - eps_c),
    and the leaves' G_c."""
    z = E + 1j * params.gamma
    eps, coupling = walks.as_dict(params.epsilon), walks.as_dict(params.coupling)
    leaves = [1.0 / (z - eps[c]) for c in (2, 3)]
    sigma = sum(coupling[(1, c)] ** 2 * g for c, g in zip((2, 3), leaves))
    return 1.0 / (z - eps[1] - sigma), leaves


def test_green_tree_depth_one_closed_form():
    rng = np.random.default_rng(3)
    for bits in ((0, 0), (0, 1), (1, 1)):
        tree = build_tree(1, bits)
        for gamma in (0.0, 1e-3):
            ideal = ideal_parameters(tree, 10.0, gamma)
            params = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, int(rng.integers(100))))
            for E in (-0.7, 0.0, 0.01, 1.3):
                want, _ = depth_one_closed_form(params, E)
                assert green_tree(tree, params, E) == pytest.approx(want, rel=1e-12)


def test_green_tree_retarded_sign():
    rng = np.random.default_rng(4)
    for depth in (1, 2, 3):
        tree = build_tree(depth, rng.integers(0, 2, 2**depth))
        ideal = ideal_parameters(tree, 10.0, 1e-4)
        params = sample_disorder(tree, ideal, DisorderSpec(0.1, 0.1, depth))
        for E in (-1.0, 0.0, 0.3, 2.0):
            assert green_tree(tree, params, E).imag <= 0.0


def test_green_tree_double_zero_input():
    # Two zero-detuned leaves: G = 1/(E - 2/E) at the gamma floor,
    # the unapproximated version of the leading form -E/2.
    tree = build_tree(1, (0, 0))
    params = ideal_parameters(tree, 10.0, 0.0)
    g = green_tree(tree, params, 0.01)
    assert g == pytest.approx(1.0 / (0.01 - 2.0 / 0.01), rel=1e-9)
    assert g == pytest.approx(-0.0050003, rel=1e-4)


def test_green_tree_mixed_input():
    # One detuned leaf: close to -E with an O(1/Delta) correction.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 0.0)
    E = 0.01
    g = green_tree(tree, params, E)
    exact = 1.0 / (E - 1.0 / E - 1.0 / (E + 10.0))
    assert g == pytest.approx(exact, rel=1e-9)
    assert abs(g - (-E)) <= 0.1 * E


def test_green_tree_double_one_is_pole():
    tree = build_tree(1, (1, 1))
    params = ideal_parameters(tree, 10.0, 1e-3)
    assert abs(green_tree(tree, params, 0.0)) >= 100.0


def test_green_tree_many_matches_scalar():
    tree = build_tree(3, "10110010")
    params = ideal_parameters(tree, 10.0, 1e-4)
    energies = np.linspace(-2, 2, 9)
    vec = green_tree_many(tree, params, energies)
    for E, g in zip(energies, vec):
        assert g == pytest.approx(green_tree(tree, params, float(E)), rel=1e-12)
    # repeated vectorized evaluation is bit-identical
    assert np.array_equal(vec, green_tree_many(tree, params, energies))


def test_green_tree_missing_parameters():
    tree = build_tree(1, (0, 0))
    params = ideal_parameters(tree, 10.0, 1e-6)
    broken = DotParameters(
        epsilon={1: 0.0, 2: 0.0}, coupling=params.coupling, delta=10.0, gamma=1e-6
    )
    with pytest.raises(StructureError):
        green_tree(tree, broken, 0.0)


def test_derivative_leaf_form():
    # dG/dE of a depth-1 tree is -G^2 (1 + sum_c t_c^2 G_c^2), the leaves
    # having dG_c/dE = -G_c^2.
    tree = build_tree(1, (0, 1))
    params = sample_disorder(tree, ideal_parameters(tree, 10.0, 1e-3), DisorderSpec(0.1, 0.1, 2))
    for E in (-0.4, 0.0, 0.2):
        g, leaves = depth_one_closed_form(params, E)
        coupling = walks.as_dict(params.coupling)
        want = -g * g * (1 + sum(coupling[(1, c)] ** 2 * gc * gc
                                 for c, gc in zip((2, 3), leaves)))
        assert green_tree_derivative(tree, params, E) == pytest.approx(want, rel=1e-10)


def test_derivative_double_zero_slope():
    tree = build_tree(1, (0, 0))
    params = ideal_parameters(tree, 10.0, 1e-6)
    assert green_tree_derivative(tree, params, 0.0).real == pytest.approx(-0.5, rel=1e-4)


def test_derivative_matches_finite_differences():
    # gamma >= 1e-3 keeps poles at least 1e-3 off the real axis, where
    # central differences with h = 1e-7 are accurate to ~1e-8 relative.
    rng = np.random.default_rng(17)
    h = 1e-7
    for _ in range(100):
        depth = int(rng.integers(1, 6))
        tree = build_tree(depth, rng.integers(0, 2, size=2**depth))
        ideal = ideal_parameters(tree, 10.0, float(10.0 ** rng.uniform(-3, -1)))
        params = sample_disorder(
            tree, ideal, DisorderSpec(0.05, 0.05, seed=int(rng.integers(2**63)))
        )
        E = float(rng.uniform(-1.5, 1.5))
        analytic = green_tree_derivative(tree, params, E)
        fd = (green_tree(tree, params, E + h) - green_tree(tree, params, E - h)) / (2 * h)
        assert abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-12


def test_classify_depth_one_forms():
    cases = {
        (0, 0): (1, 0.5, 0.5),
        (0, 1): (1, 1.0, 1.0),
        (1, 1): (0, 1.0, 1.0),
    }
    for bits, (bit, alpha, beta) in cases.items():
        tree = build_tree(1, bits)
        form = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
        assert form.bit == bit
        assert form.alpha == pytest.approx(alpha, rel=0.05)
        assert form.beta == pytest.approx(beta, rel=0.05)
        assert not form.ambiguous


def test_classify_flags_ambiguous_magnitude():
    # Hand-built parameters driving |G(0)| to ~1: left leaf at eps = 1
    # contributes +1 to the inverse, right leaf far detuned contributes ~0.
    tree = build_tree(1, (0, 0))
    params = DotParameters(
        epsilon={1: 0.0, 2: 1.0, 3: 1e9},
        coupling={(1, 2): 1.0, (1, 3): 1.0},
        delta=10.0,
        gamma=1e-6,
    )
    form = classify(tree, params)
    assert form.ambiguous


def test_nand_composition_map():
    # Two "1"-type subtrees through one node give a "0"-type output with
    # alpha_out = 1 + t_l**2 alpha_l + t_r**2 alpha_r at leading order.
    rng = np.random.default_rng(5)
    gamma = 1e-6
    E = 1e-4
    for _ in range(50):
        al, ar, bl, br = rng.uniform(0.5, 4.0, size=4)
        gl = -(al * E + 1j * gamma * bl)
        gr = -(ar * E + 1j * gamma * br)
        inv_out = E + 1j * gamma - gl - gr
        alpha_out = inv_out.real / E
        assert alpha_out == pytest.approx(1.0 + al + ar, rel=0.01)


def test_nand_composition_on_physical_subtrees():
    # Root of (1,0,1,0): both depth-1 children classify "1"; the root
    # must classify "0" with the composed slope.
    sub = build_tree(1, (1, 0))
    child = classify(sub, ideal_parameters(sub, 10.0, 1e-6))
    assert child.bit == 1
    tree = build_tree(2, (1, 0, 1, 0))
    root = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert root.bit == 0
    assert root.alpha == pytest.approx(1.0 + 2.0 * child.alpha, rel=0.01)


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(1, 4), data=st.data())
def test_classify_matches_classical_property(depth, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=2**depth, max_size=2**depth))
    tree = build_tree(depth, bits)
    form = classify(tree, ideal_parameters(tree, 10.0, 1e-6))
    assert form.bit == eval_nand(tree)


def test_worst_case_tree_block():
    tree = worst_case_tree(2)
    assert tree.input_bits == (1, 0, 1, 1)
    assert eval_nand(tree) == 1
    for depth in range(1, 8):
        assert eval_nand(worst_case_tree(depth)) == 1


def test_worst_case_profile_ratios():
    profile = worst_case_profile(10, 10.0, 1e-6)
    assert [k for k, _, _ in profile] == [2, 4, 6, 8, 10]
    alphas = {k: a for k, a, _ in profile}
    for k in (6, 8):
        assert 1.8 <= alphas[k + 2] / alphas[k] <= 2.2


def test_worst_case_profile_deep_ratios():
    # Past the old depth-14 cap: the ratios settle at 2 (about 2.008 and 2.003).
    alphas = {k: a for k, a, _ in worst_case_profile(18, 10.0, 1e-6)}
    for k in (14, 16):
        assert 1.8 <= alphas[k + 2] / alphas[k] <= 2.2


def test_worst_case_profile_limits():
    with pytest.raises(StructureError):
        worst_case_profile(22, 10.0, 1e-6)
    with pytest.raises(StructureError):
        worst_case_tree(0)


def test_deep_structure_iterative_traversal():
    # A 3000-dot chain is far past the default Python call-stack limit;
    # the iterative post-order evaluation must handle it.
    from nandtree.layout import chain_below, ideal_chain_parameters

    chained = chain_below(build_tree(1, (0, 0)), 3000)
    params = ideal_chain_parameters(chained, 10.0, 1e-6)
    g = green_tree(chained, params, 0.0)
    assert np.isfinite(g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_energies_raise(bad):
    # Each evaluator names the first energy that is not finite, in the
    # order of the flattened energies.
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    message = f"energies must be finite, got {bad}$"
    for call in (lambda: green_tree(tree, params, bad),
                 lambda: green_tree_derivative(tree, params, bad),
                 lambda: green_tree_many(tree, params, [[0.0, bad], [math.nan, 0.5]]),
                 lambda: inertia_count(tree, params, [0.0, bad, -math.inf])):
        with pytest.raises(StructureError, match=message):
            call()
