"""Acceptance suite: one test per headline criterion.

Each test is self-contained and deterministic (fixed seeds).  A pass or
fail line per criterion is printed by the hook in conftest.py.
"""

import time

import numpy as np
import pytest

from nandtree import (
    DisorderSpec,
    ProbeSpec,
    assemble,
    build_hfractal,
    build_tree,
    chain_below,
    classify,
    conductance,
    eval_nand,
    eval_randomized,
    feasibility,
    green_direct,
    green_tree,
    hybrid_time,
    ideal_chain_parameters,
    ideal_parameters,
    inverter_counts,
    inverter_map,
    oracle_expectation,
    readout,
    run_ensemble,
    sample_disorder,
    worst_case_2d,
    worst_case_profile,
    worst_case_tree,
)
from nandtree.classical import CRITICAL_P1
from nandtree.ensemble import trial_seed

DELTA = 10.0


def test_criterion_01_oracle_equivalence():
    # 200 random disordered trees, 20 energies each: the recursive
    # Green's function matches the dense-resolvent oracle to 1e-10
    # relative, in under 10 seconds.
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        depth = int(rng.integers(1, 7))
        tree = build_tree(depth, rng.integers(0, 2, size=2**depth))
        gamma = float(10.0 ** rng.uniform(-6, -1))
        ideal = ideal_parameters(tree, DELTA, gamma)
        spec = DisorderSpec(0.1, 0.1, int(rng.integers(2**63)))
        params = sample_disorder(tree, ideal, spec)
        H = assemble(tree, params)
        for E in rng.uniform(-3, 3, size=20):
            direct = green_direct(H, float(E), gamma, tree.root)
            recursive = green_tree(tree, params, float(E))
            worst = max(worst, abs(recursive - direct) / abs(direct))
    assert worst <= 1e-10
    assert time.time() - t0 < 10.0


def test_criterion_02_logical_forms():
    # Depth-1 trees: extracted (alpha, beta) match the closed forms
    # (1/2, 1/2) for 00 and (1, 1) for 01 and 11, within 5%.
    cases = ((("0", "0"), 0.5, 1), (("0", "1"), 1.0, 1), (("1", "1"), 1.0, 0))
    for bits, expected, bit in cases:
        tree = build_tree(1, bits)
        form = classify(tree, ideal_parameters(tree, DELTA, 1e-4))
        assert form.bit == bit
        assert form.alpha == pytest.approx(expected, rel=0.05)
        assert form.beta == pytest.approx(expected, rel=0.05)


def test_criterion_03_exhaustive_logic():
    # All inputs for depths 1..4 (up to 2**16 patterns): the readout bit
    # equals the classical NAND value, with no failures and no ambiguous
    # flags.  Root Green's functions are built by composing per-depth
    # pattern tables (same-depth subtrees share the alternating leaf
    # sign pattern), then spot-checked against the public readout API.
    gamma = 1e-6
    probe = ProbeSpec()
    ig = 1j * gamma
    g = np.empty(4, complex)
    v = np.empty(4, np.int64)
    for p in range(4):
        b0, b1 = p & 1, (p >> 1) & 1
        g[p] = 1.0 / (ig - 1.0 / (ig - b0 * DELTA) - 1.0 / (ig + b1 * DELTA))
        v[p] = 1 - (b0 & b1)
    tables = {1: (g, v)}
    for d in range(2, 5):
        gs, vs = tables[d - 1]
        gg = 1.0 / (ig - gs[None, :] - gs[:, None])  # [high half, low half]
        vv = 1 - vs[None, :] * vs[:, None]
        tables[d] = (gg.ravel(), vv.ravel())

    big_gamma = 0.5 * (probe.gamma_l + probe.gamma_r)
    for d in range(1, 5):
        gs, vs = tables[d]
        trans = probe.gamma_l * probe.gamma_r / np.abs(
            1j * big_gamma - probe.t1**2 * gs
        ) ** 2
        bits = (trans >= 0.5).astype(np.int64)
        assert int(np.sum(bits != vs)) == 0
        assert int(np.sum((trans >= 0.25) & (trans <= 0.75))) == 0

    rng = np.random.default_rng(3)
    gs, vs = tables[4]
    for _ in range(50):
        p = int(rng.integers(0, 2**16))
        tree = build_tree(4, [(p >> i) & 1 for i in range(16)])
        result = readout(tree, ideal_parameters(tree, DELTA, gamma), probe)
        assert result.bit == vs[p] == eval_nand(tree)
        assert not result.ambiguous


def test_criterion_04_worst_case_scaling():
    # Worst-case trees up to N = 128: alpha roughly doubles every two
    # levels (ratio in [1.8, 2.2] for k >= 6), and the recursion stays
    # finite at N = 128.
    alphas = {k: alpha for k, alpha, _ in worst_case_profile(10, DELTA, 1e-6)}
    for k in (6, 8):
        ratio = alphas[k + 2] / alphas[k]
        assert 1.8 <= ratio <= 2.2
    tree = worst_case_tree(7)
    assert tree.n_leaves == 128
    value = green_tree(tree, ideal_parameters(tree, DELTA, 1e-6), 0.0)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_criterion_05_disorder_fidelity_contrast():
    # N = 32, Gamma = 0.1 t, Delta = 10 t: success rate over 200 seeds
    # stays >= 90% at 0.03 t disorder and is strictly lower at 0.1 t.
    probe = ProbeSpec()
    rates = {}
    for sigma in (0.03, 0.1):
        total = 0.0
        for bits in ([0] * 32, [1] * 32):
            tree = build_tree(5, bits)
            result = run_ensemble(
                tree,
                DisorderSpec(sigma, sigma, 0),
                probe,
                trials=200,
                base_seed=11,
                gamma=sigma,
            )
            total += result.success_rate
        rates[sigma] = total / 2.0
    assert rates[0.03] >= 0.9
    assert rates[0.1] < rates[0.03]


def test_criterion_06_sub_temperature_readout():
    # Thermal broadening 20x the lead width still leaves a >= 10x
    # conductance contrast between the two logical outputs.
    probe = ProbeSpec(gamma_l=0.0005, gamma_r=0.0005, temperature=0.02)
    one = build_tree(5, [0] * 32)
    zero = build_tree(5, [1] * 32)
    g1 = conductance(one, ideal_parameters(one, DELTA, 1e-6), probe)
    g0 = conductance(zero, ideal_parameters(zero, DELTA, 1e-6), probe)
    assert g1 / g0 >= 10.0


def test_criterion_07_disorder_scaling_collapse():
    # Success-rate curves for N in {8, 32, 128}, plotted against the
    # scaled disorder x = sigma_eps * sqrt(N), collapse within 0.15.
    probe = ProbeSpec()
    xs = (0.2, 0.4, 0.6, 0.8)
    trials = 300
    curves = {}
    for depth in (3, 5, 7):
        n = 2**depth
        rates = []
        for xi, x in enumerate(xs):
            sigma = x / np.sqrt(n)
            hits = 0
            for i in range(trials):
                seed = trial_seed(depth * 7919 + xi, i)
                bits = np.random.default_rng(seed).integers(0, 2, size=n)
                tree = build_tree(depth, bits)
                ideal = ideal_parameters(tree, DELTA, 1e-6)
                spec = DisorderSpec(sigma_t=0.0, sigma_eps=sigma, seed=seed)
                params = sample_disorder(tree, ideal, spec)
                result = readout(tree, params, probe)
                if not result.ambiguous and result.bit == eval_nand(tree):
                    hits += 1
            rates.append(hits / trials)
        curves[n] = rates
    for i in range(len(xs)):
        column = [curves[n][i] for n in (8, 32, 128)]
        assert max(column) - min(column) <= 0.15


def test_criterion_08_inverter_algebra():
    # Explicit 2d-inverter chains reproduce the (d + alpha, d + beta)
    # map within 1% for d up to 10; one inverter is a NOT for every
    # input on trees with N <= 8.
    for bits in ((1, 1), (0, 0)):
        tree = build_tree(1, bits)
        base = classify(tree, ideal_parameters(tree, DELTA, 1e-6))
        for d in range(1, 11):
            chained = chain_below(tree, 2 * d)
            form = classify(chained, ideal_chain_parameters(chained, DELTA, 1e-6))
            expected_a, expected_b = inverter_map(base.alpha, base.beta, d)
            assert form.bit == base.bit
            assert form.alpha == pytest.approx(expected_a, rel=0.01)
            assert form.beta == pytest.approx(expected_b, rel=0.01)
    for depth in (1, 2, 3):
        for code in range(2 ** 2**depth):
            bits = [(code >> i) & 1 for i in range(2**depth)]
            tree = build_tree(depth, bits)
            chained = chain_below(tree, 1)
            form = classify(chained, ideal_chain_parameters(chained, DELTA, 1e-6))
            assert form.bit == 1 - eval_nand(tree)


def test_criterion_09_hfractal_geometry():
    # Published per-level inverter counts, bounded area growth, and the
    # 2D worst-case alpha staying under the n * 2**(n/2) envelope.
    assert inverter_counts(7) == (0, 2, 4, 10, 20, 38, 76)
    for depth in range(2, 9):
        tree = build_tree(depth, [0] * 2**depth)
        area = build_hfractal(tree).bounding_box_area()
        assert area <= 15 * 3**depth
    for n in range(4, 21, 2):
        alpha, beta, bound = worst_case_2d(n)
        assert alpha == beta
        assert alpha < bound


def test_criterion_10_feasibility_numbers():
    # GaAs-scale constants: 8192 dots, under 0.02 mm^2, evaluation time
    # in the 50-70 ns window, and the exact hybrid runtime exponent.
    report = feasibility(0.1, 100.0, 0.1, 1.0, 1.0, 100.0)
    assert report.n_max == 2**13
    assert report.area_mm2 <= 0.02
    assert 50.0 <= report.eval_time_ns <= 70.0
    for k in range(21):
        hybrid, _ = hybrid_time(k)
        assert hybrid == 2.0 ** (6.5 + 0.753 * k)


def test_criterion_11_classical_baseline():
    # The randomized short-circuit evaluator always agrees with the
    # deterministic result, and its fitted query exponent at N <= 4096
    # sits in [0.65, 0.85].
    depths = (8, 10, 12)
    means = []
    for depth in depths:
        n = 2**depth
        total = 0
        trials = 400
        for s in range(trials):
            seed = trial_seed(31, depth * 1000 + s)
            rng = np.random.default_rng(seed)
            bits = (rng.random(n) < CRITICAL_P1).astype(int)
            tree = build_tree(depth, bits)
            stats = eval_randomized(tree, seed=seed)
            assert stats.result == eval_nand(tree)
            total += stats.queries
        means.append(total / trials)
    ns = [np.log(2.0**d) for d in depths]
    exponent = np.polyfit(ns, np.log(means), 1)[0]
    assert 0.65 <= exponent <= 0.85


def test_criterion_12_oracle_expectation():
    # Bernoulli-input expectation matches the two-level polynomial
    # p0 p1 + p2 p3 - p0 p1 p2 p3 to 1e-12, and the all-1/2 input gives
    # exactly 7/16.
    tree = build_tree(2, (0, 0, 0, 0))
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = rng.random(4)
        poly = p[0] * p[1] + p[2] * p[3] - p[0] * p[1] * p[2] * p[3]
        assert abs(oracle_expectation(tree, p) - poly) <= 1e-12
    assert oracle_expectation(tree, [0.5] * 4) == 7.0 / 16.0
