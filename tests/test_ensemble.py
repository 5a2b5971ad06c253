"""Disorder ensembles, and their batched evaluation against the per-trial
loops it replaced.

``per_trial_ensemble`` and ``per_trial_shift_scaling`` are the trial
loops of ``run_ensemble`` and ``shift_scaling`` from before the sample
axis, kept verbatim except that the first also records each trial's
readout.  The batched functions must give the same rates, conductances
and shifts bit for bit, and raise the same trial's quadrature error.
"""

from dataclasses import replace

import numpy as np
import pytest

from nandtree import (EnsembleResult, ProbeSpec, QuadratureError, build_tree, ensemble,
                      run_ensemble, shift_scaling, transport)
from nandtree.classical import eval_nand
from nandtree.ensemble import SHIFT_GRID_HALFWIDTH, SHIFT_GRID_POINTS, trial_seed
from nandtree.greens import worst_case_tree
from nandtree.model import DisorderSpec, StructureError, ideal_parameters, sample_disorder
from nandtree.transport import readout, transmission_curve


def test_trial_seed_mixing():
    seeds = {trial_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(5, 3) == trial_seed(5, 3)
    assert trial_seed(5, 3) != trial_seed(6, 3)


def test_run_ensemble_disorder_free():
    probe = ProbeSpec()
    for depth in (2, 4, 6):
        tree = build_tree(depth, [0] * 2**depth)
        result = run_ensemble(
            tree, DisorderSpec(0.0, 0.0, 0), probe, trials=5, base_seed=1
        )
        assert result.success_rate == 1.0
        assert result.failure_rate == 0.0
        assert result.ambiguous_rate == 0.0


def test_run_ensemble_rates_sum_to_one():
    tree = build_tree(5, [0] * 32)
    result = run_ensemble(
        tree, DisorderSpec(0.1, 0.1, 0), ProbeSpec(), trials=50, base_seed=3
    )
    total = result.success_rate + result.failure_rate + result.ambiguous_rate
    assert total == pytest.approx(1.0, abs=1e-12)
    assert result.trials == 50


def test_run_ensemble_reproducible():
    tree = build_tree(4, [0] * 16)
    spec = DisorderSpec(0.05, 0.05, 0)
    a = run_ensemble(tree, spec, ProbeSpec(), trials=20, base_seed=9)
    b = run_ensemble(tree, spec, ProbeSpec(), trials=20, base_seed=9)
    assert a == b
    assert isinstance(a, EnsembleResult)


def test_run_ensemble_validates_trials():
    tree = build_tree(2, (0, 0, 0, 0))
    with pytest.raises(StructureError):
        run_ensemble(tree, DisorderSpec(0.0, 0.0, 0), ProbeSpec(), trials=0, base_seed=1)


def test_run_ensemble_fidelity_regimes():
    # Clean operation at 0.03t disorder; strictly degraded at 0.1t.
    probe = ProbeSpec()
    rates = {}
    for sigma in (0.03, 0.1):
        total = 0.0
        for bits in ([0] * 32, [1] * 32):
            tree = build_tree(5, bits)
            r = run_ensemble(
                tree,
                DisorderSpec(sigma, sigma, 0),
                probe,
                trials=200,
                base_seed=11,
                gamma=sigma,
            )
            total += r.success_rate
        rates[sigma] = total / 2.0
    assert rates[0.03] >= 0.9
    assert rates[0.1] < rates[0.03]


def test_gamma_degradation_monotone():
    # With zero disorder, pushing gamma past t/sqrt(N) drives the
    # ambiguous fraction up.
    tree = build_tree(4, [0] * 16)
    probe = ProbeSpec()
    spec = DisorderSpec(0.0, 0.0, 0)
    rates = [
        run_ensemble(tree, spec, probe, trials=5, base_seed=1, gamma=g).ambiguous_rate
        for g in (0.05, 0.25, 0.5, 0.9, 1.3)
    ]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]


def test_shift_scaling_no_disorder():
    for n, rms in shift_scaling([3, 4, 5], 0.0, trials=10, base_seed=7):
        resolution = 8.0 / (np.sqrt(n) * (SHIFT_GRID_POINTS - 1))
        assert rms <= resolution


def test_shift_scaling_linear_in_sigma():
    a = shift_scaling([4, 6], 0.01, trials=40, base_seed=7)
    b = shift_scaling([4, 6], 0.02, trials=40, base_seed=7)
    for (_, rms1), (_, rms2) in zip(a, b):
        assert 1.4 <= rms2 / rms1 <= 2.6


def test_shift_scaling_reproducible_and_capped():
    a = shift_scaling([4, 6], 0.01, trials=20, base_seed=5)
    assert a == shift_scaling([4, 6], 0.01, trials=20, base_seed=5)
    with pytest.raises(StructureError):
        shift_scaling([13], 0.01, trials=5, base_seed=1)


@pytest.mark.xfail(
    strict=True,
    reason="the first-order picture predicts rms shift ~ sigma*sqrt(N) from "
    "unit-weight detuning accumulation, but the exact recursion attenuates "
    "contributions on their way to the root (total sensitivity stays O(1)), "
    "so the measured exponent is far below the predicted band",
)
def test_shift_scaling_sqrt_n_band():
    out = shift_scaling([4, 6, 8, 10], 0.01, trials=60, base_seed=5)
    ns = np.array([n for n, _ in out], dtype=float)
    rms = np.array([r for _, r in out])
    exponent = np.polyfit(np.log(ns), np.log(rms), 1)[0]
    assert 0.4 <= exponent <= 0.6
    for (_, r1), (_, r2) in zip(out, out[1:]):
        assert 1.2 <= r2 / r1 <= 1.7  # times 4 in N -> two sqrt(2) steps


def test_shift_scaling_validates_trials():
    for trials in (0, -3):
        with pytest.raises(StructureError, match="trials must be >= 1"):
            shift_scaling([3], 0.01, trials=trials, base_seed=1)


def per_trial_ensemble(tree, disorder, probe, trials, base_seed, *, delta=10.0, gamma=1e-6):
    truth = eval_nand(tree)
    ideal = ideal_parameters(tree, delta, gamma)
    n_success = n_ambiguous = 0
    results = []
    for i in range(trials):
        spec_i = replace(disorder, seed=trial_seed(base_seed, i))
        params = sample_disorder(tree, ideal, spec_i)
        result = readout(tree, params, probe)
        results.append(result)
        if result.ambiguous:
            n_ambiguous += 1
        elif result.bit == truth:
            n_success += 1
    rates = (n_success / trials, (trials - n_success - n_ambiguous) / trials,
             n_ambiguous / trials)
    return rates, results


def per_trial_shift_scaling(depths, sigma_eps, trials, base_seed, *, delta=10.0, gamma=1e-3):
    probe = ProbeSpec(gamma_l=0.005, gamma_r=0.005, t1=0.3)
    out = []
    for depth in depths:
        n = 2**depth
        tree = worst_case_tree(depth)
        ideal = ideal_parameters(tree, delta, gamma)
        grid = np.linspace(-SHIFT_GRID_HALFWIDTH / np.sqrt(n),
                           SHIFT_GRID_HALFWIDTH / np.sqrt(n), SHIFT_GRID_POINTS)
        shifts = np.empty(trials)
        for i in range(trials):
            seed = trial_seed(base_seed, depth * 100003 + i)
            spec = DisorderSpec(sigma_t=0.0, sigma_eps=sigma_eps, seed=seed)
            params = sample_disorder(tree, ideal, spec)
            curve = transmission_curve(tree, params, probe, grid)
            shifts[i] = grid[int(np.argmax(curve))]
        out.append((n, float(np.sqrt(np.mean(shifts**2)))))
    return out


def record_readouts(monkeypatch):
    """Record every readout ``run_ensemble`` makes."""
    seen = []

    def spy(*args):
        seen.append(readout(*args))
        return seen[-1]

    monkeypatch.setattr(ensemble, "readout", spy)
    return seen


def assert_same_ensemble(monkeypatch, tree, disorder, probe, trials, base_seed, gamma):
    seen = record_readouts(monkeypatch)
    got = run_ensemble(tree, disorder, probe, trials, base_seed, gamma=gamma)
    rates, results = per_trial_ensemble(tree, disorder, probe, trials, base_seed, gamma=gamma)
    assert (got.success_rate, got.failure_rate, got.ambiguous_rate) == rates
    (batch,) = seen
    assert [float(c).hex() for c in batch.conductance] == [r.conductance.hex() for r in results]
    assert batch.bit.tolist() == [r.bit for r in results]
    assert batch.ambiguous.tolist() == [r.ambiguous for r in results]


# Criterion 05: depth 5, all-0 and all-1 inputs, sigma_t = sigma_eps = gamma.
CRITERION_05 = [(build_tree(5, [b] * 32), DisorderSpec(s, s, 0), 200, 11, s)
                for s in (0.03, 0.1) for b in (0, 1)]
# Criterion 07: random inputs, detuning disorder x / sqrt(N), gamma = 1e-6.
CRITERION_07 = [(build_tree(d, np.random.default_rng(d).integers(0, 2, 2**d)),
                 DisorderSpec(0.0, x / np.sqrt(2**d), 0), 100, d * 7919 + k, 1e-6)
                for d in (3, 5, 7) for k, x in enumerate((0.2, 0.8))]


@pytest.mark.parametrize("case", range(len(CRITERION_05) + len(CRITERION_07)))
def test_batched_ensemble_matches_per_trial_loop(case, monkeypatch):
    tree, disorder, trials, base_seed, gamma = (CRITERION_05 + CRITERION_07)[case]
    assert_same_ensemble(monkeypatch, tree, disorder, ProbeSpec(), trials, base_seed, gamma)


def test_batched_ensemble_matches_per_trial_loop_at_finite_temperature(monkeypatch):
    # gamma = 0.03 keeps every trial's quadrature converging.
    assert_same_ensemble(monkeypatch, build_tree(5, [0] * 32), DisorderSpec(0.03, 0.03, 0),
                         ProbeSpec(temperature=0.01), 12, 4, 0.03)


def test_batched_ensemble_raises_the_first_failing_trials_error():
    # At gamma = 1e-6 and kT = 0.01 trial 4 is the first whose
    # quadrature fails (see the xfail in test_transport.py).
    tree, probe = build_tree(3, [0] * 8), ProbeSpec(temperature=0.01)
    disorder = DisorderSpec(0.03, 0.03, 0)
    with pytest.raises(QuadratureError) as want:
        per_trial_ensemble(tree, disorder, probe, 8, 3)
    with pytest.raises(QuadratureError) as got:
        run_ensemble(tree, disorder, probe, 8, 3)
    assert (got.value.panels, got.value.achieved) == (want.value.panels, want.value.achieved)
    rates, _ = per_trial_ensemble(tree, disorder, probe, 4, 3)
    assert rates == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("depths, sigma, seed", [((3, 5, 6), 0.01, 7), ((4, 8), 0.03, 2)])
def test_batched_shift_scaling_matches_per_trial_loop(depths, sigma, seed):
    assert shift_scaling(depths, sigma, 15, seed) == per_trial_shift_scaling(depths, sigma, 15, seed)


def test_one_green_function_call_per_ensemble(monkeypatch):
    calls, many = [], transport.green_tree_many

    def spy(tree, params, energies):
        calls.append(params.sample_shape + np.shape(energies))
        return many(tree, params, energies)

    monkeypatch.setattr(transport, "green_tree_many", spy)
    run_ensemble(build_tree(4, [0] * 16), DisorderSpec(0.05, 0.05, 0), ProbeSpec(), 30, 1)
    assert calls == [(30, 1)]
    calls.clear()
    shift_scaling((3, 5), 0.01, 12, 1)
    assert calls == [(12, SHIFT_GRID_POINTS)] * 2


def test_negative_seeds_raise_structure_errors():
    tree = build_tree(2, (1, 0, 1, 1))
    message = "nonnegative base_seed and index, got -1"
    with pytest.raises(StructureError, match=message):
        trial_seed(-1, 0)
    with pytest.raises(StructureError, match=message):
        run_ensemble(tree, DisorderSpec(0.1, 0.1, 0), ProbeSpec(), 3, -1)
    with pytest.raises(StructureError, match=message):
        shift_scaling([2], 0.1, 2, -1)
