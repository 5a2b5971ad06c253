"""Monte-Carlo readout fidelity versus disorder, dephasing and tree size."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .classical import eval_nand
from .greens import worst_case_tree
from .model import DisorderSpec, StructureError, TreeSpec, ideal_parameters, sample_disorder_many
from .transport import ProbeSpec, readout, transmission_curve

#: Fixed energy grid used for resonance-shift measurements: 401 points
#: spanning +-4 t/sqrt(N).
SHIFT_GRID_POINTS = 401
SHIFT_GRID_HALFWIDTH = 4.0

#: Deepest :func:`shift_scaling`, set by time: each trial evaluates the
#: 401 grid energies on every dot, unmerged, as each leaf's detuning
#: differs.  A trial took 40-60 ms at depth 12, 0.3 s at depth 14 and
#: 0.7 s at depth 16, while the tracemalloc peak of a 4-trial run stayed
#: at 5 MB at depth 12 and 26 MB at depth 16 (measured on a 2-core
#: x86-64 Linux VM, Python 3.11, numpy 2.4).
MAX_SHIFT_DEPTH = 12


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated readout statistics for one disorder ensemble."""

    config: Mapping[str, float | int | str]
    trials: int
    success_rate: float
    failure_rate: float
    ambiguous_rate: float


def trial_seed(base_seed: int, index: int) -> int:
    """Derived per-trial seed; mixing keeps trial sets extensible.  Both
    arguments must be nonnegative, else :class:`~nandtree.model.StructureError`."""
    if min(base_seed, index) < 0:
        raise StructureError(f"trial seeds need a nonnegative base_seed and index, "
                             f"got {base_seed} and {index}")
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def run_ensemble(
    tree: TreeSpec,
    disorder: DisorderSpec,
    probe: ProbeSpec,
    trials: int,
    base_seed: int,
    *,
    delta: float = 10.0,
    gamma: float = 1e-6,
) -> EnsembleResult:
    """Readout-vs-truth statistics over ``trials`` disorder samples.

    Trial i draws its disorder realization with ``disorder.seed``
    replaced by ``trial_seed(base_seed, i)``, so ``disorder.seed`` itself
    is never used; all of them are drawn by one
    :func:`~nandtree.model.sample_disorder_many` call and read out by
    one batched :func:`~nandtree.transport.readout`, and each readout
    bit is compared against the classical NAND result.  Ambiguous
    readouts are tallied separately rather than counted as failures.
    The aggregate depends only on (tree, disorder, probe, trials,
    base_seed, delta, gamma).  At kT > 0 a trial whose quadrature fails
    raises its :class:`~nandtree.transport.QuadratureError`, the first
    such trial's.
    """
    if trials < 1:
        raise StructureError(f"trials must be >= 1, got {trials}")
    truth = eval_nand(tree)
    ideal = ideal_parameters(tree, delta, gamma)
    specs = [replace(disorder, seed=trial_seed(base_seed, i)) for i in range(trials)]
    result = readout(tree, sample_disorder_many(tree, ideal, specs), probe)
    n_ambiguous = int(result.ambiguous.sum())
    n_success = int((~result.ambiguous & (result.bit == truth)).sum())
    config = {
        "depth": tree.depth,
        "bits": "".join(str(b) for b in tree.input_bits),
        "sigma_t": disorder.sigma_t,
        "sigma_eps": disorder.sigma_eps,
        "delta": delta,
        "gamma": gamma,
        "gamma_l": probe.gamma_l,
        "gamma_r": probe.gamma_r,
        "t1": probe.t1,
        "temperature": probe.temperature,
        "base_seed": base_seed,
        "truth": truth,
    }
    return EnsembleResult(
        config=config,
        trials=trials,
        success_rate=n_success / trials,
        failure_rate=(trials - n_success - n_ambiguous) / trials,
        ambiguous_rate=n_ambiguous / trials,
    )


def shift_scaling(
    depths: Sequence[int],
    sigma_eps: float,
    trials: int,
    base_seed: int,
    *,
    delta: float = 10.0,
    gamma: float = 1e-3,
) -> list[tuple[int, float]]:
    """RMS resonance shift versus tree size N on worst-case trees.

    Per trial, detuning disorder is applied to the nested worst-case
    tree of the given depth and the transmission peak is located by
    argmax over the fixed 401-point grid spanning +-4 t/sqrt(N), so
    the resolution is t/(50 sqrt(N)).  The rms of the peak positions
    is reported per N; it grows linearly in sigma_eps.  Each depth
    draws its trials with one :func:`~nandtree.model.sample_disorder_many`
    call and evaluates them with one batched
    :func:`~nandtree.transport.transmission_curve`.
    """
    if trials < 1:
        raise StructureError(f"trials must be >= 1, got {trials}")
    if any(d > MAX_SHIFT_DEPTH for d in depths):
        raise StructureError(f"shift scaling capped at depth {MAX_SHIFT_DEPTH}")
    # Moderate dephasing suppresses transmission peaks near the other
    # tree eigenvalues inside the window (Im G_1 is large there), and a
    # weak probe keeps the central resonance from hybridizing with
    # them, so the argmax tracks the disorder-induced offset of the
    # E = 0 resonance instead of hopping between spurious peaks.
    probe = ProbeSpec(gamma_l=0.005, gamma_r=0.005, t1=0.3)
    out = []
    for depth in depths:
        n = 2**depth
        tree = worst_case_tree(depth)
        ideal = ideal_parameters(tree, delta, gamma)
        grid = np.linspace(-SHIFT_GRID_HALFWIDTH / np.sqrt(n),
                           SHIFT_GRID_HALFWIDTH / np.sqrt(n), SHIFT_GRID_POINTS)
        specs = [DisorderSpec(sigma_t=0.0, sigma_eps=sigma_eps,
                              seed=trial_seed(base_seed, depth * 100003 + i))
                 for i in range(trials)]
        curves = transmission_curve(tree, sample_disorder_many(tree, ideal, specs), probe, grid)
        shifts = grid[np.argmax(curves, axis=1)]
        out.append((n, float(np.sqrt(np.mean(shifts**2)))))
    return out
