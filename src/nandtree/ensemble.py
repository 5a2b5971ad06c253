"""Monte-Carlo readout fidelity versus disorder, dephasing and tree size."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classical import eval_nand
from .greens import worst_case_tree
from .model import (DisorderSpec, StructureError, TreeSpec, _seed_states, ideal_parameters,
                    sample_disorder_many)
from .transport import ProbeSpec, readout, transmission_curve

#: Fixed energy grid used for resonance-shift measurements: 401 points
#: spanning +-4 t/sqrt(N).
SHIFT_GRID_POINTS = 401
SHIFT_GRID_HALFWIDTH = 4.0

#: Deepest :func:`shift_scaling`, set by time: each trial evaluates the
#: 401 grid energies on every dot, unmerged, as each leaf's detuning
#: differs.  A trial took 15-27 ms at depth 12, 0.09-0.13 s at depth 14
#: and 0.17-0.22 s at depth 16 on two CPUs (23-26 ms, 0.11-0.12 s and
#: 0.31-0.39 s on one, under ``taskset -c 0``), while the tracemalloc
#: peak of a 4-trial run stayed at 4.6 MB at depth 12 and 23 MB at depth
#: 16 (measured on a 2-core x86-64 Linux VM, Python 3.11, numpy 2.4).
MAX_SHIFT_DEPTH = 12


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated readout statistics for one disorder ensemble."""

    config: Mapping[str, float | int | str]
    trials: int
    success_rate: float
    failure_rate: float
    ambiguous_rate: float


def _check_seed(base_seed: int, index: int) -> None:
    if min(base_seed, index) < 0:
        raise StructureError(f"trial seeds need a nonnegative base_seed and index, "
                             f"got {base_seed} and {index}")


def trial_seed(base_seed: int, index: int) -> int:
    """Derived per-trial seed, ``SeedSequence([base_seed, index])``'s first
    32-bit word; mixing keeps trial sets extensible.  Both arguments must
    be nonnegative, else :class:`~nandtree.model.StructureError`.

    The scalar reference: the ensembles compute their trials' seeds
    together (:func:`_trial_seeds`), and the tests compare the two."""
    _check_seed(base_seed, index)
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


def _trial_seeds(base_seed: int, indices: range) -> list[int]:
    """:func:`trial_seed` of ``base_seed`` and each of ``indices``, a
    nonempty ascending range, bit for bit: numpy's ``SeedSequence``
    hashing, reproduced in numpy arithmetic over all of them at once
    (:func:`~nandtree.model._seed_states`).  numpy's RNG policy (NEP 19)
    keeps that hash stable, and the tests compare the two."""
    _check_seed(base_seed, indices[0])
    base = int(base_seed)
    return _seed_states([(base, index) for index in indices], 1)[:, 0].tolist()


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

    Trial i draws its disorder realization of ``disorder``'s widths with
    the seed ``trial_seed(base_seed, i)``, so ``disorder.seed`` itself is
    never used.  The trials' seeds are computed together, in numpy
    arithmetic that reproduces ``SeedSequence`` (:func:`_trial_seeds`);
    the realizations are drawn by one
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
    seeds = _trial_seeds(base_seed, range(trials))
    result = readout(tree, sample_disorder_many(tree, ideal, disorder, seeds), probe)
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
    is reported per N; it grows linearly in sigma_eps.  Trial i at
    depth d takes the seed ``trial_seed(base_seed, d * 100003 + i)``; a
    depth's seeds are computed together (:func:`_trial_seeds`), its
    trials drawn with one :func:`~nandtree.model.sample_disorder_many`
    call and evaluated with one batched
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
    disorder = DisorderSpec(sigma_t=0.0, sigma_eps=sigma_eps, seed=0)  # seed not read
    out = []
    for depth in depths:
        n = 2**depth
        tree = worst_case_tree(depth)
        ideal = ideal_parameters(tree, delta, gamma)
        grid = np.linspace(-SHIFT_GRID_HALFWIDTH / np.sqrt(n),
                           SHIFT_GRID_HALFWIDTH / np.sqrt(n), SHIFT_GRID_POINTS)
        first = depth * 100003
        seeds = _trial_seeds(base_seed, range(first, first + trials))
        many = sample_disorder_many(tree, ideal, disorder, seeds)
        shifts = grid[np.argmax(transmission_curve(tree, many, probe, grid), axis=1)]
        out.append((n, float(np.sqrt(np.mean(shifts**2)))))
    return out
