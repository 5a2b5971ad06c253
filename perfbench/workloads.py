"""The benchmark's three workloads.

Each workload has four parts:

* ``inputs(seed)``: bits, seeds and offsets drawn with the stdlib RNG
  (no package or numpy import, so the set-up probe times those alone);
* ``specs(nt, inputs, outdir)``: the set-up measured by ``setup_s``,
  building TreeSpec, ProbeSpec, DisorderSpec and config objects;
* ``run_pass(run, nt, specs)``: one pass of the fixed job, every
  package call made through ``run.call`` and looked up on its module at
  call time, so a traced pass sees the wrapped functions;
* ``verify(run, nt, specs)``: once-per-run checks that are not pass
  outputs (the dense oracle on a tree of depth <= 10).

``nt`` is a namespace holding the package modules and numpy.
Correctness references (NAND truth values, dense resolvents, trapezoid
integrals) are computed untimed and with tracing off.
"""

from __future__ import annotations

import io
import math
import os
import random

from harness import nand_value

DELTA = 10.0
CRITICAL_P1 = (math.sqrt(5.0) - 1.0) / 2.0


def _bits(rng, n, p1=0.5):
    return [1 if rng.random() < p1 else 0 for _ in range(n)]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def _dense_root_green(nt, tree, params, energies):
    H = nt.dense.assemble(tree, params)
    return [nt.dense.green_direct(H, float(E), params.gamma, tree.root) for E in energies]


def _greens_vs_dense(nt, tree, params, energies, rel=1e-9):
    """green_tree_many against the dense resolvent at a few energies."""
    fast = nt.greens.green_tree_many(tree, params, nt.np.asarray(energies))
    slow = _dense_root_green(nt, tree, params, energies)
    return all(_close(complex(f), s, rel) for f, s in zip(fast, slow))


def _probe_transmission(probe, g1, E):
    """Two-lead transmission from the root Green's function, written out."""
    denom = E - probe.eps0 + 0.5j * (probe.gamma_l + probe.gamma_r) - probe.t1**2 * g1
    return probe.gamma_l * probe.gamma_r / abs(denom) ** 2


def _resonances(nt, tree, params, probe):
    """Complex eigenvalues of the probe-plus-tree Hamiltonian with the
    lead and dephasing broadenings: the poles of the probe Green's function."""
    np = nt.np
    H = nt.dense.assemble(tree, params)
    n = H.dimension
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[1:, 1:] = H.matrix - 1j * params.gamma * np.eye(n)
    A[0, 0] = probe.eps0 - 0.5j * (probe.gamma_l + probe.gamma_r)
    root = 1 + H.index(tree.root)
    A[0, root] = A[root, 0] = -probe.t1
    return np.linalg.eigvals(A)


def _thermal_reference(nt, tree, params, probe, ratio=2.0, order=16):
    """Thermal average of T(E) over E_f +- 20 kT by Gauss-Legendre panels
    whose breakpoints sit at every resonance and at E_f, spaced
    geometrically by ``ratio`` from a quarter of the resonance width
    (or of kT) outward, so every Lorentzian peak is resolved."""
    np = nt.np
    kt, e_f = probe.temperature, probe.e_f
    lo, hi = e_f - 20.0 * kt, e_f + 20.0 * kt
    poles = _resonances(nt, tree, params, probe)
    centers = np.append(poles.real, e_f)
    widths = np.append(np.maximum(np.abs(poles.imag), 1e-12), kt)
    steps = ratio ** np.arange(-2.0, 200.0)
    cuts = [np.array([lo, hi]), centers]
    for c, w in zip(centers, widths):
        d = w * steps[w * steps < hi - lo]
        cuts += [c - d, c + d]
    edges = np.unique(np.clip(np.concatenate(cuts), lo, hi))
    x, wx = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    E = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * wx).ravel()
    kernel = 1.0 / (4.0 * kt * np.cosh((E - e_f) / (2.0 * kt)) ** 2)
    T = np.concatenate([nt.transport.transmission_curve(tree, params, probe, E[i:i + 50_000])
                        for i in range(0, len(E), 50_000)])
    return float(np.sum(weights * kernel * T))


def _finite_unit(np, values):
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)
                and np.all(values <= 1.0 + 1e-9))


class DeepTree:
    """One very large tree: model, greens and layout; no trial loop."""

    name = "deep_tree"
    GAMMA = 1e-6
    SIGMA = 1e-3

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "grid_center": rng.uniform(-0.1, 0.1),
            "disorder_seed": rng.getrandbits(63),
            "hf_bits": _bits(rng, 4096),
            "check_bits": _bits(rng, 256),
            "check_seed": rng.getrandbits(63),
            "check_energies": [rng.uniform(-2.0, 2.0) for _ in range(4)],
        }

    def specs(self, nt, inp, outdir):
        c = inp["grid_center"]
        return {
            "tree": nt.greens.worst_case_tree(16),
            "grid": nt.np.linspace(c - 1.0, c + 1.0, 401),
            "probe": nt.transport.ProbeSpec(),
            "disorder": nt.model.DisorderSpec(self.SIGMA, self.SIGMA, inp["disorder_seed"]),
            "hf_tree": nt.model.build_tree(12, inp["hf_bits"]),
            "check_tree": nt.model.build_tree(8, inp["check_bits"]),
            "check_disorder": nt.model.DisorderSpec(0.1, 0.1, inp["check_seed"]),
            "check_energies": inp["check_energies"],
        }

    @staticmethod
    def hfractal_dots(depth):
        counts = [0, 2, 4, 10, 20, 38, 76][:depth]
        while len(counts) < depth:
            counts.append(2 * counts[-1] + 2)
        inverters = sum(2 ** (k + 1) * counts[depth - 1 - k] for k in range(depth))
        return 2 ** (depth + 1) - 1 + inverters

    def run_pass(self, run, nt, s):
        np, model, greens, layout = nt.np, nt.model, nt.greens, nt.layout
        tree, hf_tree = s["tree"], s["hf_tree"]
        truth, hf_truth = nand_value(tree.input_bits), nand_value(hf_tree.input_bits)

        params = run.call("ideal_parameters", model.ideal_parameters, tree, DELTA, self.GAMMA,
                          keep=False)
        run.call("classify", greens.classify, tree, params,
                 check=lambda f: f.bit == truth and not f.ambiguous)
        run.call("green_tree_many", greens.green_tree_many, tree, params, s["grid"],
                 check=lambda g: g.shape == (401,) and bool(np.all(np.isfinite(g))))
        run.call("readout", nt.transport.readout, tree, params, s["probe"],
                 check=lambda r: r.bit == truth and not r.ambiguous)
        noisy = run.call("sample_disorder", model.sample_disorder, tree, params, s["disorder"],
                         keep=False)
        del params
        run.call("classify_disordered", greens.classify, tree, noisy,
                 check=lambda f: math.isfinite(f.alpha) and math.isfinite(f.beta))
        del noisy

        graph = run.call("build_hfractal", layout.build_hfractal, hf_tree,
                         view=lambda g: (len(g.dots), len(g.links), g.n_inverters),
                         check=lambda v: v[0] == self.hfractal_dots(12) == v[1] + 1)
        chained = run.call("expand_to_tree", layout.expand_to_tree, graph, hf_tree, keep=False)
        del graph
        chain_params = run.call("ideal_chain_parameters", layout.ideal_chain_parameters,
                                chained, DELTA, self.GAMMA, keep=False)
        run.call("classify_chained", greens.classify, chained, chain_params,
                 check=lambda f: f.bit == hf_truth and not f.ambiguous)

    def verify(self, run, nt, s):
        tree = s["check_tree"]
        params = nt.model.sample_disorder(
            tree, nt.model.ideal_parameters(tree, DELTA, 1e-3), s["check_disorder"])
        run.verify("greens_vs_dense",
                   lambda: _greens_vs_dense(nt, tree, params, s["check_energies"]))


class ThermalSweep:
    """Finite-temperature readout: transport quadrature and the CLI path."""

    name = "thermal_sweep"
    CLI_POINTS = 201
    SWEEP_POINTS = 101
    GRID_GAMMAS = (1e-3, 1e-4, 1e-5)
    GRID_KTS = (0.02, 0.1)

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "cli_seed": rng.randrange(1, 2**31),
            "sweep_bits": _bits(rng, 128),
        }

    def config_text(self, axis, seed, path):
        # The README's disordered 32-leaf sweep, at kT = 0.01.
        return "\n".join([
            "command = sweep",
            "tree.depth = 5",
            "tree.bits = " + "0" * 32,
            f"physics.delta = {DELTA!r}",
            "physics.gamma = 0.03",
            "physics.kt = 0.01",
            "disorder.sigma_eps = 0.03",
            "disorder.sigma_t = 0.03",
            f"disorder.seed = {seed}",
            f"sweep.axis = {axis}",
            "sweep.min = -1.0",
            "sweep.max = 1.0",
            f"sweep.points = {self.CLI_POINTS}",
            f"output.path = {path}",
        ]) + "\n"

    def specs(self, nt, inp, outdir):
        T = nt.transport
        texts = {axis: self.config_text(axis, inp["cli_seed"],
                                        os.path.join(outdir or ".", f"sweep_{axis}.csv"))
                 for axis in ("E", "eps0")}
        return {
            "cli_text": texts,
            "cli_seed": inp["cli_seed"],
            # Parsed here as set-up; each pass parses again, as the CLI does.
            "cli_config": {axis: nt.cli.parse_config(t) for axis, t in texts.items()},
            "sweep_tree": nt.model.build_tree(7, inp["sweep_bits"]),
            "sweep_probe": T.ProbeSpec(temperature=0.01),
            "sweep_grid": nt.np.linspace(-1.0, 1.0, self.SWEEP_POINTS),
            "grid_trees": {b: nt.model.build_tree(5, [b] * 32) for b in (0, 1)},
            "grid_probes": {(g, kt): T.ProbeSpec(gamma_l=g, gamma_r=g, temperature=kt)
                            for g in self.GRID_GAMMAS for kt in self.GRID_KTS},
        }

    def check_trace(self, nt, tree, params, probe, axis, grid, trans, cond):
        """Transmission against the dense oracle at five grid points and
        conductance against the reference thermal average at two."""
        np, replace = nt.np, nt.replace
        if not (_finite_unit(np, trans) and _finite_unit(np, cond)):
            return False
        picks = [int(i) for i in np.linspace(0, len(grid) - 1, 5)]
        if axis == "E":
            g1 = _dense_root_green(nt, tree, params, [grid[i] for i in picks])
            want = [_probe_transmission(probe, g, grid[i]) for g, i in zip(g1, picks)]
        else:
            (g0,) = _dense_root_green(nt, tree, params, [probe.e_f])
            want = [_probe_transmission(replace(probe, eps0=grid[i]), g0, probe.e_f)
                    for i in picks]
        if not all(_close(trans[i], w, 1e-9) for i, w in zip(picks, want)):
            return False
        for i in picks[1::2]:
            p = replace(probe, **{"e_f" if axis == "E" else "eps0": float(grid[i])})
            if not _close(cond[i], _thermal_reference(nt, tree, params, p), 1e-6):
                return False
        return True

    def check_cli(self, nt, axis, seed, view):
        """CSV layout, grid and values, rebuilt from the config the benchmark wrote."""
        code, csv, meta = view
        lines = csv.decode().splitlines()
        if code != 0 or lines[0] != f"{axis},transmission,conductance" \
                or len(lines) != self.CLI_POINTS + 1 or not meta.startswith(b"command = sweep\n"):
            return False
        grid, trans, cond = zip(*([float(v) for v in line.split(",")] for line in lines[1:]))
        if list(grid) != [float(v) for v in nt.np.linspace(-1.0, 1.0, self.CLI_POINTS)]:
            return False
        model = nt.model
        tree = model.build_tree(5, [0] * 32)
        params = model.sample_disorder(tree, model.ideal_parameters(tree, DELTA, 0.03),
                                       model.DisorderSpec(0.03, 0.03, seed))
        probe = nt.transport.ProbeSpec(temperature=0.01)
        return self.check_trace(nt, tree, params, probe, axis, grid, trans, cond)

    def run_pass(self, run, nt, s):
        cli, model, transport = nt.cli, nt.model, nt.transport

        def read_outputs(code, cfg):
            with open(cfg.out_path, "rb") as fh:
                csv = fh.read()
            with open(cfg.out_path + ".meta", "rb") as fh:
                meta = fh.read()
            return code, csv, meta

        for axis, text in s["cli_text"].items():
            cfg = run.call(f"parse_config[{axis}]", cli.parse_config, text, keep=False)
            run.call(f"cli_run[{axis}]", cli.run, cfg, out=io.StringIO(),
                     view=lambda code, cfg=cfg: read_outputs(code, cfg),
                     check=lambda v, axis=axis: self.check_cli(nt, axis, s["cli_seed"], v))

        tree, probe, grid = s["sweep_tree"], s["sweep_probe"], s["sweep_grid"]
        params = run.call("sweep_parameters", model.ideal_parameters, tree, DELTA, 0.03, keep=False)
        run.call("sweep", transport.sweep, tree, params, probe, "E", grid,
                 check=lambda t: t.grid == tuple(float(v) for v in grid) and self.check_trace(
                     nt, tree, params, probe, "E", grid, t.transmission, t.conductance))

        for bit, tree in s["grid_trees"].items():
            params = run.call(f"grid_parameters[{bit}]", model.ideal_parameters, tree, DELTA,
                              1e-6, keep=False)
            for (g, kt), probe in s["grid_probes"].items():
                run.call(f"conductance[{bit},{g},{kt}]", transport.conductance, tree, params, probe,
                         check=lambda c, tree=tree, params=params, probe=probe: _close(
                             c, _thermal_reference(nt, tree, params, probe), 1e-6))

    def verify(self, run, nt, s):
        """Nothing extra: the dense oracle checks this workload's own outputs."""


class MonteCarlo:
    """Many small seeded instances: ensemble, classical and model sampling."""

    name = "monte_carlo"
    TRIALS = 200
    CLASSICAL_TREES = 50
    SHIFT_TRIALS = 20

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "ensemble_seeds": [rng.getrandbits(32) for _ in range(3)],
            "disorder_seeds": [rng.getrandbits(32) for _ in range(3)],
            "bits7": _bits(rng, 128),
            "shift_seed": rng.getrandbits(32),
            "classical": [(_bits(rng, 4096, CRITICAL_P1), rng.getrandbits(32))
                          for _ in range(self.CLASSICAL_TREES)],
            "probs": [rng.random() for _ in range(16)],
            "check_energies": [rng.uniform(-2.0, 2.0) for _ in range(4)],
        }

    def specs(self, nt, inp, outdir):
        model = nt.model
        ds = inp["disorder_seeds"]
        return {
            "ensembles": [
                (model.build_tree(5, [0] * 32), model.DisorderSpec(0.03, 0.03, ds[0]),
                 inp["ensemble_seeds"][0], 0.03),
                (model.build_tree(5, [1] * 32), model.DisorderSpec(0.03, 0.03, ds[1]),
                 inp["ensemble_seeds"][1], 0.03),
                (model.build_tree(7, inp["bits7"]),
                 model.DisorderSpec(0.0, 0.6 / math.sqrt(128), ds[2]),
                 inp["ensemble_seeds"][2], 1e-6),
            ],
            "probe": nt.transport.ProbeSpec(),
            "shift_seed": inp["shift_seed"],
            "classical": [(model.build_tree(12, bits), seed) for bits, seed in inp["classical"]],
            "oracle_tree": model.build_tree(4, [0] * 16),
            "probs": inp["probs"],
            "check_energies": inp["check_energies"],
        }

    @staticmethod
    def rates_ok(r, trials):
        rates = (r.success_rate, r.failure_rate, r.ambiguous_rate)
        return r.trials == trials and all(0.0 <= x <= 1.0 for x in rates) \
            and abs(sum(rates) - 1.0) <= 1e-12

    @staticmethod
    def brute_expectation(probs):
        total = 0.0
        n = len(probs)
        for code in range(2**n):
            bits = [(code >> i) & 1 for i in range(n)]
            if nand_value(bits):
                total += math.prod(p if b else 1.0 - p for p, b in zip(probs, bits))
        return total

    def run_pass(self, run, nt, s):
        ens, classical = nt.ensemble, nt.classical
        for i, (tree, disorder, base_seed, gamma) in enumerate(s["ensembles"]):
            run.call(f"run_ensemble[{i}]", ens.run_ensemble, tree, disorder, s["probe"],
                     self.TRIALS, base_seed, gamma=gamma,
                     check=lambda r: self.rates_ok(r, self.TRIALS))
        run.call("shift_scaling", ens.shift_scaling, (6, 8), 0.01, self.SHIFT_TRIALS,
                 s["shift_seed"],
                 check=lambda out: [n for n, _ in out] == [64, 256]
                 and all(math.isfinite(r) and r >= 0.0 for _, r in out))
        for i, (tree, seed) in enumerate(s["classical"]):
            truth = nand_value(tree.input_bits)
            run.call(f"eval_nand[{i}]", classical.eval_nand, tree, check=lambda v: v == truth)
            run.call(f"eval_randomized[{i}]", classical.eval_randomized, tree, seed=seed,
                     check=lambda q: q.result == truth and 1 <= q.queries <= tree.n_leaves)
        run.call("oracle_expectation", classical.oracle_expectation, s["oracle_tree"], s["probs"],
                 check=lambda v: _close(v, self.brute_expectation(s["probs"]), 1e-12))

    def verify(self, run, nt, s):
        tree, disorder, _, gamma = s["ensembles"][2]
        params = nt.model.sample_disorder(
            tree, nt.model.ideal_parameters(tree, DELTA, max(gamma, 1e-3)), disorder)
        run.verify("greens_vs_dense",
                   lambda: _greens_vs_dense(nt, tree, params, s["check_energies"]))


WORKLOADS = {w.name: w for w in (DeepTree(), ThermalSweep(), MonteCarlo())}
