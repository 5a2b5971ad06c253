"""Configuration parsing, command dispatch, and bit-exact data emission.

Configs are UTF-8 ``key = value`` lines with ``#`` comments, keys
namespaced per module (``physics.gamma``, ``disorder.sigma_eps``, ...).
Emitted data files are plain CSV (LF line endings, one header row,
floats printed with 17 significant digits so every file re-parses into
the values that produced it) plus a ``.meta`` sidecar carrying the full
config.  Exit codes: 0 success, 1 error, 2 ambiguous readout.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import classical, ensemble, layout
from .model import DisorderSpec, StructureError, TreeSpec, ideal_parameters, sample_disorder
from .greens import classify
from .transport import DEFAULT_T1, ProbeSpec, QuadratureError, conductance, readout, sweep

COMMANDS = ("evaluate", "sweep", "ensemble", "layout", "feasibility", "classical")


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class RunConfig:
    command: str = ""
    # tree
    depth: int = 2
    bits: str = ""
    not_markers: tuple[int, ...] = ()
    # physics (units of t)
    delta: float = 10.0
    gamma: float = 1e-6
    gamma_l: float = 0.05
    gamma_r: float = 0.05
    t1: float = DEFAULT_T1
    eps0: float = 0.0
    e_f: float = 0.0
    kt: float = 0.0
    # disorder
    sigma_t: float = 0.0
    sigma_eps: float = 0.0
    seed: int = 1
    trials: int = 200
    # sweep
    sweep_axis: str = "eps0"
    sweep_min: float = -1.0
    sweep_max: float = 1.0
    sweep_points: int = 101
    # feasibility (physical units: micro-eV, nm)
    feas_gamma: float = 0.1
    feas_t: float = 100.0
    feas_alpha_orb: float = 1000.0
    feas_big_gamma: float = 0.1
    feas_sigma_eps: float = 1.0
    feas_sigma_t: float = 1.0
    feas_kt: float = 2.0
    feas_spacing_nm: float = 100.0
    # output
    out_path: str = ""
    out_format: str = "csv"


def _parse_markers(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


_KEYS: dict[str, tuple[str, type | object]] = {
    "command": ("command", str),
    "tree.depth": ("depth", int),
    "tree.bits": ("bits", str),
    "tree.not_markers": ("not_markers", _parse_markers),
    "physics.delta": ("delta", float),
    "physics.gamma": ("gamma", float),
    "physics.gamma_l": ("gamma_l", float),
    "physics.gamma_r": ("gamma_r", float),
    "physics.t1": ("t1", float),
    "physics.eps0": ("eps0", float),
    "physics.e_f": ("e_f", float),
    "physics.kt": ("kt", float),
    "disorder.sigma_t": ("sigma_t", float),
    "disorder.sigma_eps": ("sigma_eps", float),
    "disorder.seed": ("seed", int),
    "disorder.trials": ("trials", int),
    "sweep.axis": ("sweep_axis", str),
    "sweep.min": ("sweep_min", float),
    "sweep.max": ("sweep_max", float),
    "sweep.points": ("sweep_points", int),
    "feasibility.gamma": ("feas_gamma", float),
    "feasibility.t": ("feas_t", float),
    "feasibility.alpha_orb": ("feas_alpha_orb", float),
    "feasibility.big_gamma": ("feas_big_gamma", float),
    "feasibility.sigma_eps": ("feas_sigma_eps", float),
    "feasibility.sigma_t": ("feas_sigma_t", float),
    "feasibility.kt": ("feas_kt", float),
    "feasibility.spacing_nm": ("feas_spacing_nm", float),
    "output.path": ("out_path", str),
    "output.format": ("out_format", str),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config, reporting *all* errors at once."""
    cfg = RunConfig()
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        attr, conv = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value))
        except (TypeError, ValueError):
            errors.append(f"line {lineno}: {key}: cannot parse {value!r} as {getattr(conv, '__name__', 'value')}")
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg: RunConfig) -> list[str]:
    errors: list[str] = []
    if cfg.command not in COMMANDS:
        errors.append(f"command: must be one of {COMMANDS}, got {cfg.command!r}")
    for name in ("delta", "t1"):
        if getattr(cfg, name) <= 0:
            errors.append(f"physics.{name}: must be positive, got {getattr(cfg, name)}")
    if cfg.gamma < 0:
        errors.append(f"physics.gamma: must be nonnegative, got {cfg.gamma}")
    # The domain types own the remaining rules; their messages are
    # prefixed with the config keys they were built from.
    builders = [
        ("disorder.sigma_t, disorder.sigma_eps", _disorder),
        ("physics.gamma_l, physics.gamma_r, physics.t1, physics.eps0, physics.e_f, physics.kt",
         _probe),
    ]
    if cfg.command in ("evaluate", "sweep", "ensemble", "layout", "classical"):
        builders.insert(0, ("tree.depth, tree.bits, tree.not_markers", _tree))
    for keys, build in builders:
        try:
            build(cfg)
        except StructureError as exc:
            errors.append(f"{keys}: {exc}")
    if cfg.trials < 1:
        errors.append(f"disorder.trials: must be >= 1, got {cfg.trials}")
    if cfg.command == "sweep":
        if cfg.sweep_axis not in ("E", "eps0"):
            errors.append(f"sweep.axis: must be 'E' or 'eps0', got {cfg.sweep_axis!r}")
        if cfg.sweep_min >= cfg.sweep_max:
            errors.append(
                f"sweep.min/max: need min < max, got {cfg.sweep_min} >= {cfg.sweep_max}"
            )
        if cfg.sweep_points < 2:
            errors.append(f"sweep.points: must be >= 2, got {cfg.sweep_points}")
    if cfg.command == "feasibility":
        for f in fields(cfg):
            if f.name.startswith("feas_") and getattr(cfg, f.name) <= 0:
                errors.append(f"feasibility.{f.name[5:]}: must be positive")
    if cfg.command in ("sweep", "ensemble", "layout") and not cfg.out_path:
        errors.append(f"output.path: required for command {cfg.command!r}")
    if cfg.out_format != "csv":
        errors.append(f"output.format: only 'csv' is supported, got {cfg.out_format!r}")
    return errors


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_meta(cfg: RunConfig) -> None:
    inverse = {attr: key for key, (attr, _) in _KEYS.items()}
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "not_markers":
            value = ",".join(str(m) for m in value)
        lines.append(f"{inverse[f.name]} = {_fmt(value)}")
    _write_atomic(cfg.out_path + ".meta", "\n".join(lines) + "\n")


def _tree(cfg: RunConfig) -> TreeSpec:
    return TreeSpec(
        depth=cfg.depth, input_bits=cfg.bits, not_markers=frozenset(cfg.not_markers)
    )


def _disorder(cfg: RunConfig) -> DisorderSpec:
    return DisorderSpec(sigma_t=cfg.sigma_t, sigma_eps=cfg.sigma_eps, seed=cfg.seed)


def _params(cfg: RunConfig, tree: TreeSpec):
    params = ideal_parameters(tree, cfg.delta, cfg.gamma)
    if cfg.sigma_t > 0 or cfg.sigma_eps > 0:
        params = sample_disorder(tree, params, _disorder(cfg))
    return params


def _probe(cfg: RunConfig) -> ProbeSpec:
    return ProbeSpec(
        gamma_l=cfg.gamma_l,
        gamma_r=cfg.gamma_r,
        t1=cfg.t1,
        eps0=cfg.eps0,
        e_f=cfg.e_f,
        temperature=cfg.kt,
    )


def run(config: RunConfig, out=sys.stdout) -> int:
    """Dispatch one validated config; returns the process exit code."""
    if config.command == "feasibility":
        report = layout.feasibility(
            config.feas_gamma,
            config.feas_t,
            config.feas_alpha_orb,
            config.feas_big_gamma,
            config.feas_sigma_eps,
            config.feas_sigma_t,
            config.feas_kt,
            config.feas_spacing_nm,
        )
        print(f"n_max = {report.n_max} (2**{report.n_max.bit_length() - 1})", file=out)
        print(f"area_mm2 = {_fmt(report.area_mm2)}", file=out)
        print(f"eval_time_ns = {_fmt(report.eval_time_ns)}", file=out)
        print(f"limiting_factor = {report.limiting_factor}", file=out)
        if config.out_path:
            _write_csv(
                config.out_path,
                ["n_max", "area_mm2", "eval_time_ns", "limiting_factor"],
                [[report.n_max, report.area_mm2, report.eval_time_ns, report.limiting_factor]],
            )
            _write_meta(config)
        return 0

    tree = _tree(config)

    if config.command == "classical":
        truth = classical.eval_nand(tree)
        stats = classical.eval_randomized(tree, seed=config.seed)
        print(f"result = {truth}", file=out)
        print(f"queries = {stats.queries}", file=out)
        if config.out_path:
            _write_csv(
                config.out_path,
                ["result", "queries", "seed"],
                [[stats.result, stats.queries, stats.seed]],
            )
            _write_meta(config)
        return 0

    if config.command == "layout":
        graph = layout.build_hfractal(tree)
        binding = {dot: node for node, dot in graph.tree_binding.items()}
        rows = [
            [dot, x, y, graph.role[dot], binding.get(dot, "")]
            for dot, x, y in graph.dots
        ]
        _write_csv(config.out_path, ["id", "x", "y", "role", "tree_node"], rows)
        _write_meta(config)
        print(f"dots = {len(graph.dots)}", file=out)
        print(f"inverters = {graph.n_inverters}", file=out)
        return 0

    params = _params(config, tree)
    probe = _probe(config)

    if config.command == "evaluate":
        form = classify(tree, params)
        result = readout(tree, params, probe)
        truth = classical.eval_nand(tree)
        print(f"bit = {result.bit}", file=out)
        print(f"conductance = {_fmt(result.conductance)}", file=out)
        print(f"classified_bit = {form.bit}", file=out)
        print(f"alpha = {_fmt(form.alpha)}", file=out)
        print(f"beta = {_fmt(form.beta)}", file=out)
        print(f"classical = {truth}", file=out)
        if config.out_path:
            _write_csv(
                config.out_path,
                ["bit", "conductance", "classified_bit", "alpha", "beta", "classical"],
                [[result.bit, result.conductance, form.bit, form.alpha, form.beta, truth]],
            )
            _write_meta(config)
        return 2 if result.ambiguous else 0

    if config.command == "sweep":
        grid = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
        trace = sweep(tree, params, probe, config.sweep_axis, grid)
        rows = list(zip(trace.grid, trace.transmission, trace.conductance))
        _write_csv(config.out_path, [trace.axis, "transmission", "conductance"], rows)
        _write_meta(config)
        print(f"points = {len(trace.grid)}", file=out)
        return 0

    if config.command == "ensemble":
        result = ensemble.run_ensemble(
            tree,
            _disorder(config),
            probe,
            config.trials,
            config.seed,
            delta=config.delta,
            gamma=config.gamma,
        )
        _write_csv(
            config.out_path,
            ["trials", "success_rate", "failure_rate", "ambiguous_rate"],
            [[result.trials, result.success_rate, result.failure_rate, result.ambiguous_rate]],
        )
        _write_meta(config)
        print(f"success_rate = {_fmt(result.success_rate)}", file=out)
        return 0

    raise ConfigError([f"command: unhandled {config.command!r}"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nandtree",
        description="Quantum-dot NAND-tree simulator (energies in units of the tunnel coupling t)",
    )
    parser.add_argument("config", help="path to a key = value config file")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        return run(cfg)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except (StructureError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
