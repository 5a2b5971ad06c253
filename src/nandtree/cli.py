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
from dataclasses import dataclass, field, fields

import numpy as np

from . import classical, ensemble, layout
from .model import DisorderSpec, StructureError, TreeSpec, ideal_parameters, sample_disorder
from .greens import classify
from .transport import DEFAULT_T1, ProbeSpec, QuadratureError, readout, sweep

COMMANDS = ("evaluate", "sweep", "ensemble", "layout", "feasibility", "classical")


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def _parse_markers(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


#: What each value parser reads, for parse errors.
_TYPE_NAMES = {str: "text", int: "an integer", float: "a number",
               _parse_markers: "a comma-separated list of integers"}


def _key(key: str, parse, default):
    """A config field: its dotted key, the parser of its value text and
    the name of what it reads, its default."""
    return field(default=default,
                 metadata={"key": key, "parse": parse, "type": _TYPE_NAMES[parse]})


@dataclass
class RunConfig:
    """One run; its fields, in order, are the config keys and the
    lines of the ``.meta`` sidecar."""

    command: str = _key("command", str, "")
    # tree
    depth: int = _key("tree.depth", int, 2)
    bits: str = _key("tree.bits", str, "")
    not_markers: tuple[int, ...] = _key("tree.not_markers", _parse_markers, ())
    # physics (units of t)
    delta: float = _key("physics.delta", float, 10.0)
    gamma: float = _key("physics.gamma", float, 1e-6)
    gamma_l: float = _key("physics.gamma_l", float, 0.05)
    gamma_r: float = _key("physics.gamma_r", float, 0.05)
    t1: float = _key("physics.t1", float, DEFAULT_T1)
    eps0: float = _key("physics.eps0", float, 0.0)
    e_f: float = _key("physics.e_f", float, 0.0)
    kt: float = _key("physics.kt", float, 0.0)
    # disorder
    sigma_t: float = _key("disorder.sigma_t", float, 0.0)
    sigma_eps: float = _key("disorder.sigma_eps", float, 0.0)
    seed: int = _key("disorder.seed", int, 1)
    trials: int = _key("disorder.trials", int, 200)
    # sweep
    sweep_axis: str = _key("sweep.axis", str, "eps0")
    sweep_min: float = _key("sweep.min", float, -1.0)
    sweep_max: float = _key("sweep.max", float, 1.0)
    sweep_points: int = _key("sweep.points", int, 101)
    # feasibility (physical units: micro-eV, nm)
    feas_gamma: float = _key("feasibility.gamma", float, 0.1)
    feas_t: float = _key("feasibility.t", float, 100.0)
    feas_big_gamma: float = _key("feasibility.big_gamma", float, 0.1)
    feas_sigma_eps: float = _key("feasibility.sigma_eps", float, 1.0)
    feas_sigma_t: float = _key("feasibility.sigma_t", float, 1.0)
    feas_spacing_nm: float = _key("feasibility.spacing_nm", float, 100.0)
    # output
    out_path: str = _key("output.path", str, "")


#: RunConfig's fields by config key.
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


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
        if key not in _FIELDS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        meta = _FIELDS[key].metadata
        try:
            setattr(cfg, _FIELDS[key].name, meta["parse"](value))
        except (TypeError, ValueError):
            errors.append(f"line {lineno}: {key}: expected {meta['type']}, got {value!r}")
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg: RunConfig) -> list[str]:
    """The CLI's own rules, plus the domain objects the command builds.

    Each domain object checks the keys it is built from, and its error
    is prefixed with those keys.  The ideal parameters are built only
    on a valid tree.
    """
    errors: list[str] = []

    def build(keys: str, make, *args):
        try:
            return make(*args)
        except StructureError as exc:
            errors.append(f"{keys}: {exc}")

    if cfg.command not in COMMANDS:
        errors.append(f"command: must be one of {COMMANDS}, got {cfg.command!r}")
    tree = None
    if cfg.command in ("evaluate", "sweep", "ensemble", "layout", "classical"):
        tree = build("tree.depth, tree.bits, tree.not_markers", _tree, cfg)
    if cfg.command in ("evaluate", "sweep", "ensemble"):
        if tree is not None:
            build("physics.delta, physics.gamma", ideal_parameters, tree, cfg.delta, cfg.gamma)
        build("disorder.sigma_t, disorder.sigma_eps, disorder.seed", _disorder, cfg)
        build("physics.gamma_l, physics.gamma_r, physics.t1, physics.eps0, physics.e_f, "
              "physics.kt", _probe, cfg)
    if cfg.command == "feasibility":
        build("feasibility.gamma, feasibility.t, feasibility.big_gamma, feasibility.sigma_eps, "
              "feasibility.sigma_t, feasibility.spacing_nm", _feasibility, cfg)
    if cfg.command == "classical" and cfg.seed < 0:
        errors.append(f"disorder.seed: seed must be nonnegative, got {cfg.seed}")
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
    if cfg.command in ("sweep", "ensemble", "layout") and not cfg.out_path:
        errors.append(f"output.path: required for command {cfg.command!r}")
    return errors


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
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
    lines = [f"{f.metadata['key']} = {_fmt(getattr(cfg, f.name))}" for f in fields(cfg)]
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


def _feasibility(cfg: RunConfig) -> layout.FeasibilityReport:
    return layout.feasibility(
        gamma_phys=cfg.feas_gamma,
        t_phys=cfg.feas_t,
        Gamma_phys=cfg.feas_big_gamma,
        sigma_eps_phys=cfg.feas_sigma_eps,
        sigma_t_phys=cfg.feas_sigma_t,
        spacing_nm=cfg.feas_spacing_nm,
    )


def run(config: RunConfig, out=sys.stdout) -> int:
    """Dispatch one validated config; returns the process exit code.

    Each command yields its ``name = value`` stdout lines, its CSV
    header and rows, and its exit code.  The lines go to ``out``; with
    ``output.path`` set, the CSV and the ``.meta`` sidecar are written.
    """
    code = 0
    if config.command == "feasibility":
        report = _feasibility(config)
        header = ["n_max", "area_mm2", "eval_time_ns", "limiting_factor"]
        rows = [[report.n_max, report.area_mm2, report.eval_time_ns, report.limiting_factor]]
        shown = list(zip(header, rows[0]))
        shown[0] = ("n_max", f"{report.n_max} (2**{report.n_max.bit_length() - 1})")
    elif config.command == "classical":
        stats = classical.eval_randomized(_tree(config), seed=config.seed)
        header = ["result", "queries", "seed"]
        rows = [[stats.result, stats.queries, stats.seed]]
        shown = [("result", stats.result), ("queries", stats.queries)]
    elif config.command == "layout":
        graph = layout.build_hfractal(_tree(config))
        header = ["id", "x", "y", "role", "tree_node"]
        # Roles come in the dots' order; a tree dot's id is its tree node.
        rows = [[dot, x, y, role, "" if role == "inverter" else dot]
                for (dot, x, y), (_, role) in zip(graph.dots.tolist(), graph.role.items())]
        shown = [("dots", len(graph.dots)), ("inverters", graph.n_inverters)]
    elif config.command == "evaluate":
        tree = _tree(config)
        params = _params(config, tree)
        form = classify(tree, params)
        result = readout(tree, params, _probe(config))
        header = ["bit", "conductance", "classified_bit", "alpha", "beta", "classical"]
        rows = [[result.bit, result.conductance, form.bit, form.alpha, form.beta,
                 classical.eval_nand(tree)]]
        shown = list(zip(header, rows[0]))
        code = 2 if result.ambiguous else 0
    elif config.command == "sweep":
        tree = _tree(config)
        grid = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
        trace = sweep(tree, _params(config, tree), _probe(config), config.sweep_axis, grid)
        header = [trace.axis, "transmission", "conductance"]
        rows = list(zip(trace.grid, trace.transmission, trace.conductance))
        shown = [("points", len(trace.grid))]
    elif config.command == "ensemble":
        result = ensemble.run_ensemble(
            _tree(config),
            _disorder(config),
            _probe(config),
            config.trials,
            config.seed,
            delta=config.delta,
            gamma=config.gamma,
        )
        header = ["trials", "success_rate", "failure_rate", "ambiguous_rate"]
        rows = [[result.trials, result.success_rate, result.failure_rate, result.ambiguous_rate]]
        shown = [("success_rate", result.success_rate)]
    else:
        raise ConfigError([f"command: unhandled {config.command!r}"])

    for name, value in shown:
        print(f"{name} = {_fmt(value)}", file=out)
    if config.out_path:
        _write_csv(config.out_path, header, rows)
        _write_meta(config)
    return code


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
