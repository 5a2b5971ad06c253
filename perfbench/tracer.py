"""Span tracing of nandtree layers from outside the package.

Each public function of a layer module is replaced, wherever a nandtree
module holds a reference to it (its own module, the package namespace
and the modules that imported it by name), with a wrapper that records
one span per call: name, layer, start, end, parent span, pass id, the
exception class it raised (if any) and a work count.  Spans stay in
memory; :func:`layer_metrics` turns them into per-layer numbers.

Wrappers record nothing while ``Tracer.active`` is false, and
:meth:`Tracer.unwrap` puts every original function object back.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

#: Layer modules, by name under the ``nandtree`` package.  ``dense`` is
#: the independent oracle and is deliberately left untraced.
LAYERS = ("model", "greens", "transport", "layout", "classical", "ensemble", "cli")

# Span record fields (lists, not objects, to keep tracing cheap).
NAME, LAYER, START, END, PARENT, PASS, ERROR, WORK = range(8)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _params_nodes(args, kwargs):
    return len(_arg(args, kwargs, 1, "params").epsilon)


def _greens_many(args, kwargs, result):
    import numpy as np  # not at module level: the set-up probe times the numpy import

    return (int(np.size(_arg(args, kwargs, 2, "energies"))), _params_nodes(args, kwargs))


def _greens_one(args, kwargs, result):
    return (1, _params_nodes(args, kwargs))


def _cli_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 0, "config").out_path
    return sum(os.path.getsize(p) for p in (path, path + ".meta") if p and os.path.exists(p))


#: Work counted per traced function, from (args, kwargs, result).
WORK_COUNTERS = {
    "model.ideal_parameters": lambda a, k, r: len(r.epsilon),
    "model.sample_disorder": lambda a, k, r: len(r.epsilon),
    "greens.green_tree_many": _greens_many,
    "greens.green_tree": _greens_one,
    "greens.green_tree_derivative": _greens_one,
    "greens.classify": _greens_one,
    "layout.build_hfractal": lambda a, k, r: len(r.dots),
    "classical.eval_randomized": lambda a, k, r: r.queries,
    "ensemble.run_ensemble": lambda a, k, r: r.trials,
    "ensemble.shift_scaling": lambda a, k, r: len(r) * _arg(a, k, 2, "trials"),
    "cli.run": _cli_bytes,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nandtree" or name.startswith("nandtree."))]


def snapshot():
    """Every non-dunder attribute of every loaded nandtree module."""
    return {(m.__name__, attr): value for m in _package_modules()
            for attr, value in vars(m).items() if not attr.startswith("__")}


class Tracer:
    """Wraps the layer functions and collects their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, name, layer):
        spans, stack, work = self.spans, self._stack, WORK_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result

        return traced

    def wrap(self):
        """Replace every public layer function in every nandtree namespace."""
        if self._patched:
            raise RuntimeError("tracer is already wrapped")
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"nandtree.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replacement[value] = self._wrapper(value, f"{layer}.{attr}", layer)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacement:
                    setattr(mod, attr, replacement[value])
                    self._patched.append((mod, attr, value))

    def unwrap(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _quantile(values, q):
    """Linear-interpolated quantile of a nonempty list."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(spans) -> dict[str, float]:
    """Per-pass layer numbers, as medians over the traced passes.

    Counts are per pass (they repeat exactly from pass to pass); times
    are in seconds per pass; conductance percentiles pool every traced
    ``transport.conductance`` span.
    """
    selfs = self_times(spans)
    under_cond = []
    for rec in spans:
        parent = rec[PARENT]
        under_cond.append(rec[NAME] == "transport.conductance"
                          or (parent >= 0 and under_cond[parent]))
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    cond_ms = []
    for i, rec in enumerate(spans):
        m = per_pass[rec[PASS]]
        layer, name, work = rec[LAYER], rec[NAME], rec[WORK]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += selfs[i]
        if layer == "model":
            m["model.nodes_built"] += work
        elif layer == "greens" and work:
            energies, nodes = work
            m["greens.energies"] += energies
            m["greens.node_energies"] += energies * nodes
            if under_cond[i]:
                m["transport.cond_energies"] += energies
        elif layer == "layout":
            m["layout.dots"] += work
        elif layer == "classical":
            m["classical.queries"] += work
        elif layer == "ensemble":
            m["ensemble.trials"] += work
        elif layer == "cli":
            m["cli.bytes_written"] += work
            if name == "cli.parse_config":
                m["cli.parse_s"] += rec[END] - rec[START]
        if name == "transport.conductance":
            m["transport.conductance_calls"] += 1
            m["transport.quad_failed"] += rec[ERROR] == "QuadratureError"
            cond_ms.append(1e3 * (rec[END] - rec[START]))
    for m in per_pass.values():
        m["greens.ns_per_node_energy"] = (
            1e9 * m["greens.self_s"] / m["greens.node_energies"]
            if m["greens.node_energies"] else 0.0)
        m["transport.energies_per_conductance"] = (
            m["transport.cond_energies"] / m["transport.conductance_calls"]
            if m["transport.conductance_calls"] else 0.0)
    names = set().union(*per_pass.values()) if per_pass else set()
    out = {n: statistics.median(m.get(n, 0.0) for m in per_pass.values()) for n in names}
    out.pop("transport.cond_energies", None)
    out["transport.conductance_p50_ms"] = _quantile(cond_ms, 0.5) if cond_ms else 0.0
    out["transport.conductance_p90_ms"] = _quantile(cond_ms, 0.9) if cond_ms else 0.0
    return out
