"""nandtree benchmark: one workload, one process, one closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload deep_tree --seed 1 --seconds 30 --trace 0

Passes of the workload's fixed job run back to back, each starting after
the previous one ends, until ``--seconds`` have elapsed.  With
``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` untraced and traced passes
alternate and it reports the per-layer metrics.  The line before it is
the run record (machine, versions, seed, raw per-pass wall times).  The
package is imported from ``src/`` of the checkout; the run writes only
under ``.perfbench/`` there.

``pass_s``, ``setup_s`` and ``trace.overhead_s`` are wall times scaled
to a reference CPU speed: a fixed pure-Python kernel is timed between
passes (and between set-up probes), and each pass or probe time is
multiplied by ``CAL_REF_S`` over the kernel's median time around it.  The host
this was written on changes speed by up to 1.8x for minutes at a time;
the scaling cuts the run-to-run spread of ``pass_s`` roughly in half.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

import selftest
import tracer as tr
from harness import Run, calibration_s
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7
MIN_PASSES = 3  # untraced; a traced run needs two of each kind
HARD_STOP_S = 150.0  # no new pass after this, whatever --seconds says
#: Reference time of the calibration kernel; reported times are scaled to
#: the CPU speed at which the kernel takes this long.
CAL_REF_S = 0.030
CAL_REPS = 3  # kernel runs per sample point


class BenchError(Exception):
    """The benchmark cannot run here (no package source under src/)."""


def import_package():
    """Import nandtree from the checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "nandtree", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(SRC, 'nandtree')}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import dataclasses

    import numpy
    import nandtree
    from nandtree import classical, cli, dense, ensemble, greens, layout, model, transport

    if not os.path.abspath(nandtree.__file__).startswith(SRC + os.sep):
        raise BenchError(f"nandtree imported from {nandtree.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=nandtree, np=numpy, replace=dataclasses.replace,
        model=model, greens=greens, dense=dense, transport=transport,
        layout=layout, classical=classical, ensemble=ensemble, cli=cli,
        domain_errors=(transport.QuadratureError, dense.NumericalError,
                       model.StructureError, cli.ConfigError, classical.CapacityError),
    )


def setup_probe(workload, seed) -> float:
    """Set-up as a fresh process sees it: import the package, build specs."""
    inputs = workload.inputs(seed)
    start = time.perf_counter()
    nt = import_package()
    workload.specs(nt, inputs, None)
    return time.perf_counter() - start


def sample_speed(cal: list[float]) -> None:
    cal.extend(calibration_s() for _ in range(CAL_REPS))


def scale_to_reference(times: list[float], cal: list[float]) -> list[float]:
    """Scale time ``i`` by ``CAL_REF_S`` over the median of the kernel
    samples taken just before and just after it."""
    k = CAL_REPS
    return [t * CAL_REF_S / statistics.median(cal[k * i:k * (i + 2)])
            for i, t in enumerate(times)]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up times from fresh processes, one after another, and the
    calibration samples taken between them.

    One extra probe runs first, uncounted, so that byte-code caches are
    written before timing.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, cal = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        sample_speed(cal)
        if i:
            times.append(float(out.stdout.split()[-1]))
    return times, cal


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_passes(args, workload, nt, specs, run, tracer, before):
    """The closed loop.  Returns (traced?, busy time) per pass, in order,
    and the calibration samples taken before the first pass and after each."""
    passes, wall, cal = [], [], []
    start = time.perf_counter()
    sample_speed(cal)
    deadline = start + args.seconds
    pass_id = 0
    while True:
        tracing = tracer is not None and pass_id % 2 == 1
        pass_start = time.perf_counter()
        run.busy = 0.0
        if tracing:
            tracer.pass_id = pass_id
            tracer.wrap()
            run.traced = True
        try:
            workload.run_pass(run, nt, specs)
        finally:
            if tracing:
                run.traced = False
                tracer.unwrap()
        if tracing:
            for problem in selftest.restored(before):
                run.problem(f"after unwrap: {problem}")
        passes.append((tracing, run.busy))
        if pass_id == 0:
            workload.verify(run, nt, specs)
        sample_speed(cal)
        now = time.perf_counter()
        wall.append(now - pass_start)
        pass_id += 1
        n_traced = sum(t for t, _ in passes)
        enough = (len(passes) >= MIN_PASSES if tracer is None
                  else min(n_traced, len(passes) - n_traced) >= 2)
        if enough and (now + statistics.median(wall) > deadline or now - start > HARD_STOP_S):
            return passes, cal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(f"{setup_probe(workload, args.seed):.9f}")
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    setup_times, setup_cal = ([], []) if args.trace else measure_setup(args)
    nt = import_package()

    os.makedirs(WORK_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        specs = workload.specs(nt, workload.inputs(args.seed), outdir)
        tracer = tr.Tracer() if args.trace else None
        run = Run(nt.domain_errors, tracer)
        before = tr.snapshot()
        if tracer is not None:
            for problem in selftest.check_self_times() + selftest.check_wrap_identity():
                run.problem(f"selftest: {problem}")
        passes, cal = run_passes(args, workload, nt, specs, run, tracer, before)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    scaled = scale_to_reference([busy for _, busy in passes], cal)
    untraced = [s for (tracing, _), s in zip(passes, scaled) if not tracing]
    traced = [s for (tracing, _), s in zip(passes, scaled) if tracing]

    if args.trace:
        layer = tr.layer_metrics(tracer.spans)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values = {m["name"]: (layer.get(m["name"], 0.0), m["unit"]) for m in declared["per_layer"]}
    else:
        measured = {
            "setup_s": statistics.median(scale_to_reference(setup_times, setup_cal)),
            "pass_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - run.failed / run.attempted,
        }
        values = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": nt.np.__version__,
        "nandtree": nt.package.__version__, "commit": git_commit(),
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_traced": [tracing for tracing, _ in passes],
        "pass_wall_s": [busy for _, busy in passes], "pass_scaled_s": scaled,
        "calibration_s": cal, "setup_wall_s": setup_times, "setup_calibration_s": setup_cal,
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems,
    }
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    with gzip.open(os.path.join(WORK_DIR, out_name), "wt") as fh:
        json.dump({"record": record, "spans": tracer.spans if tracer else []}, fh)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": run.mismatched == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
