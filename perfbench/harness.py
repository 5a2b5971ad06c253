"""Operation bookkeeping for one benchmark run.

:class:`Run` times each call into the package, counts attempted and
failed operations, and keeps one fingerprint per operation so that every
later pass (traced or not) must reproduce the first pass exactly.  The
first successful result of each operation goes through its correctness
check; checks and fingerprints run outside the timed region.

This module imports nothing heavy, so the set-up probe can time the
package import on its own.
"""

from __future__ import annotations

import hashlib
import time

#: Placeholder returned for an operation that failed, so that operations
#: depending on it count as failed without being called.
FAILED = object()


def fingerprint(material) -> str:
    h = hashlib.sha256()
    if hasattr(material, "tobytes") and hasattr(material, "dtype"):
        h.update(str(material.dtype).encode())
        h.update(str(material.shape).encode())
        h.update(material.tobytes())
    else:
        h.update(repr(material).encode())
    return h.hexdigest()


def nand_value(bits) -> int:
    """NAND tree over heap-ordered leaf bits, evaluated level by level."""
    vals = [int(b) for b in bits]
    while len(vals) > 1:
        vals = [1 - (a & b) for a, b in zip(vals[0::2], vals[1::2])]
    return vals[0]


def calibration_s(depth: int = 11, energies: int = 8) -> float:
    """Wall time of a fixed pure-Python kernel shaped like the package's
    inner loops: a dict-keyed heap-tree recursion in complex arithmetic.

    The host's CPU speed swings by up to ~1.8x for minutes at a time;
    timing this kernel alongside the passes measures the speed of the
    moment.  It uses only the interpreter, so no package or library
    change can alter it.
    """
    start = time.perf_counter()
    n = 2**depth
    eps = {i: (0.1 * (i % 7) if i >= n else 0.0) for i in range(1, 2 * n)}
    coup = {(i, c): 1.0 + 0.01 * (c % 3) for i in range(1, n) for c in (2 * i, 2 * i + 1)}
    for k in range(energies):
        E = complex(-1.0 + 0.25 * k, 1e-3)
        g: dict[int, complex] = {}
        for i in range(2 * n - 1, 0, -1):
            d = E - eps[i]
            if i < n:
                d = d - coup[(i, 2 * i)] ** 2 * g.pop(2 * i) - coup[(i, 2 * i + 1)] ** 2 * g.pop(2 * i + 1)
            g[i] = 1.0 / d
    return time.perf_counter() - start


class Run:
    """Counters, fingerprints and the timer shared by every pass of a run."""

    def __init__(self, domain_errors: tuple[type[BaseException], ...], tracer=None):
        self.domain_errors = domain_errors
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.busy = 0.0
        self.problems: list[str] = []
        self._outcomes: dict[str, tuple[str, bool]] = {}

    def problem(self, message: str) -> None:
        self.mismatched += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def call(self, key, fn, *args, check=None, view=None, keep=True, **kwargs):
        """One timed operation.  ``view`` maps the result to what is
        fingerprinted and checked; ``keep=False`` marks an intermediate
        whose correctness shows in the operations that consume it.
        """
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.failed += 1
            return FAILED
        error = None
        tracer = self.tracer if self.traced else None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.domain_errors as exc:
            error, result = exc, FAILED
        finally:
            self.busy += time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        if error is not None:
            self.failed += 1
        if not keep:
            return result
        material = f"raise {type(error).__name__}: {error}" if error else (
            view(result) if view else result)
        digest = fingerprint(material)
        prior = self._outcomes.get(key)
        if prior is None:
            ok = error is None and (check is None or bool(check(material)))
            if error is None and not ok:
                self.problem(f"{key}: output failed its correctness check")
            self._outcomes[key] = (digest, ok)
        elif digest != prior[0]:
            ok = False
            self.problem(f"{key}: output differs from the first pass")
        else:
            ok = prior[1]
        if error is None and not ok:
            self.failed += 1
        return result

    def verify(self, key, check) -> None:
        """A check that is not a pass output, made once per run."""
        self.attempted += 1
        try:
            ok = bool(check())
        except self.domain_errors as exc:
            ok = False
            key = f"{key} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed += 1
            self.problem(f"{key}: check failed")
