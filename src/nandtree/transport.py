"""Probe-dot transmission and finite-temperature Landauer conductance.

The probe dot (dot 0) couples to the tree root through t1 and to two
leads treated in the wide-band limit, so the lead self energies are
purely imaginary, Sigma_l,r = -i Gamma_l,r / 2.  The two-lead
transmission is the Breit-Wigner form

    T(E) = Gamma_l Gamma_r |G_0(E)|^2

which reduces to the symmetric-lead expression
Gamma^2/4 / ((t1^2 Im G_1 - Gamma/2)^2 + (E - t1^2 Re G_1 - eps0)^2).
Conductance is the thermal average of T against the normalized kernel
w(E) = sech^2((E - E_f)/2kT)/(4kT) (the negative derivative of the
Fermi function), in units of e^2/h.

**Thermal quadrature.**  At kT > 0 the average runs over
[E_f - 20kT, E_f + 20kT] in 16-point Gauss-Legendre panels, doubling
the panel count from 8 to 8192 until the relative change between two
counts is at most 1e-8.  The nodes depend only on the pair
(E_f, kT), and G_1 at a node on neither eps0 nor the probe
couplings, so :func:`sweep` evaluates its points together
(:func:`conductance` is the one-probe case): at each panel count one
:func:`green_tree_many` call takes the nodes of every (E_f, kT) pair
that still has an unconverged probe, and each probe then forms its
own transmission and sum from its pair's share of G_1.  A probe
leaves as soon as it converges.  No call, and no set of nodes,
weights and G_1 held at once, exceeds one level of the finest count
(8192 x 16 energies): the pairs of a level go through in chunks of
that size.  Each probe's sum is the one a probe-by-probe quadrature
forms, so the result is the same bit for bit.  At kT = 0 the
conductance is T(E_f) from :func:`transmission` at the scalar
energy, which rounds as CPython's complex arithmetic does (see
:mod:`nandtree.greens`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

from .greens import GreenValue, green_tree_many
from .model import DotParameters, StructureError

#: Default probe-to-tree coupling (units of t).  The source material does
#: not pin t1; this value keeps the probe weakly invasive (t1^2 Im G_1
#: small against Gamma/2 for "1" outputs) while still blocking hard on a
#: "0" pole, and gives clean readout margins across the tested regimes.
DEFAULT_T1 = 0.15

#: Readout decision threshold and ambiguity band, in e^2/h for
#: symmetric leads (ideal outcomes are ~1 and ~0).
READOUT_THRESHOLD = 0.5
READOUT_BAND = (0.25, 0.75)


class QuadratureError(RuntimeError):
    """Thermal quadrature failed to converge.

    ``panels`` is the last panel count tried and ``achieved`` the
    relative change between it and the count before.
    """

    def __init__(self, panels: int, achieved: float):
        super().__init__(panels, achieved)
        self.panels, self.achieved = panels, achieved

    def __str__(self) -> str:
        return (f"thermal quadrature stalled at {self.panels} panels, "
                f"relative change {self.achieved:.2e}")


@dataclass(frozen=True)
class ProbeSpec:
    """Probe-dot and lead parameters (units of t)."""

    gamma_l: float = 0.05
    gamma_r: float = 0.05
    t1: float = DEFAULT_T1
    eps0: float = 0.0
    e_f: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise StructureError(f"{name} must be finite, got {value!r}")
        if self.gamma_l <= 0 or self.gamma_r <= 0:
            raise StructureError("lead broadenings Gamma_l, Gamma_r must be positive")
        if self.temperature < 0:
            raise StructureError("temperature must be nonnegative")


@dataclass(frozen=True)
class ConductanceTrace:
    """Transmission/conductance sampled over a swept parameter."""

    axis: str
    grid: tuple[float, ...]
    transmission: tuple[float, ...]
    conductance: tuple[float, ...]
    metadata: Mapping[str, float | str]


@dataclass(frozen=True)
class ReadoutResult:
    bit: int
    conductance: float
    ambiguous: bool


def _probe_denominator(g1, probe: ProbeSpec, E):
    """E - eps0 + i Gamma/2 - t1^2 G_1, the inverse probe-dot Green's function."""
    return E - probe.eps0 + 0.5j * (probe.gamma_l + probe.gamma_r) - probe.t1**2 * g1


def probe_green(G1, probe: ProbeSpec, E: float) -> complex:
    """Probe-dot Green's function 1/(E - eps0 + i Gamma/2 - t1^2 G_1)."""
    g1 = G1.value if isinstance(G1, GreenValue) else G1
    return 1.0 / _probe_denominator(g1, probe, E)


def _transmission_from_g1(g1, probe: ProbeSpec, E):
    return probe.gamma_l * probe.gamma_r / np.abs(_probe_denominator(g1, probe, E)) ** 2


def transmission(tree, params: DotParameters, probe: ProbeSpec, E: float) -> float:
    """Two-lead transmission in [0, 1] at energy E."""
    g1 = green_tree_many(tree, params, E)
    return float(_transmission_from_g1(g1, probe, E))


def transmission_curve(tree, params: DotParameters, probe: ProbeSpec, energies) -> np.ndarray:
    """Vectorized transmission over an energy grid."""
    energies = np.asarray(energies, dtype=float)
    g1 = green_tree_many(tree, params, energies)
    return _transmission_from_g1(g1, probe, energies)


def thermal_kernel(E, e_f: float, kt: float):
    """Normalized -f'(E - E_f): sech^2((E - E_f)/2kT)/(4kT)."""
    return 1.0 / (4.0 * kt * np.cosh((np.asarray(E) - e_f) / (2.0 * kt)) ** 2)


#: Gauss-Legendre points per quadrature panel.
_ORDER = 16
#: Panel counts tried in turn; a probe not converged at the last one fails.
_PANELS = tuple(2**k for k in range(3, 14))
#: Most quadrature energies in one G_1 evaluation: one level of the finest count.
_MAX_ENERGIES = _PANELS[-1] * _ORDER


@functools.cache
def _gauss_legendre():
    """Read-only nodes and weights of one panel on [-1, 1], made on first use.

    Not at import: ``leggauss`` goes through LAPACK, whose first call
    adds about 0.9 MB of resident memory that kT = 0 runs never need.
    """
    x, w = leggauss(_ORDER)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _sums(tree, params: DotParameters, probes, chunk, panels: int) -> list[list[float]]:
    """Quadrature sums at ``panels`` of the probes of each pair in ``chunk``.

    ``chunk`` holds ((E_f, kT), probe indices) items; one G_1 evaluation
    serves them all.  Its arrays are freed on return, before the next.
    """
    x, wx = _gauss_legendre()
    energies = np.empty((len(chunk), panels * _ORDER))
    weights = []
    for E, ((e_f, kt), _) in zip(energies, chunk):
        edges = np.linspace(e_f - 20.0 * kt, e_f + 20.0 * kt, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        E[:] = (centers[:, None] + half * x[None, :]).ravel()
        weights.append(np.broadcast_to(half * wx[None, :], (panels, _ORDER)).ravel()
                       * thermal_kernel(E, e_f, kt))
    g1 = green_tree_many(tree, params, energies.ravel()).reshape(energies.shape)
    return [[float(np.sum(wk * _transmission_from_g1(g, probes[i], E))) for i in members]
            for (_, members), E, wk, g in zip(chunk, energies, weights, g1)]


def _conductances(tree, params: DotParameters, probes) -> list:
    """Conductance of each probe, or the :class:`QuadratureError` it failed with.

    kT = 0 probes take :func:`transmission` at E_f.  The others are
    grouped by (E_f, kT); see "Thermal quadrature" above.
    """
    out: list = [None] * len(probes)
    pending: dict[tuple[float, float], list[int]] = {}
    for i, p in enumerate(probes):
        if p.temperature == 0.0:
            out[i] = transmission(tree, params, p, p.e_f)
        else:
            # E_f = -0.0 and 0.0 share a key; they give the same nodes and kernel.
            pending.setdefault((p.e_f, p.temperature), []).append(i)
    prev: dict[int, float] = {}
    for panels in _PANELS:
        if not pending:
            break
        pairs = list(pending.items())
        per_call = max(1, _MAX_ENERGIES // (panels * _ORDER))
        for lo in range(0, len(pairs), per_call):
            chunk = pairs[lo:lo + per_call]
            for (key, members), sums in zip(chunk, _sums(tree, params, probes, chunk, panels)):
                for i, cur in zip(members, sums):
                    if i in prev:
                        achieved = abs(cur - prev[i]) / max(abs(cur), 1e-300)
                        if achieved <= 1e-8:
                            out[i] = cur
                        elif panels == _PANELS[-1]:
                            out[i] = QuadratureError(panels, achieved)
                    prev[i] = cur
                members[:] = [i for i in members if out[i] is None]
                if not members:
                    del pending[key]
    return out


def conductance(tree, params: DotParameters, probe: ProbeSpec) -> float:
    """Landauer conductance (e^2/h): thermal average of the transmission.

    At temperature 0 this is exactly T(E_f), at the scalar energy.
    Otherwise a Gauss-Legendre quadrature over [E_f - 20kT, E_f + 20kT]
    with panel doubling until the relative change drops below 1e-8, one
    G_1 evaluation per panel count; past 8192 panels it raises
    :class:`QuadratureError` with the last count and change.  It is the
    one-probe case of the quadrature :func:`sweep` batches.
    """
    (result,) = _conductances(tree, params, [probe])
    if isinstance(result, QuadratureError):
        raise result
    return result


def sweep(tree, params: DotParameters, probe: ProbeSpec, axis: str, grid) -> ConductanceTrace:
    """Transmission and conductance versus E or eps0, other parameters fixed.

    The grid must be finite and strictly increasing.  Each point's
    conductance is :func:`conductance` at that point, bit for bit, with
    the G_1 evaluations shared as "Thermal quadrature" above describes
    (along ``eps0`` every point has the same nodes).  If points fail to
    converge, the :class:`QuadratureError` of the lowest-index one is
    raised, with its ``panels`` and ``achieved``.
    """
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise StructureError("sweep grid must be nonempty")
    if not all(map(math.isfinite, grid)):
        raise StructureError("sweep grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise StructureError("sweep grid must be strictly increasing")
    if axis == "E":
        trans = [float(t) for t in transmission_curve(tree, params, probe, grid)]
        probes = [replace(probe, e_f=v) for v in grid]
    elif axis == "eps0":
        # G_1 does not depend on eps0: one evaluation at E_f serves every point.
        g1 = green_tree_many(tree, params, probe.e_f)
        probes = [replace(probe, eps0=v) for v in grid]
        trans = [float(_transmission_from_g1(g1, p, p.e_f)) for p in probes]
    else:
        raise StructureError(f"sweep axis must be 'E' or 'eps0', got {axis!r}")
    cond = _conductances(tree, params, probes)
    for c in cond:
        if isinstance(c, QuadratureError):
            raise c
    meta = {
        "axis": axis,
        "gamma_l": probe.gamma_l,
        "gamma_r": probe.gamma_r,
        "t1": probe.t1,
        "eps0": probe.eps0,
        "e_f": probe.e_f,
        "temperature": probe.temperature,
        "gamma": params.gamma,
        "delta": params.delta,
    }
    return ConductanceTrace(
        axis=axis,
        grid=grid,
        transmission=tuple(trans),
        conductance=tuple(cond),
        metadata=meta,
    )


def readout(tree, params: DotParameters, probe: ProbeSpec) -> ReadoutResult:
    """Logical readout: presence (>= 0.5 e^2/h) or absence of transport.

    Requires the probe tuned to eps0 = 0, E_f = 0; conductance inside
    [0.25, 0.75] is flagged ambiguous.
    """
    if probe.eps0 != 0.0 or probe.e_f != 0.0:
        raise StructureError("readout requires the probe tuned to eps0 = 0, E_f = 0")
    g = conductance(tree, params, probe)
    return ReadoutResult(
        bit=1 if g >= READOUT_THRESHOLD else 0,
        conductance=g,
        ambiguous=READOUT_BAND[0] <= g <= READOUT_BAND[1],
    )
