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
"""

from __future__ import annotations

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


def conductance(tree, params: DotParameters, probe: ProbeSpec) -> float:
    """Landauer conductance (e^2/h): thermal average of the transmission.

    At temperature 0 this is exactly T(E_f).  Otherwise a Gauss-Legendre
    quadrature over [E_f - 20kT, E_f + 20kT] with panel doubling until
    the relative change drops below 1e-8; past 8192 panels it raises
    :class:`QuadratureError` with the last count and change.
    """
    kt = probe.temperature
    if kt == 0.0:
        return transmission(tree, params, probe, probe.e_f)
    lo, hi = probe.e_f - 20.0 * kt, probe.e_f + 20.0 * kt
    x16, w16 = leggauss(16)

    def integrate(panels: int) -> float:
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        E = (centers[:, None] + half * x16[None, :]).ravel()
        w = np.broadcast_to(half * w16[None, :], (panels, 16)).ravel()
        tvals = transmission_curve(tree, params, probe, E)
        return float(np.sum(w * thermal_kernel(E, probe.e_f, kt) * tvals))

    prev = integrate(8)
    for panels in (2**k for k in range(4, 14)):
        cur = integrate(panels)
        achieved = abs(cur - prev) / max(abs(cur), 1e-300)
        if achieved <= 1e-8:
            return cur
        prev = cur
    raise QuadratureError(panels, achieved)


def sweep(tree, params: DotParameters, probe: ProbeSpec, axis: str, grid) -> ConductanceTrace:
    """Transmission and conductance versus E or eps0, other parameters fixed."""
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise StructureError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise StructureError("sweep grid must be strictly increasing")
    trans: list[float] = []
    cond: list[float] = []
    if axis == "E":
        trans = [float(t) for t in transmission_curve(tree, params, probe, grid)]
        for v in grid:
            cond.append(conductance(tree, params, replace(probe, e_f=v)))
    elif axis == "eps0":
        # G_1 does not depend on eps0: one evaluation at E_f serves every point.
        g1 = green_tree_many(tree, params, probe.e_f)
        for v in grid:
            p = replace(probe, eps0=v)
            trans.append(float(_transmission_from_g1(g1, p, p.e_f)))
            cond.append(conductance(tree, params, p))
    else:
        raise StructureError(f"sweep axis must be 'E' or 'eps0', got {axis!r}")
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
