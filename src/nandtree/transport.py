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

**Thermal quadrature.**  At kT > 0 the average runs over the window
[E_f - 20kT, E_f + 20kT] in 16-point Gauss-Legendre panels on a mesh
graded toward the features of the integrand.  Breakpoints sit at E_f,
at the window edges and at every eigenvalue of the Hermitian
probe+tree Hamiltonian (gamma = 0, no leads) in the window.  From each
breakpoint the panels grow 2x outward, starting at a quarter of
min(gamma, Gamma/2, pi kT): every pole of the probe Green's function,
an eigenvalue of H_eff = H - i gamma - i Gamma/2 |0><0|, lies at least
min(gamma, Gamma/2) below the real axis, and the kernel's poles lie
pi kT from it, so no peak is narrower than a few first panels.  The
sum is checked against the same mesh with every panel halved; the
halved mesh's sum is returned, and a relative difference above 1e-8
raises :class:`QuadratureError`.

The eigenvalues come from an inertia count on the tree
(:func:`~nandtree.greens.inertia_count`): by Sylvester's law of
inertia, the positive pivots of the gamma = 0 recursion, leaves first
and then the probe's E - eps0 - t1^2 G_1, number the eigenvalues below
E (Jacobs and Trevisan, "Locating the eigenvalues of trees", Linear
Algebra Appl. 434 (2011) 81-88).  The brackets of every probe are cut
together, up to 8 pieces and one count per step, until each eigenvalue
is known to within the first panel width; no dense matrix is formed.

G_1 depends on neither E_f nor eps0, so probes that share kT, the lead
widths and t1 share one mesh over all their windows, with the
breakpoints of every one, and one G_1 evaluation on it: a sweep along
E or eps0 costs one mesh.  Each probe then sums only the nodes of its
own window, and probes at one E_f share the kernel.  No G_1 call
takes more than ``_MAX_ENERGIES`` energies; a longer mesh goes
through in chunks.  At kT = 0 the conductance is T(E_f), from one G_1
evaluation per distinct E_f.  Scalars and arrays round alike, in
:mod:`nandtree.greens` and in T's square, so this is :func:`transmission`
at E_f bit for bit, for each sample of a batch.

**One compilation per call.**  Each public call (:func:`transmission_curve`,
:func:`conductance`, :func:`sweep`, :func:`readout`) compiles the tree
and its parameters once (:func:`~nandtree.greens.compile_tree`: one
gather of the parameter columns, identical subtrees merged), and its
resonance search and mesh sums, and a sweep's transmission column, all
run on that one compiled tree.  The kT > 0 quadrature of a batch runs
each sample on the batch's compilation, cut to that sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

from .greens import compile_tree, green_tree_many, inertia_count
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

    ``panels`` is the number of panels of the graded mesh in the
    probe's window and ``achieved`` the relative change of the sum when
    every one of them is halved.
    """

    def __init__(self, panels: int, achieved: float):
        super().__init__(panels, achieved)
        self.panels, self.achieved = panels, achieved

    def __str__(self) -> str:
        return (f"thermal quadrature not converged on {self.panels} graded panels, "
                f"relative change {self.achieved:.2e} when halved")


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


def probe_green(g1: complex, probe: ProbeSpec, E: float) -> complex:
    """Probe-dot Green's function 1/(E - eps0 + i Gamma/2 - t1^2 G_1)."""
    return 1.0 / _probe_denominator(g1, probe, E)


def _transmission_from_g1(g1, probe: ProbeSpec, E):
    # np.square, not ** 2: a numpy scalar's ** 2 is libm's pow, an array's
    # a multiply, and they can differ in the last bit.
    return probe.gamma_l * probe.gamma_r / np.square(np.abs(_probe_denominator(g1, probe, E)))


def transmission(tree, params: DotParameters, probe: ProbeSpec, E: float) -> float:
    """Two-lead transmission in [0, 1] at energy E."""
    g1 = green_tree_many(tree, params, E)
    return float(_transmission_from_g1(g1, probe, E))


def transmission_curve(tree, params: DotParameters, probe: ProbeSpec, energies) -> np.ndarray:
    """Vectorized transmission over an energy grid, shaped (samples,) +
    the grid's shape for parameters with a sample axis."""
    energies = np.asarray(energies, dtype=float)
    g1 = green_tree_many(tree, params, energies)
    return _transmission_from_g1(g1, probe, energies)


def thermal_kernel(E, e_f: float, kt: float):
    """Normalized -f'(E - E_f): sech^2((E - E_f)/2kT)/(4kT)."""
    return 1.0 / (4.0 * kt * np.cosh((np.asarray(E) - e_f) / (2.0 * kt)) ** 2)


#: Gauss-Legendre points per quadrature panel.
_ORDER = 16
#: Largest relative change of a sum when every panel is halved.
_TOLERANCE = 1e-8
#: Most energies in one G_1 evaluation; a longer mesh goes through in chunks.
_MAX_ENERGIES = 1 << 17
#: Most pieces each step of the resonance search cuts a bracket into.
_SECTIONS = 8


@functools.cache
def _gauss_legendre():
    """Read-only nodes and weights of one panel on [-1, 1], made on first use.

    Not at import: ``leggauss`` goes through LAPACK, whose first call
    adds about 0.9 MB of resident memory that kT = 0 runs never need.
    """
    x, w = leggauss(_ORDER)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _finest(params: DotParameters, probe: ProbeSpec) -> float:
    """Width of the panels next to a breakpoint.

    A quarter of the least distance from the real axis of a pole of the
    probe Green's function (at least gamma on the tree and Gamma/2 on
    the probe dot) or of the thermal kernel (pi kT).
    """
    lead = 0.5 * (probe.gamma_l + probe.gamma_r)
    return 0.25 * min(params.gamma, lead, math.pi * probe.temperature)


def _resonances(tree, params: DotParameters, eps0: np.ndarray, t2: float, lo: float,
                hi: float, width: float) -> np.ndarray:
    """Eigenvalues in [lo, hi) of the probe+tree Hamiltonians, to ``width``.

    One Hamiltonian per probe detuning in ``eps0``, with coupling t1^2 =
    ``t2``.  Every bracket of every Hamiltonian is cut into up to
    ``_SECTIONS`` equal pieces at once, one :func:`inertia_count` call
    per step, until it is at most 2 ``width`` wide; the midpoints of the
    brackets that still hold an eigenvalue are returned, each within
    ``width`` of its eigenvalues.
    """
    def below(E, eps0):
        # The brackets of all Hamiltonians divide the same interval, so
        # they share energies: the tree's count is taken once for each.
        energies, at = np.unique(E, return_inverse=True)
        counts, g1 = (a[at] for a in inertia_count(tree, params, energies))
        return counts + (E - eps0 - t2 * g1 > 0)  # the probe dot's pivot

    cuts = np.array([[lo, hi]] * len(eps0))
    counts = below(cuts, eps0[:, None])
    size = hi - lo
    while True:
        held = counts[:, 1] > counts[:, 0]
        cuts, counts, eps0 = cuts[held], counts[held], eps0[held]
        if size <= 2.0 * width or not len(cuts):
            return cuts.mean(axis=1)
        pieces = min(_SECTIONS, 2 ** math.ceil(math.log2(size / (2.0 * width))))
        size /= pieces
        inner = cuts[:, :1] + (cuts[:, 1:] - cuts[:, :1]) * (np.arange(1, pieces) / pieces)
        c = below(inner, eps0[:, None])
        cuts = np.hstack([cuts[:, :1], inner, cuts[:, 1:]])
        counts = np.hstack([counts[:, :1], c, counts[:, 1:]])
        cuts = np.stack([cuts[:, :-1], cuts[:, 1:]], axis=2).reshape(-1, 2)
        counts = np.stack([counts[:, :-1], counts[:, 1:]], axis=2).reshape(-1, 2)
        eps0 = np.repeat(eps0, pieces)


def _graded_edges(breaks: np.ndarray, width: float) -> np.ndarray:
    """Panel edges over the sorted, distinct ``breaks``.

    From each breakpoint the panels grow outward as width, 2 width,
    4 width, ... until they reach the middle of the gap to the next
    one, which is also an edge.
    """
    gaps = np.diff(breaks)
    sides = np.floor(np.log2(gaps / (2.0 * width) + 1.0)).astype(np.intp)
    gap = np.repeat(np.arange(len(gaps)), sides)
    step = np.arange(len(gap)) - np.repeat(np.cumsum(sides) - sides, sides) + 1
    offset = width * (2.0 ** step - 1.0)
    middles = (breaks[:-1] + 0.5 * gaps)[sides > 0]
    return np.unique(np.concatenate([breaks, middles, breaks[gap] + offset,
                                     breaks[gap + 1] - offset]))


def _mesh_sums(tree, params: DotParameters, probe: ProbeSpec, edges, panels, fermi, members,
               eps0) -> np.ndarray:
    """Each probe's quadrature sums on the mesh ``edges`` and on it halved.

    The probes ``members[j]`` share the Fermi level ``fermi[j]``, and
    with it the kernel and the window of panels ``panels[j, 0]`` to
    ``panels[j, 1]``; ``eps0`` holds every probe's detuning, and
    ``probe`` kT, the lead widths and t1.  The panels go through G_1 in
    chunks of at most ``_MAX_ENERGIES`` nodes, whole and halved
    together.  Returns the (2, probes) sums.
    """
    x, wx = _gauss_legendre()
    kt, t2 = probe.temperature, probe.t1**2
    sums = np.zeros((2, len(eps0)))
    per_call = _MAX_ENERGIES // (3 * _ORDER)
    for lo in range(0, len(edges) - 1, per_call):
        part = edges[lo:lo + per_call + 1]
        n = len(part) - 1  # whole panels in this chunk; the halved ones follow
        halved = np.empty(2 * n + 1)
        halved[0::2], halved[1::2] = part, 0.5 * (part[:-1] + part[1:])
        half = [0.5 * np.diff(e) for e in (part, halved)]
        E = np.concatenate([((e[:-1] + h)[:, None] + h[:, None] * x).ravel()
                            for e, h in zip((part, halved), half)])
        c = np.concatenate([(h[:, None] * wx).ravel() for h in half])
        c *= probe.gamma_l * probe.gamma_r
        g1 = green_tree_many(tree, params, E)
        # The probe denominator at eps0 = 0: real part and squared imaginary part.
        A = E - t2 * g1.real
        B2 = (0.5 * (probe.gamma_l + probe.gamma_r) - t2 * g1.imag) ** 2
        for j in np.flatnonzero((panels[:, 0] < lo + n) & (panels[:, 1] > lo)):
            first, last = np.clip(panels[j], lo, lo + n) - lo
            for k, (s, t) in enumerate(((first, last), (n + 2 * first, n + 2 * last))):
                s, t = s * _ORDER, t * _ORDER
                kc = c[s:t] * thermal_kernel(E[s:t], fermi[j], kt)
                step = max(1, _MAX_ENERGIES // (t - s))
                for i in range(0, len(members[j]), step):
                    rows = members[j][i:i + step]
                    d = np.subtract(A[s:t], eps0[rows, None])
                    d *= d
                    d += B2[s:t]
                    sums[k, rows] += np.divide(kc, d, out=d).sum(axis=1)
    return sums


def _thermal(tree, params: DotParameters, probes) -> list:
    """Conductances of kT > 0 ``probes`` that differ at most in E_f and eps0.

    One graded mesh over all their windows, and its halving, serve them
    all; see "Thermal quadrature" above.
    """
    probe = probes[0]
    kt, width = probe.temperature, _finest(params, probe)
    eps0 = np.array([p.eps0 for p in probes])
    # E_f = -0.0 and 0.0 are one Fermi level.
    fermi, level = np.unique([p.e_f for p in probes], return_inverse=True)
    members = np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])
    windows = fermi[:, None] + [-20.0 * kt, 20.0 * kt]
    resonances = _resonances(tree, params, np.unique(eps0), probe.t1**2, windows[0, 0],
                             windows[-1, 1], width)
    breaks = np.unique(np.concatenate([windows.ravel(), fermi, resonances]))
    # A window edge a rounding error away from another probe's E_f would
    # only add a sliver panel: breakpoints that close are one, the first.
    breaks = breaks[np.r_[True, np.diff(breaks) > 1e-6 * width]]
    edges = _graded_edges(breaks, width)
    panels = np.searchsorted(edges, windows, side="right") - 1
    coarse, fine = _mesh_sums(tree, params, probe, edges, panels, fermi, members, eps0)
    out = []
    for (first, last), c, f in zip(panels[level], coarse, fine):
        achieved = abs(f - c) / max(abs(f), 1e-300)
        out.append(float(f) if achieved <= _TOLERANCE
                   else QuadratureError(int(last - first), achieved))
    return out


def _conductances(tree, params: DotParameters, probes) -> list:
    """Conductance of each probe, or the :class:`QuadratureError` it failed with.

    kT = 0 probes share one G_1 per E_f, each giving :func:`transmission`
    at its E_f bit for bit, per sample; the others go through
    :func:`_thermal` in groups of equal kT, lead widths and t1.  For
    parameters with a sample axis a conductance is an array over the
    samples, and a probe fails with its first failing sample's error.
    The kT > 0 quadrature runs sample by sample, each on its own mesh,
    and stops at the sample where every probe of its group has failed.
    ``tree`` is compiled once for all of them.
    """
    tree = compile_tree(tree, params)
    out: list = [None] * len(probes)
    cold: dict[float, list[int]] = {}
    warm: dict[tuple[float, ...], list[int]] = {}
    for i, p in enumerate(probes):
        if p.temperature == 0.0:
            # E_f = -0.0 and 0.0 share a key; they give the same G_1.
            cold.setdefault(p.e_f, []).append(i)
        else:
            warm.setdefault((p.temperature, p.gamma_l, p.gamma_r, p.t1), []).append(i)
    for e_f, members in cold.items():
        g1 = green_tree_many(tree, params, e_f)
        for i in members:
            c = _transmission_from_g1(g1, probes[i], probes[i].e_f)
            out[i] = c if params.sample_shape else float(c)
    for members in warm.values():
        group = [probes[i] for i in members]
        rows = map(tree.sample, range(params.sample_shape[0])) if params.sample_shape \
            else [tree]
        found: list = [[] for _ in members]  # each probe's conductances, or its first error
        for row in rows:
            for k, c in enumerate(_thermal(row, row.params, group)):
                if isinstance(found[k], list):
                    found[k] = c if isinstance(c, QuadratureError) else found[k] + [c]
            if not any(isinstance(f, list) for f in found):
                break
        for i, f in zip(members, found):
            if isinstance(f, list):
                f = np.array(f) if params.sample_shape else f[0]
            out[i] = f
    return out


def conductance(tree, params: DotParameters, probe: ProbeSpec) -> float:
    """Landauer conductance (e^2/h): thermal average of the transmission;
    an array over the samples for parameters with a sample axis.

    At temperature 0 this is exactly :func:`transmission` at E_f.
    Otherwise a Gauss-Legendre quadrature over [E_f - 20kT, E_f + 20kT]
    on panels graded toward E_f and the probe+tree resonances, checked
    against every panel halved; a relative change above 1e-8 raises
    :class:`QuadratureError`, the first failing sample's for a batch
    (see :func:`_conductances`).  It is the one-probe case of the
    quadrature :func:`sweep` shares ("Thermal quadrature" above).
    """
    (result,) = _conductances(tree, params, [probe])
    if isinstance(result, QuadratureError):
        raise result
    return result


def sweep(tree, params: DotParameters, probe: ProbeSpec, axis: str, grid) -> ConductanceTrace:
    """Transmission and conductance versus E or eps0, other parameters fixed.

    The grid must be finite and strictly increasing.  Each point's
    conductance is :func:`conductance` at that point, to the quadrature
    tolerance; the points share one graded mesh and its G_1 evaluation,
    as "Thermal quadrature" above describes (bit for bit at kT = 0).
    If points fail to converge, the :class:`QuadratureError` of the
    lowest-index one is raised, with its ``panels`` and ``achieved``.
    """
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise StructureError("sweep grid must be nonempty")
    if not all(map(math.isfinite, grid)):
        raise StructureError("sweep grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise StructureError("sweep grid must be strictly increasing")
    tree = compile_tree(tree, params)
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
    [0.25, 0.75] is flagged ambiguous.  For parameters with a sample
    axis every field is an array over the samples.
    """
    if probe.eps0 != 0.0 or probe.e_f != 0.0:
        raise StructureError("readout requires the probe tuned to eps0 = 0, E_f = 0")
    g = conductance(tree, params, probe)
    bit, ambiguous = g >= READOUT_THRESHOLD, (READOUT_BAND[0] <= g) & (g <= READOUT_BAND[1])
    if params.sample_shape:
        return ReadoutResult(bit=bit.astype(int), conductance=g, ambiguous=ambiguous)
    return ReadoutResult(bit=int(bit), conductance=g, ambiguous=bool(ambiguous))
