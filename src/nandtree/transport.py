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
Algebra Appl. 434 (2011) 81-88).  The brackets of every detuning are cut
together, up to 8 pieces and one count per step, until each eigenvalue
is known to within the first panel width; no dense matrix is formed.

G_1 depends on neither E_f nor eps0, so the unit of work is one probe
(kT, lead widths, t1) with arrays of points (E_f, eps0).  At kT > 0 the
points share one mesh over all their windows, with the breakpoints of
every one, and one G_1 evaluation on it: a sweep along E or eps0 costs
one mesh.  Each point sums only the nodes of its own window, points at
one E_f share the kernel, and the lowest-index point that fails raises.
No G_1 call takes more than ``_MAX_ENERGIES`` energies; a longer mesh
goes through in chunks.  At kT = 0 the conductance is T(E_f), from one
G_1 evaluation over the distinct E_f.  Scalars and arrays round alike,
in :mod:`nandtree.greens` and in T's square, so this is
:func:`transmission` at each point bit for bit, for each sample of a
batch.

**Kept results.**  Each public call (:func:`transmission_curve`,
:func:`conductance`, :func:`sweep`, :func:`readout`) gathers the
parameter columns of the tree at most once.  At kT = 0 it makes one
engine call over the distinct E_f, which merges only when there is
more than one: a kT = 0 :func:`readout` or :func:`conductance`, or an
eps0 sweep, evaluates one energy and runs unmerged (see "Merged
subtrees" in :mod:`nandtree.greens`), and keeps nothing.  At kT > 0 the
:class:`~nandtree.model.DotParameters` keep two things, under the tree
object (its identity, not its value):

- the compiled schedule (:func:`~nandtree.greens.compile_tree`: one
  gather, identical subtrees merged), on which the resonance search,
  the mesh sums and a sweep's transmission column all run; a batch's
  samples run on the batch's schedule, cut to each;
- each resonance search's eigenvalue estimates, per sample, under
  exactly what the search reads: the bits of the detunings searched,
  t1^2, the window ends and the first-panel width.

A later kT > 0 call with the same tree and parameters compiles nothing,
and one whose search reads the same inputs makes no
:func:`~nandtree.greens.inertia_count` step.  The entries live exactly
as long as the parameters and keep the tree alive that long (they hold
no reference back to the parameters, so no cycle delays freeing); a
:func:`dataclasses.replace` copy starts with none.  Concurrent calls
may both compute an entry, and either serves: a result is bit for bit
what it is without them.  Memory grows by one compiled schedule per
tree, and by at most one float per eigenvalue in the window for each
detuning of each distinct search.  A tree already compiled by the
caller is taken as it is and keeps nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from .greens import (CompiledTree, _one_realization, compile_tree, green_tree_many,
                     inertia_count)
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
        if self.t1 <= 0:
            raise StructureError(f"probe coupling t1 must be positive, got {self.t1}")
        try:
            math.pow(self.t1, 2)
        except OverflowError:
            raise StructureError(f"t1 squared must be finite, got t1 = {self.t1!r}") from None
        if not math.isfinite(self.gamma_l * self.gamma_r):
            raise StructureError(f"gamma_l * gamma_r must be finite, got "
                                 f"{self.gamma_l!r} * {self.gamma_r!r}")
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


def _probe_denominator(g1, probe: ProbeSpec, E, eps0):
    """E - eps0 + i Gamma/2 - t1^2 G_1, the inverse probe-dot Green's function."""
    return E - eps0 + 0.5j * (probe.gamma_l + probe.gamma_r) - probe.t1**2 * g1


def probe_green(g1: complex, probe: ProbeSpec, E: float) -> complex:
    """Probe-dot Green's function 1/(E - eps0 + i Gamma/2 - t1^2 G_1)."""
    return 1.0 / _probe_denominator(g1, probe, E, probe.eps0)


def _transmission_from_g1(g1, probe: ProbeSpec, E, eps0):
    # np.square, not ** 2: a numpy scalar's ** 2 is libm's pow, an array's
    # a multiply, and they can differ in the last bit.  Past |d| of about
    # 1.3e154 the square overflows to inf, and T to its limit 0; so does
    # E - eps0 past the largest float.
    with np.errstate(over="ignore"):
        d = _probe_denominator(g1, probe, E, eps0)
        return probe.gamma_l * probe.gamma_r / np.square(np.abs(d))


def transmission(tree, params: DotParameters, probe: ProbeSpec, E: float) -> float:
    """Two-lead transmission in [0, 1] at energy E."""
    return float(transmission_curve(tree, params, probe, E))


def transmission_curve(tree, params: DotParameters, probe: ProbeSpec, energies) -> np.ndarray:
    """Vectorized transmission over an energy grid, shaped (samples,) +
    the grid's shape for parameters with a sample axis."""
    energies = np.asarray(energies, dtype=float)
    g1 = green_tree_many(tree, params, energies)
    return _transmission_from_g1(g1, probe, energies, probe.eps0)


def thermal_kernel(E, e_f: float, kt: float):
    """Normalized -f'(E - E_f): sech^2((E - E_f)/2kT)/(4kT).

    Beyond about 710 kT from E_f the square of the cosh overflows to
    inf (the cosh itself beyond about 1420 kT), and the kernel is its
    limit 0.0, with no warning.
    """
    with np.errstate(over="ignore"):
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

    Not at import, and neither is ``numpy.polynomial``, which the first
    call imports (about 3 ms and 0.7 MB of resident memory); ``leggauss``
    goes through LAPACK, whose first call adds about 1 MB more.  kT = 0
    runs need none of it.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_ORDER)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _finest(params: DotParameters, probe: ProbeSpec) -> float:
    """Width of the panels next to a breakpoint.

    A quarter of the least distance from the real axis of a pole of the
    probe Green's function (at least gamma on the tree and Gamma/2 on
    the probe dot) or of the thermal kernel (pi kT).
    """
    lead = 0.5 * (probe.gamma_l + probe.gamma_r)
    return 0.25 * min(params.gamma, lead, math.pi * probe.temperature)


class _Kept(NamedTuple):
    """What a :class:`~nandtree.model.DotParameters` keeps for one tree."""

    tree: object  # held, so that no other object takes its id
    steps: tuple  # compile_tree's schedule; not a CompiledTree, which holds the parameters
    searches: dict  # per sample (0 for one realization): {search inputs: resonances}


def _kept(tree, params: DotParameters) -> _Kept:
    """The compiled schedule and resonance searches kept on ``params`` for
    ``tree``, compiled on the first call; see "Kept results" above.  A
    tree the caller compiled is taken as it is and keeps nothing."""
    if isinstance(tree, CompiledTree):
        return _Kept(tree, compile_tree(tree, params).steps, {})
    kept = params._kept.get(id(tree))
    if kept is None:
        kept = params._kept[id(tree)] = _Kept(tree, compile_tree(tree, params).steps, {})
    return kept


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
    """Each point's quadrature sums on the mesh ``edges`` and on it halved.

    The points ``members[j]`` share the Fermi level ``fermi[j]``, and
    with it the kernel and the window of panels ``panels[j, 0]`` to
    ``panels[j, 1]``; ``eps0`` holds every point's detuning, and
    ``probe`` kT, the lead widths and t1.  The panels go through G_1 in
    chunks of at most ``_MAX_ENERGIES`` nodes, whole and halved
    together.  Returns the (2, points) sums.
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
        # The probe denominator at eps0 = 0: real part and squared imaginary
        # part, inf far out, where the terms are 0.
        with np.errstate(over="ignore"):
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
                    with np.errstate(over="ignore"):  # inf far out: the term is 0
                        d *= d
                    d += B2[s:t]
                    sums[k, rows] += np.divide(kc, d, out=d).sum(axis=1)
    return sums


def _thermal(tree, params: DotParameters, probe: ProbeSpec, e_f, eps0, searches=None):
    """Quadrature at kT > 0 of the points (``e_f[i]``, ``eps0[i]``), with
    ``probe``'s kT, lead widths and t1.

    One graded mesh over all their windows, and its halving, serve them
    all; see "Thermal quadrature" above.  The resonance search is looked
    up in, or else kept in, the dict ``searches`` under its inputs (see
    "Kept results" above); ``None`` keeps it nowhere.  Returns three
    arrays over the points: the halved mesh's sum, its relative change
    from the whole mesh's, and the number of panels in the point's window.
    """
    kt, width = probe.temperature, _finest(params, probe)
    # E_f = -0.0 and 0.0 are one Fermi level.
    fermi, level = np.unique(e_f, return_inverse=True)
    members = np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])
    windows = fermi[:, None] + [-20.0 * kt, 20.0 * kt]
    if not np.isfinite(windows).all():
        raise StructureError(f"thermal window E_f +- 20 kT overflows at kT = {kt!r}")
    lost = np.flatnonzero((windows == fermi[:, None]).any(axis=1))
    if len(lost):
        raise StructureError(f"thermal window E_f +- 20 kT rounds to E_f = "
                             f"{float(fermi[lost[0]])!r} at kT = {kt!r}")
    detunings, t2, lo, hi = np.unique(eps0), probe.t1**2, windows[0, 0], windows[-1, 1]
    # Keyed by the bits of every input, so that -0.0 and 0.0 are two keys.
    key = (detunings.tobytes(), np.array([t2, lo, hi, width]).tobytes())
    searches = {} if searches is None else searches
    if key not in searches:
        searches[key] = _resonances(tree, params, detunings, t2, lo, hi, width)
        searches[key].setflags(write=False)
    resonances = searches[key]
    breaks = np.unique(np.concatenate([windows.ravel(), fermi, resonances]))
    # A window edge a rounding error away from another point's E_f would
    # only add a sliver panel: breakpoints that close are one, the first.
    breaks = breaks[np.r_[True, np.diff(breaks) > 1e-6 * width]]
    edges = _graded_edges(breaks, width)
    panels = np.searchsorted(edges, windows, side="right") - 1
    coarse, fine = _mesh_sums(tree, params, probe, edges, panels, fermi, members, eps0)
    achieved = np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)
    return fine, achieved, (panels[:, 1] - panels[:, 0])[level]


def _conductances(tree, params: DotParameters, probe: ProbeSpec, e_f, eps0) -> np.ndarray:
    """Conductance at each point (``e_f[i]``, ``eps0[i]``), with ``probe``'s
    kT, lead widths and t1; shaped (samples, points) for parameters with
    a sample axis, (points,) otherwise.

    At kT = 0 one G_1 evaluation over the distinct E_f gives
    :func:`transmission` at each point bit for bit, per sample.
    Otherwise :func:`_thermal` runs sample by sample, each on the
    batch's compilation cut to it (both kept on ``params``; see "Kept
    results" above), and the first sample with a failing point raises
    the :class:`QuadratureError` of its lowest-index one.  ``tree`` is
    gathered at most once, and merged only for the quadrature or for
    more than one distinct E_f.
    """
    if probe.temperature == 0.0:
        # E_f = -0.0 and 0.0 are one energy; they give the same G_1.
        fermi, at = np.unique(e_f, return_inverse=True)
        g1 = green_tree_many(tree, params, fermi)[..., at]
        return _transmission_from_g1(g1, probe, e_f, eps0)
    kept = _kept(tree, params)
    tree = CompiledTree(params, kept.steps)
    rows = map(tree.sample, range(params.sample_shape[0])) if params.sample_shape else [tree]
    out = []
    for i, row in enumerate(rows):
        searches = kept.searches.setdefault(i, {})
        total, achieved, panels = _thermal(row, row.params, probe, e_f, eps0, searches)
        failed = np.flatnonzero(~(achieved <= _TOLERANCE))  # NaN fails too
        if len(failed):
            raise QuadratureError(int(panels[failed[0]]), float(achieved[failed[0]]))
        out.append(total)
    return np.array(out) if params.sample_shape else out[0]


def conductance(tree, params: DotParameters, probe: ProbeSpec) -> float:
    """Landauer conductance (e^2/h): thermal average of the transmission;
    an array over the samples for parameters with a sample axis.

    At temperature 0 this is exactly :func:`transmission` at E_f.
    Otherwise a Gauss-Legendre quadrature over [E_f - 20kT, E_f + 20kT]
    on panels graded toward E_f and the probe+tree resonances, checked
    against every panel halved; a relative change above 1e-8 raises
    :class:`QuadratureError`, the first failing sample's for a batch.
    It is the one-point case of :func:`_conductances`, which
    :func:`sweep` runs on a whole grid ("Thermal quadrature" above).
    """
    g = _conductances(tree, params, probe, np.array([probe.e_f]), np.array([probe.eps0]))
    return g[:, 0] if params.sample_shape else float(g[0])


def sweep(tree, params: DotParameters, probe: ProbeSpec, axis: str, grid) -> ConductanceTrace:
    """Transmission and conductance versus E or eps0, other parameters fixed.

    The grid must be finite and strictly increasing, and ``params`` one
    realization.  The grid makes the points of :func:`_conductances`:
    its kT = 0 call gives the transmission column, which is the
    conductance column at kT = 0, and a second call at the probe's kT
    gives each point's :func:`conductance` otherwise, to the quadrature
    tolerance.  If points fail to converge, the :class:`QuadratureError`
    of the lowest-index one is raised, with its ``panels`` and
    ``achieved``.
    """
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise StructureError("sweep grid must be nonempty")
    if not all(map(math.isfinite, grid)):
        raise StructureError("sweep grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise StructureError("sweep grid must be strictly increasing")
    if axis not in ("E", "eps0"):
        raise StructureError(f"sweep axis must be 'E' or 'eps0', got {axis!r}")
    _one_realization(params, "sweep")
    points = np.array(grid)
    fixed = np.full_like(points, probe.eps0 if axis == "E" else probe.e_f)
    e_f, eps0 = (points, fixed) if axis == "E" else (fixed, points)
    # At kT > 0 the transmission column runs on the quadrature's kept compilation.
    column = CompiledTree(params, _kept(tree, params).steps) if probe.temperature > 0.0 else tree
    trans = _conductances(column, params, replace(probe, temperature=0.0), e_f, eps0)
    cond = trans if probe.temperature == 0.0 else _conductances(tree, params, probe, e_f, eps0)
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
        transmission=tuple(map(float, trans)),
        conductance=tuple(map(float, cond)),
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
