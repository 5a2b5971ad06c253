import copy
import gc
import math
import pickle
import re
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nandtree import (
    ProbeSpec,
    StructureError,
    assemble,
    build_tree,
    conductance,
    greens,
    ideal_parameters,
    probe_green,
    readout,
    sample_disorder,
    sample_disorder_many,
    sweep,
    transmission,
    transmission_curve,
    transport,
)
from nandtree.classical import eval_nand
from nandtree.layout import build_hfractal, chain_below, expand_to_tree
from nandtree.model import DisorderSpec, TreeSpec
from nandtree.transport import (
    READOUT_BAND,
    ConductanceTrace,
    QuadratureError,
    _transmission_from_g1,
    green_tree_many,
    thermal_kernel,
)


def test_probe_spec_validation():
    with pytest.raises(StructureError):
        ProbeSpec(gamma_l=0.0)
    with pytest.raises(StructureError):
        ProbeSpec(temperature=-0.1)
    for t1 in (0.0, -0.15):
        with pytest.raises(StructureError, match="t1 must be positive"):
            ProbeSpec(t1=t1)


def test_probe_spec_rejects_products_that_overflow():
    # t1**2 and Gamma_l * Gamma_r must be finite floats, or conductance
    # raises OverflowError or T is inf / inf = NaN.
    with pytest.raises(StructureError, match="^t1 squared must be finite, got t1 = 1e"):
        ProbeSpec(t1=1e200)
    with pytest.raises(StructureError, match=r"^gamma_l \* gamma_r must be finite"):
        ProbeSpec(gamma_l=1e200, gamma_r=1e200)
    assert ProbeSpec(t1=1e154, gamma_l=1e154, gamma_r=1e154).t1 == 1e154


def test_far_energies_transmit_nothing():
    # Past |E - eps0| of about 1.3e154 the squares in T and in the mesh
    # sums overflow to inf: T is its limit 0, with no warning.
    tree = build_tree(5, [0] * 32)
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec()
    assert transmission(tree, params, probe, 1e200) == 0.0
    assert transmission_curve(tree, params, probe, [0.0, 1e155])[1] == 0.0
    assert sweep(tree, params, probe, "E", [1e150, 1e160]).conductance[1] == 0.0
    for kt in (0.0, 1e190):
        assert conductance(tree, params, ProbeSpec(e_f=1e200, temperature=kt)) == 0.0


def test_probe_green_values():
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05)  # Gamma = 0.1
    assert probe_green(0.0, probe, 0.0) == pytest.approx(-20j)
    # a "0"-type pole on the tree side dominates the inverse
    strong = ProbeSpec(gamma_l=0.05, gamma_r=0.05, t1=1.0)
    assert abs(probe_green(1e6 + 0j, strong, 0.0)) <= 1.1e-6
    # on resonance with no tree coupling the result is purely imaginary
    g = probe_green(0.0, probe, probe.eps0)
    assert g.real == 0.0


def test_transmission_open_channel():
    # "1"-type tree: G1(0) ~ -i gamma beta is negligible, T = 1.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 0.0)
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05)
    assert transmission(tree, params, probe, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_transmission_blocked_channel():
    tree = build_tree(1, (1, 1))
    params = ideal_parameters(tree, 10.0, 0.0)
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05, t1=1.0)
    assert transmission(tree, params, probe, 0.0) <= 1e-6


def test_transmission_asymmetric_peak():
    # Breit-Wigner peak value 4 Gl Gr / (Gl + Gr)^2 for asymmetric leads.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 0.0)
    probe = ProbeSpec(gamma_l=0.2, gamma_r=0.05)
    assert transmission(tree, params, probe, 0.0) == pytest.approx(0.64, abs=1e-6)


def test_transmission_bounded():
    rng = np.random.default_rng(8)
    tree = build_tree(3, rng.integers(0, 2, size=8))
    params = sample_disorder(
        tree, ideal_parameters(tree, 10.0, 1e-3), DisorderSpec(0.1, 0.1, seed=1)
    )
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05, t1=0.5)
    curve = transmission_curve(tree, params, probe, np.linspace(-4, 4, 400))
    assert np.all(curve >= 0.0) and np.all(curve <= 1.0 + 1e-9)


def test_thermal_kernel_normalized():
    for kt in (0.001, 0.02, 0.5):
        E = np.linspace(-20 * kt, 20 * kt, 20001)
        total = np.trapezoid(thermal_kernel(E, 0.0, kt), E)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_conductance_zero_temperature_is_transmission():
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec()
    assert conductance(tree, params, probe) == transmission(tree, params, probe, probe.e_f)


def test_conductance_low_temperature_limit():
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    cold = ProbeSpec(temperature=1e-6)
    zero = ProbeSpec()
    g_cold = conductance(tree, params, cold)
    g_zero = transmission(tree, params, zero, 0.0)
    assert abs(g_cold - g_zero) <= 1e-8


def test_sub_temperature_contrast():
    # Thermal smearing well above Gamma still leaves a >= 10x contrast
    # between "1" and "0" outputs.
    probe = ProbeSpec(gamma_l=0.0005, gamma_r=0.0005, temperature=0.02)  # kT = 20 Gamma
    one = build_tree(5, [0] * 32)
    zero = build_tree(5, [1] * 32)
    g1 = conductance(one, ideal_parameters(one, 10.0, 1e-6), probe)
    g0 = conductance(zero, ideal_parameters(zero, 10.0, 1e-6), probe)
    assert g1 / g0 >= 10.0


def test_peak_dip_separation():
    # Gamma below the t / sqrt(2 N) energy window keeps the two logical
    # outcomes at least a factor 100 apart.
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05)  # Gamma = 0.1 <= 2**-3
    one = build_tree(5, [0] * 32)
    zero = build_tree(5, [1] * 32)
    g1 = conductance(one, ideal_parameters(one, 10.0, 1e-6), probe)
    g0 = conductance(zero, ideal_parameters(zero, 10.0, 1e-6), probe)
    assert g1 / g0 >= 100.0


def test_sweep_validates_grid():
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec()
    with pytest.raises(StructureError):
        sweep(tree, params, probe, "E", [])
    with pytest.raises(StructureError):
        sweep(tree, params, probe, "E", [0.0, 0.0, 1.0])
    with pytest.raises(StructureError):
        sweep(tree, params, probe, "phi", [0.0, 1.0])


def test_sweep_eps0_morphology():
    # Disordered N=32 trees: the "1" output shows a single conductance
    # peak near eps0 = 0, the "0" output is suppressed there.
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05)
    grid = np.linspace(-1.0, 1.0, 81)
    traces = {}
    for name, bits in (("one", [0] * 32), ("zero", [1] * 32)):
        tree = build_tree(5, bits)
        ideal = ideal_parameters(tree, 10.0, 0.03)
        params = sample_disorder(tree, ideal, DisorderSpec(0.03, 0.03, seed=21))
        traces[name] = sweep(tree, params, probe, "eps0", grid)
    cond_one = np.array(traces["one"].conductance)
    peak = int(np.argmax(cond_one))
    assert abs(grid[peak]) <= 0.2
    assert cond_one[peak] >= 2.0 * max(cond_one[0], cond_one[-1])
    mid = len(grid) // 2
    assert traces["zero"].conductance[mid] <= 0.2 * cond_one[peak]
    assert traces["one"].metadata["axis"] == "eps0"


def test_sweep_energy_peak_width():
    # Ideal "1" tree at T = 0: the transmission peak is at most Gamma wide.
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec(gamma_l=0.05, gamma_r=0.05)
    grid = np.linspace(-0.3, 0.3, 1201)
    trace = sweep(tree, params, probe, "E", grid)
    t = np.array(trace.transmission)
    above = grid[t >= 0.5 * t.max()]
    fwhm = above[-1] - above[0]
    assert fwhm <= 0.1 + 1e-9


def test_readout_requires_tuned_probe():
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    with pytest.raises(StructureError):
        readout(tree, params, ProbeSpec(eps0=0.1))
    with pytest.raises(StructureError):
        readout(tree, params, ProbeSpec(e_f=0.1))


def test_readout_matches_classical_small_trees():
    probe = ProbeSpec()
    for depth in (1, 2):
        for code in range(2 ** 2**depth):
            bits = [(code >> i) & 1 for i in range(2**depth)]
            tree = build_tree(depth, bits)
            result = readout(tree, ideal_parameters(tree, 10.0, 1e-6), probe)
            assert result.bit == eval_nand(tree)
            assert not result.ambiguous


def test_readout_ambiguity_flag():
    # Heavy dephasing drags a "1" output's conductance into the flagged band.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 0.92)
    result = readout(tree, params, ProbeSpec())
    assert READOUT_BAND[0] <= result.conductance <= READOUT_BAND[1]
    assert result.ambiguous


# --- Graded thermal quadrature -------------------------------------------
#
# ``reference_conductance`` and ``reference_sweep`` are the uniform panel
# doubling and the per-point sweep loop that preceded the graded mesh,
# kept verbatim.  At kT = 0 the sweep must reproduce them bit for bit; at
# kT > 0 the two quadratures agree to their tolerances wherever the old
# one converged.  ``dense_reference`` is an independent graded quadrature
# built on dense eigenvalues; it uses nothing from ``transport``.


def reference_conductance(tree, params, probe: ProbeSpec) -> float:
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


def reference_sweep(tree, params, probe: ProbeSpec, axis: str, grid) -> ConductanceTrace:
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
            cond.append(reference_conductance(tree, params, replace(probe, e_f=v)))
    elif axis == "eps0":
        # G_1 does not depend on eps0: one evaluation at E_f serves every point.
        g1 = green_tree_many(tree, params, probe.e_f)
        for v in grid:
            p = replace(probe, eps0=v)
            trans.append(float(_transmission_from_g1(g1, p, p.e_f, p.eps0)))
            cond.append(reference_conductance(tree, params, p))
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


def dense_reference(tree, params, probe: ProbeSpec, growth: float = 2.0) -> float:
    """Thermal average of T on panels graded from the dense poles.

    G_1 comes from the eigendecomposition of the dense tree Hamiltonian.
    Breakpoints sit at E_f and at the real part of every eigenvalue of
    the dense broadened probe+tree Hamiltonian, with panels growing by
    ``growth`` outward from a quarter of its distance to the real axis
    (of kT at E_f), clipped to the window.
    """
    H = assemble(tree, params)
    levels, vectors = np.linalg.eigh(H.matrix)
    root = H.index(tree.root)
    weight = vectors[root] ** 2
    n = H.dimension
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[1:, 1:] = H.matrix - 1j * params.gamma * np.eye(n)
    A[0, 0] = probe.eps0 - 0.5j * (probe.gamma_l + probe.gamma_r)
    A[0, root + 1] = A[root + 1, 0] = -probe.t1
    poles = np.linalg.eigvals(A)
    kt, e_f = probe.temperature, probe.e_f
    lo, hi = e_f - 20.0 * kt, e_f + 20.0 * kt
    centers = np.append(poles.real, e_f)
    widths = np.append(np.abs(poles.imag), kt)
    cuts = [np.array([lo, hi]), centers]
    for c, w in zip(centers, widths):
        d = 0.25 * w * growth ** np.arange(0.0, 60.0 / np.log2(growth))
        cuts += [c - d[d < hi - lo], c + d[d < hi - lo]]
    edges = np.unique(np.clip(np.concatenate(cuts), lo, hi))
    x, wx = leggauss(16)
    half = 0.5 * np.diff(edges)
    E = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    total = 0.0
    for part in np.array_split(np.arange(E.size), max(1, E.size // 4096)):
        e = E[part]
        g1 = (weight / (e[:, None] + 1j * params.gamma - levels)).sum(axis=1)
        denom = e - probe.eps0 + 0.5j * (probe.gamma_l + probe.gamma_r) - probe.t1**2 * g1
        kernel = 1.0 / (4.0 * kt * np.cosh((e - e_f) / (2.0 * kt)) ** 2)
        w = (half[:, None] * wx).ravel()[part]
        total += np.sum(w * kernel * probe.gamma_l * probe.gamma_r / np.abs(denom) ** 2)
    return float(total)


def disordered(depth, bits, seed=21):
    # Dephasing 0.01 keeps resonances narrow.
    tree = build_tree(depth, bits)
    ideal = ideal_parameters(tree, 10.0, 0.01)
    return tree, sample_disorder(tree, ideal, DisorderSpec(0.03, 0.03, seed=seed))


def relative(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want) / np.abs(want))


SWEEP_CASES = {
    "E, kT = 0": ("E", ProbeSpec()),
    "E, kT = 0.01": ("E", ProbeSpec(temperature=0.01)),
    "E, kT = 0.05, asymmetric": ("E", ProbeSpec(0.08, 0.02, t1=0.3, eps0=0.1, temperature=0.05)),
    "eps0, kT = 0": ("eps0", ProbeSpec(e_f=0.05)),
    "eps0, kT = 0.01": ("eps0", ProbeSpec(temperature=0.01)),
    "eps0, kT = 0.03, E_f = -0.2": ("eps0", ProbeSpec(0.02, 0.05, e_f=-0.2, temperature=0.03)),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_per_point_reference(case):
    axis, probe = SWEEP_CASES[case]
    tree, params = disordered(5, [0] * 32)
    grid = np.linspace(-1.0, 1.0, 41)
    want = reference_sweep(tree, params, probe, axis, grid)
    got = sweep(tree, params, probe, axis, grid)
    if probe.temperature == 0:
        assert hexes(got.conductance) == hexes(want.conductance)
    else:
        assert relative(got.conductance, want.conductance) <= 1e-7
    assert hexes(got.transmission) == hexes(want.transmission)
    assert got.grid == want.grid and got.metadata == want.metadata


def test_sweep_matches_reference_on_deeper_tree():
    tree, params = disordered(7, np.random.default_rng(4).integers(0, 2, 128), seed=3)
    probe = ProbeSpec(temperature=0.01)
    grid = np.linspace(-0.6, 0.6, 13)
    for axis in ("E", "eps0"):
        got, want = sweep(tree, params, probe, axis, grid), reference_sweep(
            tree, params, probe, axis, grid)
        assert relative(got.conductance, want.conductance) <= 1e-7


def test_conductance_matches_reference_on_single_probes():
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    for probe in (ProbeSpec(), ProbeSpec(e_f=-0.0, temperature=0.02),
                  ProbeSpec(0.01, 0.03, t1=0.4, eps0=-0.3, e_f=0.2, temperature=0.004),
                  ProbeSpec(temperature=1e-6)):
        got, want = conductance(tree, params, probe), reference_conductance(tree, params, probe)
        assert type(got) is float
        if probe.temperature == 0:
            assert got.hex() == want.hex()
        else:
            assert relative(got, want) <= 1e-7
            assert relative(got, dense_reference(tree, params, probe)) <= 1e-8


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("lead", [1e-3, 1e-4, 1e-5])
def test_conductance_matches_dense_reference_below_temperature(bit, lead):
    # The benchmark's grid: lead Gamma far below kT on depth-5 trees with
    # dephasing 1e-6.  Uniform panel doubling failed at 8 of its 12 points.
    tree = build_tree(5, [bit] * 32)
    params = ideal_parameters(tree, 10.0, 1e-6)
    for kt in (0.02, 0.1):
        for eps0 in (0.0, 0.3):
            probe = ProbeSpec(lead, lead, eps0=eps0, temperature=kt)
            assert relative(conductance(tree, params, probe),
                            dense_reference(tree, params, probe)) <= 1e-8


def test_dense_reference_resolves_its_own_mesh():
    # The test-side reference agrees with itself on a finer grading.
    tree = build_tree(5, [1] * 32)
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec(1e-5, 1e-5, temperature=0.1)
    coarse = dense_reference(tree, params, probe)
    assert relative(coarse, dense_reference(tree, params, probe, growth=2**0.5)) <= 1e-11


@pytest.mark.xfail(
    strict=True,
    raises=QuadratureError,
    reason="at the default dephasing 1e-6, Gamma/2 = 0.05 mixes tree levels that "
    "disorder has split, so the narrow poles of H_eff (width about 1e-5) sit 7-11 "
    "widths from the nearest Hermitian eigenvalue, where the graded panels are "
    "about 10x too coarse: the sum changes by 1.7e-8 when they are halved",
)
def test_conductance_converges_on_disordered_tree_at_weak_dephasing():
    # Fails for 15 of 30 seeds at depth 3 and 23 of 30 at depth 5; never
    # at dephasing 1e-3 or more.
    tree = build_tree(3, [0] * 8)
    params = sample_disorder(tree, ideal_parameters(tree, 10.0, 1e-6),
                             DisorderSpec(0.03, 0.03, seed=1))
    probe = ProbeSpec(temperature=0.01)
    assert relative(conductance(tree, params, probe), dense_reference(tree, params, probe)) <= 1e-8


def test_sweep_points_match_single_probes():
    # A probe on a shared mesh and alone on its own agree to the tolerance.
    tree, params = disordered(4, [0, 1] * 8)
    probe = ProbeSpec(0.01, 0.01, temperature=0.02)
    grid = np.linspace(-0.5, 0.5, 9)
    for axis, field in (("E", "e_f"), ("eps0", "eps0")):
        swept = sweep(tree, params, probe, axis, grid).conductance
        alone = [conductance(tree, params, replace(probe, **{field: v})) for v in grid]
        assert relative(swept, alone) <= 2e-8


def hexes(values):
    return [float(v).hex() for v in values]


def spy_green_tree_many(monkeypatch):
    """Record the size of every G_1 evaluation ``transport`` makes."""
    sizes, many = [], green_tree_many

    def spy(tree, params, energies):
        sizes.append(np.size(energies))
        return many(tree, params, energies)

    monkeypatch.setattr(transport, "green_tree_many", spy)
    return sizes


def test_zero_temperature_probes_share_g1_per_fermi_level(monkeypatch):
    tree, params = disordered(5, [0] * 32)
    grid = np.linspace(-1.0, 1.0, 201)
    sizes = spy_green_tree_many(monkeypatch)
    trace = sweep(tree, params, ProbeSpec(e_f=0.05), "eps0", grid)
    # One G_1(E_f) gives the transmission column, which is the conductance.
    assert sizes == [1]
    assert trace.conductance == trace.transmission
    sizes.clear()
    e_f, eps0 = np.repeat([0.1, -0.0, 0.0], 2), np.tile([0.0, 0.2], 3)
    got = transport._conductances(tree, params, ProbeSpec(), e_f, eps0)
    assert sizes == [2]  # E_f = -0.0 and 0.0 are one energy
    assert hexes(got) == hexes(transmission(tree, params, ProbeSpec(e_f=e, eps0=v), e)
                               for e, v in zip(e_f, eps0))


@pytest.mark.parametrize("axis", ["E", "eps0"])
def test_zero_temperature_sweep_makes_one_g1_call(axis, monkeypatch):
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    grid = np.linspace(-1.0, 1.0, 11)
    sizes = spy_green_tree_many(monkeypatch)
    trace = sweep(tree, params, ProbeSpec(e_f=0.05, eps0=0.02), axis, grid)
    assert sizes == [11 if axis == "E" else 1]
    assert trace.conductance == trace.transmission


@pytest.mark.parametrize("axis", ["E", "eps0"])
@pytest.mark.parametrize("kt", [0.0, 0.01])
def test_sweep_takes_one_realization(axis, kt):
    tree = build_tree(2, (1, 0, 1, 1))
    many = sample_disorder_many(tree, ideal_parameters(tree, 10.0, 0.01),
                                [DisorderSpec(0.03, 0.03, seed) for seed in range(3)])
    with pytest.raises(StructureError, match="sweep takes one realization, got 3 samples"):
        sweep(tree, many, ProbeSpec(temperature=kt), axis, [-0.1, 0.1])


def test_zero_temperature_batch_rounds_as_transmission():
    # A numpy scalar's ** 2 is libm's pow, an array's squares: they differ
    # in the last bit for about one sample in a thousand, unless T squares
    # with np.square.
    tree = build_tree(3, (0, 1, 1, 0, 1, 1, 1, 0))
    many = sample_disorder_many(tree, ideal_parameters(tree, 10.0, 1e-6),
                                [DisorderSpec(0.0, 0.07, seed) for seed in range(3000)])
    got = conductance(tree, many, ProbeSpec())
    assert hexes(got) == hexes(transmission(tree, many.sample(s), ProbeSpec(), 0.0)
                               for s in range(3000))


def rounding_cases():
    rng = np.random.default_rng(9)
    yield TreeSpec(3, (0, 1, 1, 0, 1, 1, 1, 0), frozenset({5})), 1000
    yield chain_below(TreeSpec(2, tuple(rng.integers(0, 2, 4)), frozenset({2})), 3), 200
    tree = build_tree(2, rng.integers(0, 2, 4))
    yield expand_to_tree(build_hfractal(tree), tree), 200


@pytest.mark.parametrize("tree, samples", rounding_cases(), ids=["marked", "chained", "hfractal"])
def test_scalar_and_array_transmission_agree(tree, samples):
    many = sample_disorder_many(tree, ideal_parameters(tree, 10.0, 1e-6),
                                [DisorderSpec(0.0, 0.07, seed) for seed in range(samples)])
    rows = [many.sample(s) for s in range(samples)]
    for E in (0.0, 0.05):
        probe = ProbeSpec(e_f=E)
        single = hexes(transmission(tree, p, probe, E) for p in rows)
        assert single == hexes(transmission_curve(tree, p, probe, [E])[0] for p in rows)
        assert single == hexes(conductance(tree, p, probe) for p in rows)
        assert single == hexes(conductance(tree, many, probe))


def test_zero_temperature_skips_the_resonance_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("resonance search at kT = 0")

    monkeypatch.setattr(transport, "inertia_count", forbidden)
    tree = build_tree(2, (1, 0, 1, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    assert readout(tree, params, ProbeSpec()).bit == eval_nand(tree)
    sweep(tree, params, ProbeSpec(), "E", [-0.1, 0.0, 0.1])


#: A depth-1 point with peaks far narrower than kT.  With the resonance
#: search blinded, its graded mesh misses them and cannot converge.
FAILING_TREE = build_tree(1, (0, 1))
FAILING_PROBE = ProbeSpec(1e-5, 1e-5, temperature=0.1)


def failing_params():
    """Fresh parameters of ``FAILING_TREE``: parameters keep the resonance
    searches of their kT > 0 calls, which a blinded search must not find."""
    return ideal_parameters(FAILING_TREE, 10.0, 1e-5)


def blind_resonances(monkeypatch):
    monkeypatch.setattr(transport, "_resonances", lambda *args: np.zeros(0))


def failing_points(axis, grid):
    """The (E_f, eps0) arrays of a sweep of ``FAILING_PROBE`` along ``axis``."""
    grid = np.array(grid, dtype=float)
    fixed = np.zeros_like(grid)  # FAILING_PROBE is at E_f = eps0 = 0
    return (grid, fixed) if axis == "E" else (fixed, grid)


def test_failing_probe_converges_with_its_resonances(monkeypatch):
    probe = FAILING_PROBE
    params = failing_params()
    want = dense_reference(FAILING_TREE, params, probe)
    assert relative(conductance(FAILING_TREE, params, probe), want) <= 1e-8
    blind_resonances(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        conductance(FAILING_TREE, failing_params(), probe)
    err = info.value
    assert err.panels > 0 and err.achieved > 1e-8
    assert f"{err.panels} graded panels" in str(err) and f"{err.achieved:.2e}" in str(err)


@pytest.mark.parametrize("axis, grid", [
    ("E", [-30.0, -0.4, 0.0, 0.4]),  # the window at E_f = -30 holds no resonance
    ("eps0", [-0.5, 0.0, 0.5]),
])
def test_sweep_raises_lowest_index_quadrature_error(axis, grid, monkeypatch):
    blind_resonances(monkeypatch)
    points = failing_points(axis, grid)
    _, achieved, panels = transport._thermal(FAILING_TREE, failing_params(), FAILING_PROBE,
                                             *points)
    (failed,) = np.nonzero(achieved > 1e-8)
    assert len(failed) >= 2 and len(set(achieved[failed])) == len(failed)
    assert failed[0] > 0 or axis == "eps0"
    want = (int(panels[failed[0]]), float(achieved[failed[0]]).hex())
    for run in (lambda: transport._conductances(FAILING_TREE, failing_params(), FAILING_PROBE,
                                                *points),
                lambda: sweep(FAILING_TREE, failing_params(), FAILING_PROBE, axis, grid)):
        with pytest.raises(QuadratureError) as info:
            run()
        assert (info.value.panels, info.value.achieved.hex()) == want


def test_failing_points_split_the_finest_levels(monkeypatch):
    # Four failing E_f values share one mesh.  With 1024 energies per
    # G_1 call, the mesh and its halving go through in several calls,
    # none above the cap, and each point fails as it does in one call.
    blind_resonances(monkeypatch)
    grid = [-0.3, -0.1, 0.1, 0.3]
    points = (FAILING_TREE, failing_params(), FAILING_PROBE) + failing_points("E", grid)
    _, whole, whole_panels = transport._thermal(*points)
    sizes = spy_green_tree_many(monkeypatch)
    monkeypatch.setattr(transport, "_MAX_ENERGIES", 1024)
    _, split, split_panels = transport._thermal(*points)
    assert len(sizes) >= 10 and max(sizes) <= 1024
    assert np.all(whole > 1e-8) and np.all(split > 1e-8)
    assert split_panels.tolist() == whole_panels.tolist()
    assert relative(split, whole) <= 1e-6
    with pytest.raises(QuadratureError) as info:
        sweep(FAILING_TREE, failing_params(), FAILING_PROBE, "E", grid)
    assert info.value.panels == split_panels[0]


def test_failing_sweep_memory_stays_near_one_point(monkeypatch):
    # The four-point mesh is about five times the one-point mesh; with
    # 1024 energies per G_1 call both go through in chunks, and the
    # sweep peaks close to the single point.
    blind_resonances(monkeypatch)
    monkeypatch.setattr(transport, "_MAX_ENERGIES", 1024)

    def peak(run):
        tracemalloc.reset_peak()
        with pytest.raises(QuadratureError):
            run()
        return tracemalloc.get_traced_memory()[1]

    one = lambda: conductance(FAILING_TREE, failing_params(), FAILING_PROBE)  # noqa: E731
    four = lambda: sweep(FAILING_TREE, failing_params(), FAILING_PROBE, "E",  # noqa: E731
                         [-0.3, -0.1, 0.1, 0.3])
    peak(one)  # lazy imports and caches fill outside the traced window
    tracemalloc.start()
    try:
        single, swept = peak(one), peak(four)
    finally:
        tracemalloc.stop()
    assert swept <= 1.5 * single


def test_green_function_calls_stay_under_the_cap(monkeypatch):
    # A mesh larger than one call goes through in chunks, to the same sums.
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    probe = ProbeSpec(0.002, 0.002, temperature=0.01)
    grid = np.linspace(-1.0, 1.0, 51)
    whole = sweep(tree, params, probe, "E", grid).conductance
    sizes = spy_green_tree_many(monkeypatch)
    monkeypatch.setattr(transport, "_MAX_ENERGIES", 4096)
    chunked = sweep(tree, params, probe, "E", grid).conductance
    quadrature = sizes[1:]  # after the transmission column
    assert 4000 < max(quadrature) <= 4096 and sum(quadrature) > 8 * 4096
    assert relative(chunked, whole) <= 1e-12


def test_many_point_sweep_memory_stays_bounded(monkeypatch):
    # With 4096 energies per G_1 call, a 401-point sweep, whose mesh is
    # over ten calls long, peaks close to a 41-point one.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 0.01)
    probe = ProbeSpec(temperature=0.005)
    sizes = spy_green_tree_many(monkeypatch)
    monkeypatch.setattr(transport, "_MAX_ENERGIES", 4096)

    def peak(points):
        grid = np.linspace(-1.0, 1.0, points)
        sweep(tree, params, probe, "E", grid[:3])  # lazy imports and caches fill first
        sizes.clear()
        tracemalloc.start()
        try:
            trace = sweep(tree, params, probe, "E", grid)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(trace.conductance))
        return used

    few = peak(41)
    many = peak(401)
    assert 4000 < max(sizes) <= 4096 and sum(sizes) > 10 * 4096
    assert many <= 1.5 * few


@pytest.mark.parametrize("field", ["gamma_l", "gamma_r", "t1", "eps0", "e_f", "temperature"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_probe_spec_rejects_non_finite(field, value):
    with pytest.raises(StructureError, match=f"{field} must be finite"):
        ProbeSpec(**{field: value})


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.nan], [-math.inf, 0.0], [0.0, math.inf]])
def test_sweep_rejects_non_finite_grid(grid):
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    for axis in ("E", "eps0"):
        with pytest.raises(StructureError, match="finite"):
            sweep(tree, params, ProbeSpec(temperature=0.01), axis, grid)


def test_one_column_gather_per_public_call(monkeypatch):
    # Each public call compiles the tree once; the resonance search, the
    # mesh sums and a sweep's transmission column share it.  A kT > 0
    # call keeps it on the parameters, so a repeat gathers nothing.
    gathers, columns = [], greens._columns

    def spy(params, schedule):
        gathers.append(len(schedule))
        return columns(params, schedule)

    monkeypatch.setattr(greens, "_columns", spy)
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 0.01)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.03, 0.03, s) for s in range(3)])
    warm, cold = ProbeSpec(temperature=0.01), ProbeSpec()
    calls = [  # each call, its parameters and whether it keeps its compilation
        (lambda p: transmission_curve(tree, p, warm, np.linspace(-1.0, 1.0, 11)), params, False),
        (lambda p: conductance(tree, p, warm), params, True),
        (lambda p: conductance(tree, p, cold), params, False),
        (lambda p: conductance(tree, p, warm), many, True),
        (lambda p: readout(tree, p, warm), ideal, True),
        (lambda p: readout(tree, p, cold), many, False),
        (lambda p: sweep(tree, p, warm, "E", [-0.2, 0.0, 0.2]), params, True),
        (lambda p: sweep(tree, p, warm, "eps0", [-0.2, 0.0, 0.2]), params, True),
        (lambda p: sweep(tree, p, cold, "E", [-0.2, 0.0, 0.2]), params, False),
    ]
    for call, shared, kept in calls:
        fresh = replace(shared)  # equal parameters that keep nothing yet
        for want in ([4], [] if kept else [4]):
            gathers.clear()
            call(fresh)
            assert gathers == want


def test_transport_passes_no_non_finite_energy():
    # Energies given to transport reach the engine's finiteness check; a
    # thermal window too wide for a float raises before the engine runs.
    tree = build_tree(1, (0, 1))
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec()
    for call in (lambda: transmission(tree, params, probe, math.nan),
                 lambda: transmission_curve(tree, params, probe, [0.0, math.inf])):
        with pytest.raises(StructureError, match="energies must be finite"):
            call()
    for probe in (ProbeSpec(temperature=1e307), ProbeSpec(e_f=1.7e308, temperature=1e307)):
        with pytest.raises(StructureError, match=r"^thermal window E_f \+- 20 kT overflows "
                                                 r"at kT = 1e\+307$"):
            conductance(tree, params, probe)


def test_window_that_rounds_to_the_fermi_level_raises():
    # E_f +- 20 kT rounding to E_f would sum no panel, pass the halving
    # check and give 0; at E_f = 0 the same kT still gives T(0).
    tree = build_tree(2, [1, 0, 1, 1])
    params = ideal_parameters(tree, 10.0, 1e-3)
    for probe in (ProbeSpec(temperature=1e-18, e_f=0.5), ProbeSpec(temperature=0.01, e_f=1e300)):
        message = re.escape(f"thermal window E_f +- 20 kT rounds to E_f = {probe.e_f!r} "
                            f"at kT = {probe.temperature!r}")
        with pytest.raises(StructureError, match=f"^{message}$"):
            conductance(tree, params, probe)
    with pytest.raises(StructureError, match="rounds to E_f = 0.5 at"):
        sweep(tree, params, ProbeSpec(temperature=1e-18), "E", [0.0, 0.5])
    probe = ProbeSpec(temperature=1e-18)
    assert conductance(tree, params, probe) == pytest.approx(
        transmission(tree, params, probe, 0.0), rel=1e-8)


def test_thermal_kernel_far_tail_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermal_kernel(np.array([0.0, 10.0, 100.0]), 0.0, 0.01).tolist() == [25.0, 0.0, 0.0]
        assert thermal_kernel(10.0, 0.0, 0.01) == 0.0
        assert thermal_kernel(np.float64(-100.0), 0.0, 0.01) == 0.0


def test_quadrature_nodes_are_read_only():
    for array in transport._gauss_legendre():
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# Kept results: what a DotParameters keeps from its kT > 0 calls (see
# "Kept results" in nandtree.transport).  A warm call is a repeat on the
# same parameters, a cold one runs on an equal copy that keeps nothing.

def test_warm_calls_equal_cold_calls_bit_for_bit():
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 0.01)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.03, 0.03, s) for s in range(3)])
    probe = ProbeSpec(0.002, 0.002, temperature=0.01)
    grid = np.linspace(-0.5, 0.5, 21)

    def bits(result):
        if isinstance(result, ConductanceTrace):
            return hexes(result.transmission + result.conductance)
        if isinstance(result, transport.ReadoutResult):
            return [np.ravel(result.bit).tolist(), np.ravel(result.ambiguous).tolist(),
                    hexes(np.ravel(result.conductance))]
        return hexes(np.ravel(result))

    for call, shared in [(lambda p: conductance(tree, p, probe), params),
                         (lambda p: conductance(tree, p, probe), many),
                         (lambda p: readout(tree, p, probe), ideal),
                         (lambda p: readout(tree, p, probe), many),
                         (lambda p: sweep(tree, p, probe, "E", grid), params),
                         (lambda p: sweep(tree, p, probe, "eps0", grid), params)]:
        cold = bits(call(replace(shared)))
        assert call(shared) is not None  # keeps its results on ``shared``
        assert shared._kept
        assert bits(call(shared)) == cold


def test_thermal_grid_searches_once_per_window_and_width(monkeypatch):
    # The Gamma x kT grid of conductances on ideal depth-5 trees: at each
    # kT the three lead widths share the gamma-limited first-panel width,
    # so each tree searches once per kT, in either order, with the same
    # results and the same inertia count steps.
    counted = {"inertia_count": 0, "_resonances": 0}
    for name in counted:
        def spy(*args, name=name, real=getattr(transport, name)):
            counted[name] += 1
            return real(*args)
        monkeypatch.setattr(transport, name, spy)
    trees = [build_tree(5, [b] * 32) for b in (0, 1)]
    probes = [ProbeSpec(gamma_l=g, gamma_r=g, temperature=kt)
              for g in (1e-3, 1e-4, 1e-5) for kt in (0.02, 0.1)]

    def run(order):
        counted.update(dict.fromkeys(counted, 0))
        got = {}
        for tree in trees:
            params = ideal_parameters(tree, 10.0, 1e-6)
            for probe in order(probes):
                got[id(tree), probe] = conductance(tree, params, probe).hex()
        return got, dict(counted)

    (forward, steps), (backward, steps_back) = run(list), run(reversed)
    assert forward == backward and steps == steps_back
    assert steps["_resonances"] == 2 * len(trees) and steps["inertia_count"] > 0
    alone = {(id(tree), probe): conductance(tree, ideal_parameters(tree, 10.0, 1e-6), probe).hex()
             for tree in trees for probe in probes}
    assert forward == alone


def test_kept_results_die_with_their_parameters():
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    params = ideal_parameters(tree, 10.0, 0.01)
    conductance(tree, params, ProbeSpec(temperature=0.01))
    assert params._kept
    ref = weakref.ref(params)
    gc.disable()
    try:
        del params
        assert ref() is None  # freed by its reference count: no cycle
    finally:
        gc.enable()


def test_kept_results_leave_the_dataclass_alone():
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    params = ideal_parameters(tree, 10.0, 0.01)
    before, copied = repr(params), replace(params)
    conductance(tree, params, ProbeSpec(temperature=0.01))
    assert params._kept and "_kept" not in vars(copied)
    assert repr(params) == before == repr(copied) and params == copied
    assert [f.name for f in fields(params)] == ["epsilon", "coupling", "delta", "gamma"]
    assert "_kept" not in vars(replace(params))
    assert replace(params, gamma=0.02) != params


def test_copies_keep_no_results():
    # Kept results are keyed by the identity of the trees they hold; a
    # copy holds copies of those trees, whose ids a new tree may reuse,
    # so copy, deepcopy and pickle all start with none.
    tree = TreeSpec(3, "01101110", frozenset({2}))
    params = ideal_parameters(tree, 10.0, 1e-6)
    probe = ProbeSpec(temperature=0.05)
    size = len(pickle.dumps(params))
    got = conductance(tree, params, probe)
    assert params._kept
    assert len(pickle.dumps(params)) == size
    for other in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert "_kept" not in vars(other)
        assert conductance(tree, other, probe) == got


def test_a_tree_compiled_by_the_caller_keeps_nothing():
    tree = build_tree(3, (1, 0, 1, 1, 0, 0, 1, 0))
    params = ideal_parameters(tree, 10.0, 0.01)
    probe = ProbeSpec(temperature=0.01)
    got = conductance(greens.compile_tree(tree, params), params, probe)
    assert vars(params).get("_kept", {}) == {}
    assert got == conductance(tree, params, probe)
