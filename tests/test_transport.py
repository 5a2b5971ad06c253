import math
import tracemalloc
from dataclasses import replace

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
            trans.append(float(_transmission_from_g1(g1, p, p.e_f)))
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
    # One G_1(E_f) for the transmission column, one for every conductance.
    assert sizes == [1, 1]
    assert trace.conductance == trace.transmission
    sizes.clear()
    probes = [ProbeSpec(e_f=e, eps0=v) for e in (0.1, -0.0, 0.0) for v in (0.0, 0.2)]
    got = transport._conductances(tree, params, probes)
    assert sizes == [1, 1]  # E_f = -0.0 and 0.0 share one
    assert hexes(got) == hexes(transmission(tree, params, p, p.e_f) for p in probes)


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
FAILING_PARAMS = ideal_parameters(FAILING_TREE, 10.0, 1e-5)
FAILING_PROBE = ProbeSpec(1e-5, 1e-5, temperature=0.1)


def blind_resonances(monkeypatch):
    monkeypatch.setattr(transport, "_resonances", lambda *args: np.zeros(0))


def test_failing_probe_converges_with_its_resonances(monkeypatch):
    probe = FAILING_PROBE
    want = dense_reference(FAILING_TREE, FAILING_PARAMS, probe)
    assert relative(conductance(FAILING_TREE, FAILING_PARAMS, probe), want) <= 1e-8
    blind_resonances(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        conductance(FAILING_TREE, FAILING_PARAMS, probe)
    err = info.value
    assert err.panels > 0 and err.achieved > 1e-8
    assert f"{err.panels} graded panels" in str(err) and f"{err.achieved:.2e}" in str(err)


@pytest.mark.parametrize("axis, grid", [
    ("E", [-30.0, -0.4, 0.0, 0.4]),  # the window at E_f = -30 holds no resonance
    ("eps0", [-0.5, 0.0, 0.5]),
])
def test_sweep_raises_lowest_index_quadrature_error(axis, grid, monkeypatch):
    blind_resonances(monkeypatch)
    field = "e_f" if axis == "E" else "eps0"
    probes = [replace(FAILING_PROBE, **{field: v}) for v in grid]
    outcomes = transport._conductances(FAILING_TREE, FAILING_PARAMS, probes)
    failed = [o for o in outcomes if isinstance(o, QuadratureError)]
    assert len(failed) >= 2 and len({o.achieved for o in failed}) == len(failed)
    assert not isinstance(outcomes[0], QuadratureError) or axis == "eps0"
    with pytest.raises(QuadratureError) as info:
        sweep(FAILING_TREE, FAILING_PARAMS, FAILING_PROBE, axis, grid)
    assert (info.value.panels, info.value.achieved.hex()) == (
        failed[0].panels, failed[0].achieved.hex())


def test_failing_points_split_the_finest_levels(monkeypatch):
    # Four failing E_f values share one mesh.  With 1024 energies per
    # G_1 call, the mesh and its halving go through in several calls,
    # none above the cap, and each point fails as it does in one call.
    blind_resonances(monkeypatch)
    grid = [-0.3, -0.1, 0.1, 0.3]
    probes = [replace(FAILING_PROBE, e_f=v) for v in grid]
    whole = transport._conductances(FAILING_TREE, FAILING_PARAMS, probes)
    sizes = spy_green_tree_many(monkeypatch)
    monkeypatch.setattr(transport, "_MAX_ENERGIES", 1024)
    split = transport._conductances(FAILING_TREE, FAILING_PARAMS, probes)
    assert len(sizes) >= 10 and max(sizes) <= 1024
    assert all(isinstance(o, QuadratureError) for o in whole + split)
    assert [o.panels for o in split] == [o.panels for o in whole]
    assert relative([o.achieved for o in split], [o.achieved for o in whole]) <= 1e-6
    with pytest.raises(QuadratureError) as info:
        sweep(FAILING_TREE, FAILING_PARAMS, FAILING_PROBE, "E", grid)
    assert info.value.panels == split[0].panels


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

    one = lambda: conductance(FAILING_TREE, FAILING_PARAMS, FAILING_PROBE)  # noqa: E731
    four = lambda: sweep(FAILING_TREE, FAILING_PARAMS, FAILING_PROBE, "E",  # noqa: E731
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
    # mesh sums and a sweep's transmission column share it.
    gathers, columns = [], greens._columns

    def spy(params, schedule):
        gathers.append(len(schedule))
        return columns(params, schedule)

    monkeypatch.setattr(greens, "_columns", spy)
    tree, params = disordered(3, (1, 0, 1, 1, 0, 0, 1, 0))
    ideal = ideal_parameters(tree, 10.0, 0.01)
    many = sample_disorder_many(tree, ideal, [DisorderSpec(0.03, 0.03, s) for s in range(3)])
    warm, cold = ProbeSpec(temperature=0.01), ProbeSpec()
    calls = [
        lambda: transmission_curve(tree, params, warm, np.linspace(-1.0, 1.0, 11)),
        lambda: conductance(tree, params, warm),
        lambda: conductance(tree, params, cold),
        lambda: conductance(tree, many, warm),
        lambda: readout(tree, ideal, warm),
        lambda: readout(tree, many, cold),
        lambda: sweep(tree, params, warm, "E", [-0.2, 0.0, 0.2]),
        lambda: sweep(tree, params, warm, "eps0", [-0.2, 0.0, 0.2]),
        lambda: sweep(tree, params, cold, "E", [-0.2, 0.0, 0.2]),
    ]
    for call in calls:
        gathers.clear()
        call()
        assert gathers == [4]
