"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each test prints ``PASS``/``FAIL`` with its measured deviation and
runtime, bypassing pytest capture so the report is always visible.
"""

import math
import time

import numpy as np
import pytest

from casimir_spectral.cli import main as cli_main
from casimir_spectral.energy import (
    convergence_ladder,
    energy_sweep,
    local_exponents,
    zero_point_energy,
)
from casimir_spectral.model import (
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
)
from casimir_spectral.oracles import (
    depolarization_integral,
    image_dipole_modes,
    quasistatic_bem,
    build_mesh,
)
from casimir_spectral.pfa import (
    mode_integral,
    pfa_energy_sphere_plane,
    plate_energy_per_area,
)
from casimir_spectral.spectral import (
    isolated_depolarization,
    spectral_block,
)

from scaling import scaled_config


@pytest.fixture
def report(capsys, request):
    """Emit one visible pass/fail line per criterion."""
    start = time.perf_counter()
    outcome = {"passed": False, "detail": ""}
    yield outcome
    elapsed = time.perf_counter() - start
    status = "PASS" if outcome["passed"] else "FAIL"
    name = request.node.name
    with capsys.disabled():
        print(f"[{status}] {name}: {outcome['detail']} ({elapsed:.1f}s)")


def _conductor_sphere(gap, l_max=30):
    return SystemConfig(
        particle=PlacedParticle(Spheroid.sphere(1.0), gap=gap),
        substrate_medium=Medium.perfect_conductor(),
        l_max=l_max,
    )


def test_01_isolated_sphere_spectrum(report):
    """f_c = 0 returns n_l = l/(2l+1) to 1e-10; near-sphere spheroid to 1e-4."""
    sphere = Spheroid.sphere(1.0)
    cfg = SystemConfig(
        particle=PlacedParticle(sphere, gap=1.0),
        substrate_medium=Medium.constant(1.0),  # f_c = 0
        l_max=30,
    )
    worst = 0.0
    for m in (0, 1, 5):
        block = spectral_block(cfg, m)
        expected = np.array(
            [l / (2.0 * l + 1.0) for l in range(max(m, 1), 31)]
        )
        worst = max(worst, float(np.max(np.abs(np.sort(block.eigenvalues) - expected))))
    assert worst <= 1e-10

    worst_spheroid = 0.0
    for ctor in (Spheroid.prolate, Spheroid.oblate):
        spheroid = ctor(1.0 + 1e-6, 1.0)
        for l in (1, 5, 15, 30):
            n = isolated_depolarization(spheroid, l, 0)
            worst_spheroid = max(worst_spheroid, abs(n - l / (2.0 * l + 1.0)))
    assert worst_spheroid <= 1e-4
    report["passed"] = True
    report["detail"] = (
        f"sphere dev {worst:.1e} (tol 1e-10), near-sphere dev "
        f"{worst_spheroid:.1e} (tol 1e-4)"
    )


def test_02_isolated_spheroid_dipole_factors(report):
    """l = 1 eigenvalues match the depolarization quadrature to 1e-8."""
    worst = 0.0
    worst_sum = 0.0
    for aspect in (1.1, 1.4, 2.0, 5.0):
        for ctor in (Spheroid.prolate, Spheroid.oblate):
            spheroid = ctor(aspect, 1.0)
            n10 = isolated_depolarization(spheroid, 1, 0)
            n11 = isolated_depolarization(spheroid, 1, 1)
            ref_sym = depolarization_integral(spheroid, "symmetry")
            ref_tr = depolarization_integral(spheroid, "transverse")
            worst = max(worst, abs(n10 - ref_sym), abs(n11 - ref_tr))
            worst_sum = max(worst_sum, abs(n10 + 2.0 * n11 - 1.0))
    assert worst <= 1e-8
    assert worst_sum <= 1e-10
    report["passed"] = True
    report["detail"] = f"oracle dev {worst:.1e} (tol 1e-8), sum rule dev {worst_sum:.1e}"


def test_03_image_dipole_pinning(report):
    """n_1m shifts match the image-dipole closed form within 2%."""
    worst_shift = 0.0
    worst_ratio = 0.0
    for f_c in (-1.0, -0.5):
        substrate = (
            Medium.perfect_conductor() if f_c == -1.0 else Medium.constant(3.0)
        )
        for z in (5.0, 10.0):
            particle = PlacedParticle(Spheroid.sphere(1.0), gap=z)
            cfg = SystemConfig(
                particle=particle, substrate_medium=substrate, l_max=20
            )
            ref = image_dipole_modes(1.0, particle.center_height, cfg.f_c)
            shifts = {}
            for m, key in ((0, "n_perp"), (1, "n_par")):
                n1 = float(np.sort(spectral_block(cfg, m).eigenvalues)[0])
                shift = n1 - 1.0 / 3.0
                ref_shift = ref[key] - 1.0 / 3.0
                worst_shift = max(worst_shift, abs(shift - ref_shift) / abs(ref_shift))
                shifts[key] = shift
            ratio = shifts["n_perp"] / shifts["n_par"]
            worst_ratio = max(worst_ratio, abs(ratio / 2.0 - 1.0))
    assert worst_shift <= 0.02
    assert worst_ratio <= 0.01
    report["passed"] = True
    report["detail"] = (
        f"shift dev {worst_shift:.2%} (tol 2%), perp/par ratio dev "
        f"{worst_ratio:.2%} (tol 1%)"
    )


def test_04_bem_cross_validation(report):
    """Spectral eigenvalues agree with the boundary-integral oracle to 1%."""
    worst = 0.0
    # sphere at z/a = 1 above a perfect conductor
    particle = PlacedParticle(Spheroid.sphere(1.0), gap=1.0)
    cfg = SystemConfig(
        particle=particle, substrate_medium=Medium.perfect_conductor(), l_max=40
    )
    mesh = build_mesh(particle.spheroid, 128)
    for m in (0, 1):
        u_core = np.sort(spectral_block(cfg, m).eigenvalues)[:3]
        u_bem = quasistatic_bem(particle, -1.0, m, mesh)
        worst = max(worst, float(np.max(np.abs(u_core - u_bem) / np.abs(u_bem))))
    # isolated 2:1 prolate
    prolate = Spheroid.prolate(2.0, 1.0)
    iso = PlacedParticle(prolate, gap=10.0)
    mesh = build_mesh(prolate, 128)
    for m in (0, 1):
        u_core = np.sort(
            [isolated_depolarization(prolate, l, m) for l in range(max(m, 1), 6)]
        )[:3]
        u_bem = quasistatic_bem(iso, 0.0, m, mesh)
        worst = max(worst, float(np.max(np.abs(u_core - u_bem) / np.abs(u_bem))))
    assert worst <= 0.01
    report["passed"] = True
    report["detail"] = f"worst eigenvalue dev {worst:.2%} (tol 1%)"


def test_05_dipole_regime_energy_and_exponent(report):
    """Far field matches f_c (a/2d)^3 / sqrt(3) within 3%, exponent 3 +- 0.1."""
    zs = np.geomspace(8.0, 20.0, 7)
    worst = 0.0
    xis = []
    for z in zs:
        cfg = _conductor_sphere(z, l_max=15)
        xi = zero_point_energy(cfg).xi
        xis.append(xi)
        d = cfg.particle.center_height
        closed_form = -((1.0 / (2.0 * d)) ** 3) / math.sqrt(3.0)
        worst = max(worst, abs(xi / closed_form - 1.0))
    # beta from ln|Xi| vs ln(d/a); d/a = 1 + z/a for a unit sphere
    slope = np.polyfit(np.log1p(zs), np.log(np.abs(xis)), 1)[0]
    beta = -slope
    assert worst <= 0.03
    assert abs(beta - 3.0) <= 0.1
    report["passed"] = True
    report["detail"] = f"energy dev {worst:.2%} (tol 3%), beta {beta:.3f} (3.0 +- 0.1)"


def test_06_multipolar_takeover(report):
    """Oblate 1.4: beta non-decreasing and l_max_used non-increasing as z falls."""
    grid = np.geomspace(0.2, 20.0, 13)
    spheroid = Spheroid.oblate(1.4, 1.0)

    configs = [
        SystemConfig(
            particle=PlacedParticle(spheroid, gap=z),
            substrate_medium=Medium.perfect_conductor(),
            l_max=90,
        )
        for z in grid
    ]
    rows = energy_sweep(configs, tolerance=1e-5)
    assert all(row.sample is not None for row in rows)
    samples = [row.sample for row in rows]
    betas = local_exponents(samples)
    inner = betas[1:-1]
    assert np.all(np.diff(inner) < 0.0), "beta must decrease with z"
    orders = [s.l_max_used for s in samples]
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    report["passed"] = True
    report["detail"] = (
        f"beta {inner[0]:.2f} -> {inner[-1]:.2f} monotone, "
        f"l_max_used {orders[0]} -> {orders[-1]} non-increasing"
    )


def test_07_substrate_ordering(report):
    """|Xi| ordered eps_sub inf > 7.8 > 3.12 > 1.6 at every z."""
    grid = np.geomspace(0.2, 20.0, 9)
    spheroid = Spheroid.oblate(1.4, 1.0)
    curves = []
    for epsilon in (None, 7.8, 3.12, 1.6):
        substrate = (
            Medium.perfect_conductor() if epsilon is None else Medium.constant(epsilon)
        )

        configs = [
            SystemConfig(
                particle=PlacedParticle(spheroid, gap=z),
                substrate_medium=substrate,
                l_max=90,
            )
            for z in grid
        ]
        rows = energy_sweep(configs)
        assert all(row.sample is not None for row in rows)
        curves.append(np.abs([row.sample.xi for row in rows]))
    margins = []
    for strong, weak in zip(curves, curves[1:]):
        assert np.all(strong > weak)
        margins.append(float(np.min(strong / weak)))
    report["passed"] = True
    report["detail"] = (
        f"strict ordering at all {len(grid)} gaps, min adjacent ratio "
        f"{min(margins):.3f}"
    )


def test_08_prolate_regime_crossover(report):
    """Aspect ordering at z/r_< = 0.5 reverses by z/r_< = 3, crossover near 1.2."""
    grid = np.geomspace(0.4, 4.0, 13)
    curves = {}
    for aspect in (1.2, 1.6, 2.0):
        spheroid = Spheroid.prolate(aspect, 1.0)

        configs = [
            SystemConfig(
                particle=PlacedParticle(spheroid, gap=z),
                substrate_medium=Medium.constant(3.12),
                l_max=90,
            )
            for z in grid
        ]
        rows = energy_sweep(configs)
        assert all(row.sample is not None for row in rows)
        curves[aspect] = np.abs([row.sample.xi for row in rows])

    def order_at(z_target):
        i = int(np.argmin(np.abs(grid - z_target)))
        return tuple(
            sorted(curves, key=lambda aspect: curves[aspect][i], reverse=True)
        )

    near, far = order_at(0.5), order_at(3.0)
    assert near == tuple(reversed(far))
    diff = curves[1.2] - curves[2.0]
    (flips,) = np.where(np.sign(diff[:-1]) != np.sign(diff[1:]))
    assert flips.size == 1
    z_cross = math.sqrt(grid[flips[0]] * grid[flips[0] + 1])
    assert 0.7 <= z_cross <= 1.7
    report["passed"] = True
    report["detail"] = (
        f"ordering {near} -> {far}, crossover z/r_< = {z_cross:.2f} (1.2 +- 0.5)"
    )


def test_09_eigensystem_properties(report):
    """200 random configs: symmetry, ranges, orthonormality, scale invariance."""
    rng = np.random.default_rng(2026)
    worst_orth = 0.0
    worst_sum = 0.0
    worst_scale = 0.0
    for i in range(200):
        family = rng.choice(["sphere", "prolate", "oblate"])
        if family == "sphere":
            spheroid = Spheroid.sphere(1.0)
        else:
            ctor = Spheroid.prolate if family == "prolate" else Spheroid.oblate
            spheroid = ctor(rng.uniform(1.05, 3.0), 1.0)
        gap = rng.uniform(0.3, 5.0)
        epsilon = rng.uniform(1.2, 50.0)
        cfg = SystemConfig(
            particle=PlacedParticle(spheroid, gap=gap),
            substrate_medium=Medium.constant(epsilon),
            l_max=8,
        )
        m = int(rng.integers(0, 3))
        block = spectral_block(cfg, m)
        assert np.allclose(block.H, block.H.T, atol=1e-10)
        assert np.all(block.eigenvalues > 0.0)
        assert np.all(block.eigenvalues < 1.0)
        U = block.eigenvectors
        worst_orth = max(
            worst_orth, float(np.max(np.abs(U.T @ U - np.eye(U.shape[0]))))
        )
        worst_sum = max(
            worst_sum, float(np.max(np.abs(block.strengths.sum(axis=0) - 1.0)))
        )
        if i % 10 == 0:
            xi = zero_point_energy(cfg).xi
            xi_scaled = zero_point_energy(scaled_config(cfg, rng.uniform(0.1, 10.0))).xi
            if xi != 0.0:
                worst_scale = max(worst_scale, abs(xi_scaled / xi - 1.0))
    assert worst_orth <= 1e-10
    assert worst_sum <= 1e-10
    assert worst_scale <= 1e-10
    report["passed"] = True
    report["detail"] = (
        f"orthonormality {worst_orth:.1e}, strength sums {worst_sum:.1e}, "
        f"rescaling {worst_scale:.1e} (all tol 1e-10)"
    )


def test_10_pfa_module(report):
    """V z^2 constant, exponent 2.000 +- 1e-3, small-f_c law, sphere-plane
    energy 2 pi R z V(z)."""
    zs = np.geomspace(0.5, 5.0, 11)
    vals = np.array([plate_energy_per_area(-1.0, z) for z in zs])
    const = vals * zs * zs
    scatter = float(np.max(np.abs(const / const[0] - 1.0)))
    assert scatter <= 1e-8
    slope = np.polyfit(np.log(zs), np.log(np.abs(vals)), 1)[0]
    assert abs(-slope - 2.0) <= 1e-3
    small_dev = max(
        abs(mode_integral(f_c) / (f_c / 8.0) - 1.0) for f_c in (0.01, -0.01)
    )
    assert small_dev <= 0.01
    # sphere-plane energy: a radius-2 sphere at gap 0.05 over a conductor
    sphere = SystemConfig(
        particle=PlacedParticle(Spheroid.sphere(2.0), gap=0.05),
        substrate_medium=Medium.perfect_conductor(),
    )
    expected = 2.0 * math.pi * 2.0 * 0.05 * plate_energy_per_area(-1.0, 0.05)
    sphere_plane_dev = abs(pfa_energy_sphere_plane(sphere) / expected - 1.0)
    assert sphere_plane_dev == 0.0
    report["passed"] = True
    report["detail"] = (
        f"V z^2 scatter {scatter:.1e}, exponent {-slope:.4f}, small-f_c dev "
        f"{small_dev:.2%}, sphere-plane energy exact"
    )


def test_11_fixed_curvature_non_universality(report):
    """Equal apex curvature gives equal PFA but distinguishable exact energy."""
    substrate = Medium.constant(3.12)
    families = (Spheroid.prolate(2.0, 1.0), Spheroid.prolate(3.125, 1.25))
    assert families[0].apex_curvature_radius == pytest.approx(
        families[1].apex_curvature_radius, rel=1e-12
    )
    worst_pfa_split = 0.0
    min_exact_split = math.inf
    for z in (0.3, 0.6):
        xi_exact, xi_pfa = [], []
        for spheroid in families:
            cfg = SystemConfig(
                particle=PlacedParticle(spheroid, gap=z),
                substrate_medium=substrate,
                l_max=90,
            )
            xi_exact.append(convergence_ladder(cfg).xi)
            xi_pfa.append(pfa_energy_sphere_plane(cfg))
        worst_pfa_split = max(worst_pfa_split, abs(xi_pfa[0] / xi_pfa[1] - 1.0))
        exact_split = abs(xi_exact[0] - xi_exact[1]) / max(
            abs(xi_exact[0]), abs(xi_exact[1])
        )
        min_exact_split = min(min_exact_split, exact_split)
    assert worst_pfa_split <= 1e-12
    assert min_exact_split > 1e-3  # beyond the convergence tolerance
    report["passed"] = True
    report["detail"] = (
        f"PFA split {worst_pfa_split:.1e}, exact split >= {min_exact_split:.2%} "
        f"(tol 1e-3)"
    )


def test_12_determinism(report, tmp_path):
    """Repeated scenario runs produce byte-identical CSV output."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "geometry.r_major = 1.4\n"
        "geometry.r_minor = 1.0\n"
        "geometry.family = oblate\n"
        "substrate.epsilon = 3.12\n"
        "sweep.z_over_rmin = 0.4:8.0:7\n"
        "truncation.l_max = 60\n"
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_main(
            ["energy_sweep", "--config", str(cfg_path), "--output", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report["passed"] = True
    report["detail"] = f"byte-identical CSV ({len(outputs[0])} bytes)"
