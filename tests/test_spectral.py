import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_spectral import spectral
from casimir_spectral.energy import zero_point_energy
from casimir_spectral.errors import (
    CasimirSpectralError,
    ContractViolationError,
    PoleError,
    SpecFunOverflowError,
)
from casimir_spectral.model import (
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
)
from casimir_spectral.spectral import (
    coupling_matrix_D,
    effective_polarizability,
    isolated_depolarization,
    isolated_depolarization_table,
    mode_spectrum,
    spectral_block,
)
from casimir_spectral.specfun import log_factorial


def _config(spheroid, gap, substrate, l_max=20):
    return SystemConfig(
        particle=PlacedParticle(spheroid, gap=gap),
        substrate_medium=substrate,
        l_max=l_max,
    )


class TestIsolatedDepolarization:
    def test_sphere_closed_form(self):
        sphere = Spheroid.sphere(1.0)
        for l in range(1, 31):
            for m in (0, min(l, 3)):
                n = isolated_depolarization(sphere, l, m)
                assert n == pytest.approx(l / (2.0 * l + 1.0), abs=1e-12)

    def test_near_sphere_limit(self):
        aspect = 1.0 + 1e-6
        for spheroid in (Spheroid.prolate(aspect, 1.0), Spheroid.oblate(aspect, 1.0)):
            for l in (1, 3, 7):
                n = isolated_depolarization(spheroid, l, 0)
                assert n == pytest.approx(l / (2.0 * l + 1.0), abs=1e-4)

    def test_dipole_sum_rule(self):
        for spheroid in (Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)):
            n10 = isolated_depolarization(spheroid, 1, 0)
            n11 = isolated_depolarization(spheroid, 1, 1)
            assert n10 + 2.0 * n11 == pytest.approx(1.0, abs=1e-10)

    def test_prolate_two_to_one(self):
        # symmetry-axis depolarization factor of a 2:1 prolate spheroid
        n10 = isolated_depolarization(Spheroid.prolate(2.0, 1.0), 1, 0)
        assert n10 == pytest.approx(0.17356399753396, abs=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(1.05, 5.0),
        st.sampled_from(["prolate", "oblate"]),
        st.integers(0, 4),
    )
    def test_eigenvalue_range(self, aspect, family, m):
        ctor = Spheroid.prolate if family == "prolate" else Spheroid.oblate
        table = isolated_depolarization_table(ctor(aspect, 1.0), m, 12)
        vals = table[max(m, 1):]
        assert np.all(vals > 0.0)
        assert np.all(vals < 1.0)


class TestCouplingMatrix:
    def test_sphere_dipole_elements(self):
        # l = s = 1 couplings reproduce the image-dipole interaction
        p = PlacedParticle(Spheroid.sphere(1.0), gap=1.0)
        d = p.center_height
        kappa = (1.0 / (2.0 * d)) ** 3
        D0 = coupling_matrix_D(p, 0, 5)
        D1 = coupling_matrix_D(p, 1, 5)
        assert D0[0, 0] == pytest.approx(2.0 / 3.0 * kappa, rel=1e-12)
        assert D1[0, 0] == pytest.approx(1.0 / 3.0 * kappa, rel=1e-12)

    def test_symmetry(self):
        for spheroid in (
            Spheroid.sphere(1.0),
            Spheroid.prolate(2.0, 1.0),
            Spheroid.oblate(1.4, 1.0),
        ):
            p = PlacedParticle(spheroid, gap=0.3)
            for m in (0, 1, 2):
                D = coupling_matrix_D(p, m, 15)
                assert np.allclose(D, D.T, atol=1e-12)

    def test_far_field_decay(self):
        D_near = coupling_matrix_D(PlacedParticle(Spheroid.sphere(1.0), 1.0), 0, 8)
        D_far = coupling_matrix_D(PlacedParticle(Spheroid.sphere(1.0), 50.0), 0, 8)
        # leading element scales as (a/2d)^3
        expected_ratio = (2.0 / 51.0) ** 3
        assert np.max(np.abs(D_far)) < 1.1 * expected_ratio * np.max(np.abs(D_near))

    def test_sphere_branch_matches_spheroid_branch(self):
        # near-spherical spheroid couplings approach the closed-form sphere
        p_sph = PlacedParticle(Spheroid.sphere(1.0), gap=0.8)
        p_sphd = PlacedParticle(Spheroid.prolate(1.0 + 1e-7, 1.0), gap=0.8)
        for m in (0, 1):
            e_sph = np.linalg.eigvalsh(coupling_matrix_D(p_sph, m, 12))
            e_sphd = np.linalg.eigvalsh(coupling_matrix_D(p_sphd, m, 12))
            assert np.max(np.abs(e_sph - e_sphd)) < 1e-5


class TestSpectralBlocks:
    def test_image_dipole_shift(self):
        cfg = _config(Spheroid.sphere(1.0), 9.0, Medium.perfect_conductor())
        kappa = (1.0 / (2.0 * cfg.particle.center_height)) ** 3
        n_perp = np.sort(spectral_block(cfg, 0).eigenvalues)[0]
        n_par = np.sort(spectral_block(cfg, 1).eigenvalues)[0]
        assert n_perp == pytest.approx((1.0 - 2.0 * kappa) / 3.0, rel=1e-6)
        assert n_par == pytest.approx((1.0 - kappa) / 3.0, rel=1e-6)

    def test_strengths_sum_to_one(self):
        cfg = _config(Spheroid.oblate(1.4, 1.0), 0.5, Medium.constant(3.12))
        block = spectral_block(cfg, 0)
        sums = block.strengths.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-10)

    def test_multiplicity(self):
        cfg = _config(Spheroid.sphere(1.0), 1.0, Medium.perfect_conductor(), l_max=6)
        mult = {b.m: b.multiplicity for b in mode_spectrum(cfg)}
        assert mult[0] == 1
        assert all(mult[m] == 2 for m in range(1, 7))

    def test_h_symmetric_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            aspect = rng.uniform(1.05, 3.0)
            family = rng.choice(["prolate", "oblate"])
            ctor = Spheroid.prolate if family == "prolate" else Spheroid.oblate
            gap = rng.uniform(0.2, 5.0)
            cfg = _config(ctor(aspect, 1.0), gap, Medium.constant(rng.uniform(1.5, 20.0)), l_max=10)
            for m in (0, 1):
                H = spectral_block(cfg, m).H
                assert np.allclose(H, H.T, atol=1e-10)

    def test_one_surface_table_per_sector(self, monkeypatch):
        # the quadrature nodes are built once per degree, and a rung builds
        # one one-point radial table at the surface for all its sectors and
        # one at the mirror points per block of sectors
        calls = {"leggauss": 0, "prolate_radial_table": 0}

        def counting(name):
            original = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        counting("leggauss")
        counting("prolate_radial_table")
        spectral._quad_nodes.cache_clear()
        spectral._surface_block.cache_clear()
        spectral._mirror_block.cache_clear()
        cfg = _config(Spheroid.prolate(2.0, 1.0), 0.5, Medium.constant(3.12), l_max=10)
        mode_spectrum(cfg)
        assert calls == {"leggauss": 1, "prolate_radial_table": 2}
        # the cached tables cannot be changed by a caller
        table = isolated_depolarization_table(cfg.particle.spheroid, 10, 10)
        assert not table.flags.writeable

    @pytest.mark.parametrize(
        "spheroid", [Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)], ids=["prolate", "oblate"]
    )
    def test_block_size_does_not_change_sectors(self, monkeypatch, spheroid):
        cfg = _config(spheroid, 0.3, Medium.constant(3.12), l_max=12)
        blocked = [spectral_block(cfg, m).H for m in range(13)]
        # one sector per block, requested out of order
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)
        spectral._mirror_block.cache_clear()
        for m in (7, 3, 12, 0, 8):
            assert np.array_equal(spectral_block(cfg, m).H, blocked[m])

    def test_failing_sector_raises_in_turn(self):
        # near x = 1 the high orders overflow at l_max = 90: a block keeps
        # the sectors below the first failing one, which raises when reached
        x = np.array([1.0 + 1e-9])
        ms, tables = spectral._radial_rows(1.0, range(91), 90, x, False)
        assert ms.start == 0 and 0 < ms.stop < 91
        assert len(tables[0]) == len(ms)
        with pytest.raises(SpecFunOverflowError):
            spectral._radial_rows(1.0, range(ms.stop, 91), 90, x, False)

    @pytest.mark.parametrize("l_max, m", [(1, 0), (1, 1), (12, 0), (12, 5), (40, 17), (40, 40)])
    def test_sphere_coupling_matches_loop(self, l_max, m):
        a, d = 1.0, 1.3
        ls = range(max(1, m), l_max + 1)
        log_ratio = math.log(a / (2.0 * d))
        half = [
            0.5 * (math.log(l / (2.0 * l + 1.0)) - log_factorial(l + m) - log_factorial(l - m))
            for l in ls
        ]
        expected = np.array(
            [
                [
                    math.exp(half[i] + half[j] + log_factorial(l + s) + (l + s + 1) * log_ratio)
                    for j, s in enumerate(ls)
                ]
                for i, l in enumerate(ls)
            ]
        )
        assert np.array_equal(spectral._sphere_coupling(a, d, m, l_max), expected)

    @pytest.mark.parametrize("ctor", [Spheroid.prolate, Spheroid.oblate], ids=["prolate", "oblate"])
    def test_non_finite_coupling_raises_package_error(self, ctor):
        # x0 ~ 7000: the weights overflow and D is not finite
        cfg = _config(ctor(1.00000001, 1.0), 0.5, Medium.constant(3.12), l_max=40)
        with pytest.raises(CasimirSpectralError):
            zero_point_energy(cfg)

    def test_nan_fails_symmetry_check(self):
        H = np.eye(3)
        H[0, 1] = np.nan
        with pytest.raises(ContractViolationError):
            spectral.eigendecompose(H)


class TestEffectivePolarizability:
    def test_static_sign(self):
        cfg = _config(Spheroid.sphere(1.0), 1.0, Medium.perfect_conductor(), l_max=10)
        # omega = 0 means u = 0, below every mode: polarizability positive
        alpha = effective_polarizability(cfg, 0.0, 1, 0)
        assert alpha > 0.0

    def test_pole_raises(self):
        cfg = _config(Spheroid.sphere(1.0), 1.0, Medium.perfect_conductor(), l_max=10)
        block = spectral_block(cfg, 0)
        omega = math.sqrt(float(np.sort(block.eigenvalues)[0]))
        with pytest.raises(PoleError):
            effective_polarizability(cfg, omega, 1, 0)
