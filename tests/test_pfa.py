import math

import numpy as np
import pytest

from casimir_spectral.energy import convergence_ladder
from casimir_spectral.errors import ContactError, SpecFunDomainError
from casimir_spectral.model import Medium, PlacedParticle, Spheroid, SystemConfig
from casimir_spectral.pfa import (
    mode_integral,
    pfa_energy_sphere_plane,
    plate_energy_per_area,
)


class TestPlateModes:
    def test_mode_integral_small_contrast(self):
        for f_c in (0.01, -0.01):
            assert mode_integral(f_c) == pytest.approx(f_c / 8.0, rel=0.01)

    @pytest.mark.parametrize("f_c", [1e-6, -1e-6, 0.01, -0.01, -0.1, 0.2])
    def test_mode_integral_against_mpmath(self, f_c):
        # the integrand cancels at small |f_c|, where quad lost up to 8
        # digits; the series keeps them
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            f = mpmath.mpf(f_c)
            ref = mpmath.quad(
                lambda u: u * (mpmath.sqrt(1 + f * mpmath.exp(-2 * u)) - 1),
                [0, mpmath.inf],
            )
            assert abs(mode_integral(f_c) - ref) <= 1e-14 * abs(ref)

    def test_mode_integral_zero_contrast(self):
        assert mode_integral(0.0) == 0.0

    def test_mode_integral_conductor(self):
        value = mode_integral(-1.0)
        assert value < 0.0
        assert value == pytest.approx(-0.1358458, abs=1e-6)

    @pytest.mark.parametrize("f_c", [1.0, 5.0, -1.0 - 1e-12, -2.0, math.nan, math.inf])
    def test_mode_integral_domain(self, f_c):
        # I(f_c) is defined on [-1, 1) only
        with pytest.raises(SpecFunDomainError):
            mode_integral(f_c)


class TestPlateEnergy:
    def test_inverse_square_scaling(self):
        ref = plate_energy_per_area(-1.0, 1.0)
        for z in np.geomspace(0.3, 3.0, 7):
            value = plate_energy_per_area(-1.0, z)
            assert value * z * z == pytest.approx(ref, rel=1e-8)

    def test_fitted_exponent(self):
        zs = np.geomspace(0.5, 5.0, 9)
        vals = np.array([abs(plate_energy_per_area(-1.0, z)) for z in zs])
        slope = np.polyfit(np.log(zs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-3)

    def test_contact_rejected(self):
        for gap in (0.0, -1.0, math.nan):
            with pytest.raises(ContactError):
                plate_energy_per_area(-1.0, gap)


class TestCurvedPfa:
    def test_energy_sphere_plane_sign(self):
        cfg = SystemConfig(
            particle=PlacedParticle(Spheroid.sphere(1.0), gap=0.2),
            substrate_medium=Medium.perfect_conductor(),
        )
        assert pfa_energy_sphere_plane(cfg) < 0.0


class TestReport:
    def test_fixed_curvature_families_share_pfa(self):
        # same apex curvature radius, different global shape
        sub = Medium.constant(3.12)
        fam_a = Spheroid.prolate(2.0, 1.0)
        fam_b = Spheroid.prolate(3.125, 1.25)
        assert fam_a.apex_curvature_radius == pytest.approx(
            fam_b.apex_curvature_radius
        )
        z = 0.4
        xi_exact, xi_pfa = {}, {}
        for key, spheroid in (("a", fam_a), ("b", fam_b)):
            cfg = SystemConfig(
                particle=PlacedParticle(spheroid, gap=z),
                substrate_medium=sub,
                l_max=60,
            )
            xi_exact[key] = convergence_ladder(cfg).xi
            xi_pfa[key] = pfa_energy_sphere_plane(cfg)
        assert xi_pfa["a"] == pytest.approx(xi_pfa["b"], rel=1e-12)
        diff = abs(xi_exact["a"] - xi_exact["b"])
        assert diff > 1e-3 * max(abs(xi_exact["a"]), abs(xi_exact["b"]))
