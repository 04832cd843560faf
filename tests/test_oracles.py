import math

import numpy as np
import pytest

from casimir_spectral.errors import SpecFunDomainError
from casimir_spectral.model import PlacedParticle, Spheroid
from casimir_spectral.oracles import (
    Axis,
    build_mesh,
    depolarization_integral,
    image_dipole_modes,
    quasistatic_bem,
)


class TestImageDipole:
    def test_sphere_limits(self):
        modes = image_dipole_modes(1.0, 100.0, -1.0)
        assert modes["n_perp"] == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert modes["n_par"] == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_shift_ratio(self):
        modes = image_dipole_modes(1.0, 2.0, -0.5)
        shift_perp = modes["n_perp"] - 1.0 / 3.0
        shift_par = modes["n_par"] - 1.0 / 3.0
        assert shift_perp == pytest.approx(2.0 * shift_par, rel=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(SpecFunDomainError):
            image_dipole_modes(1.0, 0.5, -1.0)


class TestDepolarizationIntegral:
    def test_sphere(self):
        sphere = Spheroid.sphere(2.0)
        for axis in (Axis.SYMMETRY, Axis.TRANSVERSE):
            assert depolarization_integral(sphere, axis) == pytest.approx(
                1.0 / 3.0, abs=1e-12
            )

    def test_sum_rule(self):
        for spheroid in (
            Spheroid.prolate(2.0, 1.0),
            Spheroid.oblate(1.4, 1.0),
            Spheroid.prolate(5.0, 1.0),
        ):
            L_sym = depolarization_integral(spheroid, Axis.SYMMETRY)
            L_tr = depolarization_integral(spheroid, Axis.TRANSVERSE)
            assert L_sym + 2.0 * L_tr == pytest.approx(1.0, abs=1e-10)

    def test_prolate_two_to_one_closed_form(self):
        # L_z = (1-e^2)/e^2 * (ln((1+e)/(1-e))/(2e) - 1), e = sqrt(3)/2
        e = math.sqrt(3.0) / 2.0
        expected = (1.0 - e * e) / (e * e) * (
            math.log((1.0 + e) / (1.0 - e)) / (2.0 * e) - 1.0
        )
        got = depolarization_integral(Spheroid.prolate(2.0, 1.0), Axis.SYMMETRY)
        assert got == pytest.approx(expected, abs=1e-11)

    def test_oblate_flatter_means_larger_symmetry_factor(self):
        L_14 = depolarization_integral(Spheroid.oblate(1.4, 1.0), Axis.SYMMETRY)
        L_30 = depolarization_integral(Spheroid.oblate(3.0, 1.0), Axis.SYMMETRY)
        assert 1.0 / 3.0 < L_14 < L_30 < 1.0


class TestMesh:
    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.sphere(1.0), Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)],
    )
    def test_area_and_normals(self, spheroid):
        mesh = build_mesh(spheroid, 96)
        assert abs(mesh.area - mesh.analytic_area) < 5e-3 * mesh.analytic_area
        norms = np.hypot(mesh.normal_rho, mesh.normal_z)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(Spheroid.sphere(1.0), 4)


class TestBem:
    def test_isolated_sphere_spectrum(self):
        particle = PlacedParticle(Spheroid.sphere(1.0), gap=1.0)
        u = quasistatic_bem(particle, 0.0, 0, build_mesh(particle.spheroid, 96))
        expected = np.array([1.0 / 3.0, 2.0 / 5.0, 3.0 / 7.0])
        assert np.max(np.abs(u - expected) / expected) < 5e-3

    def test_substrate_lowers_modes(self):
        particle = PlacedParticle(Spheroid.sphere(1.0), gap=0.5)
        mesh = build_mesh(particle.spheroid, 96)
        u_free = quasistatic_bem(particle, 0.0, 0, mesh)
        u_coupled = quasistatic_bem(particle, -1.0, 0, mesh)
        assert np.all(u_coupled < u_free)
