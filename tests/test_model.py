import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_spectral.errors import (
    ContactError,
    DegenerateCoordinateError,
    InvalidMediumError,
)
from casimir_spectral.model import (
    Family,
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
    contrast_fc,
    spheroid_xi0,
)

from scaling import scaled_config


class TestSpheroid:
    def test_sphere_constructor(self):
        s = Spheroid.sphere(2.0)
        assert s.family is Family.SPHERE
        assert s.r_major == s.r_minor == 2.0
        assert s.eccentricity == 0.0
        assert s.apex_curvature_radius == 2.0

    def test_prolate_axes(self):
        s = Spheroid.prolate(2.0, 1.0)
        assert s.r_perp == 2.0  # symmetry axis, normal to substrate
        assert s.r_par == 1.0
        assert s.eccentricity == pytest.approx(math.sqrt(3.0) / 2.0)
        assert s.apex_curvature_radius == pytest.approx(0.5)

    def test_oblate_axes(self):
        s = Spheroid.oblate(2.0, 1.0)
        assert s.r_perp == 1.0
        assert s.r_par == 2.0
        assert s.apex_curvature_radius == pytest.approx(4.0)

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            Spheroid.prolate(1.0, 2.0)
        with pytest.raises(ValueError):
            Spheroid.prolate(1.0, 1.0)  # equal axes must be a sphere
        with pytest.raises(ValueError):
            Spheroid.sphere(-1.0)

    def test_xi0_conventions(self):
        prolate = Spheroid.prolate(2.0, 1.0)
        assert spheroid_xi0(prolate) == pytest.approx(1.0 / prolate.eccentricity)
        assert spheroid_xi0(prolate) > 1.0
        oblate = Spheroid.oblate(2.0, 1.0)
        zeta0 = spheroid_xi0(oblate)
        assert zeta0 == pytest.approx(1.0 / (2.0 * oblate.eccentricity) * 1.0)
        # surface identity: r_minor = F * zeta0
        assert oblate.focal_scale * zeta0 == pytest.approx(oblate.r_minor)
        with pytest.raises(DegenerateCoordinateError):
            spheroid_xi0(Spheroid.sphere(1.0))
        with pytest.raises(DegenerateCoordinateError):
            Spheroid.sphere(1.0).focal_scale

    @given(
        st.floats(1.01, 10.0),
        st.floats(0.1, 1.0),
        st.floats(0.1, 100.0),
    )
    def test_scaling_preserves_shape(self, aspect, r_minor, factor):
        s = Spheroid.prolate(aspect * r_minor, r_minor)
        cfg = SystemConfig(PlacedParticle(s, gap=r_minor), Medium.constant(3.12))
        t = scaled_config(cfg, factor).particle.spheroid
        assert t.r_major / t.r_minor == pytest.approx(s.r_major / s.r_minor)
        assert t.eccentricity == pytest.approx(s.eccentricity)


class TestPlacedParticle:
    def test_center_height(self):
        p = PlacedParticle(Spheroid.oblate(2.0, 1.0), gap=0.5)
        assert p.center_height == pytest.approx(1.5)
        # the gap over r_minor, not over the normal semi-axis r_perp
        assert PlacedParticle(Spheroid.prolate(2.0, 0.5), gap=0.25).z_over_rmin == 0.5

    def test_contact_rejected(self):
        with pytest.raises(ContactError):
            PlacedParticle(Spheroid.sphere(1.0), gap=0.0)
        with pytest.raises(ContactError):
            PlacedParticle(Spheroid.sphere(1.0), gap=-1.0)


class TestMedia:
    def test_contrast_values(self):
        assert contrast_fc(1.0, Medium.perfect_conductor()) == -1.0
        f_c = contrast_fc(1.0, Medium.constant(3.12))
        assert f_c == pytest.approx(-0.514563, abs=1e-6)
        assert contrast_fc(1.0, Medium.constant(1.0)) == 0.0

    def test_infinite_epsilon_is_perfect_conductor(self):
        assert Medium(math.inf) == Medium.perfect_conductor()
        assert contrast_fc(1.0, Medium(math.inf)) == -1.0

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_non_positive_epsilon_rejected(self, eps):
        with pytest.raises(InvalidMediumError):
            Medium(eps)

    @given(st.floats(1.0, 100.0))
    def test_contrast_range(self, eps):
        f_c = contrast_fc(1.0, Medium.constant(eps))
        assert -1.0 < f_c <= 0.0

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidMediumError):
            Medium.constant(eps)
        particle = PlacedParticle(Spheroid.sphere(1.0), gap=1.0)
        with pytest.raises(InvalidMediumError):
            SystemConfig(particle, Medium.constant(3.12), ambient_epsilon=eps)


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig(
            particle=PlacedParticle(Spheroid.sphere(1.0), gap=1.0),
            substrate_medium=Medium.perfect_conductor(),
        )
        assert cfg.f_c == -1.0

    def test_l_max_below_one_rejected(self):
        # a non-integral order fails here, not later inside the ladder; so
        # does True, a numbers.Integral >= 1 that a ladder would report as
        # l_max_used=True
        particle = PlacedParticle(Spheroid.sphere(1.0), gap=1.0)
        for l_max in (0, math.nan, 2.5, 10.0, True):
            with pytest.raises(ValueError, match="l_max"):
                SystemConfig(particle, Medium.perfect_conductor(), l_max=l_max)
        assert SystemConfig(particle, Medium.perfect_conductor(), l_max=np.int64(7)).l_max == 7

    def test_scaled_config(self):
        cfg = SystemConfig(
            particle=PlacedParticle(Spheroid.prolate(2.0, 1.0), gap=0.5),
            substrate_medium=Medium.constant(3.12),
        )
        scaled = scaled_config(cfg, 10.0)
        assert scaled.particle.gap == pytest.approx(5.0)
        assert scaled.f_c == cfg.f_c
