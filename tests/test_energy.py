import math
import subprocess
import sys

import numpy as np
import pytest

from casimir_spectral import energy
from casimir_spectral.energy import (
    EnergySample,
    convergence_ladder,
    energy_sweep,
    local_exponents,
    zero_point_energy,
)
from casimir_spectral.errors import ConvergenceError
from casimir_spectral.model import (
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
)


def _sphere_config(gap, substrate=None, l_max=30):
    return SystemConfig(
        particle=PlacedParticle(Spheroid.sphere(1.0), gap=gap),
        substrate_medium=substrate or Medium.perfect_conductor(),
        l_max=l_max,
    )


class TestZeroPointEnergy:
    def test_attractive(self):
        sample = zero_point_energy(_sphere_config(1.0))
        assert sample.xi < 0.0

    def test_zero_contrast_is_zero(self):
        sample = zero_point_energy(_sphere_config(1.0, Medium.constant(1.0)))
        assert sample.xi == 0.0

    def test_perturbative_dipole_limit(self):
        # far field: Xi ~ f_c (a / 2d)^3 / sqrt(3)
        cfg = _sphere_config(15.0, l_max=15)
        d = cfg.particle.center_height
        predicted = -((1.0 / (2.0 * d)) ** 3) / math.sqrt(3.0)
        sample = zero_point_energy(cfg)
        assert sample.xi == pytest.approx(predicted, rel=0.02)

    def test_monotone_in_gap(self):
        xis = [zero_point_energy(_sphere_config(z)).xi for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(abs(a) > abs(b) for a, b in zip(xis, xis[1:]))

    def test_scale_invariance(self):
        cfg = SystemConfig(
            particle=PlacedParticle(Spheroid.prolate(2.0, 1.0), gap=0.7),
            substrate_medium=Medium.constant(3.12),
            l_max=20,
        )
        xi = zero_point_energy(cfg).xi
        xi_scaled = zero_point_energy(cfg.scaled(7.3)).xi
        assert xi_scaled == pytest.approx(xi, rel=1e-10)

    def test_blas_thread_count(self, src_env):
        # Multi-threaded BLAS sums in another order, so the last bits of Xi
        # depend on the thread count; they must stay within the 1e-12
        # relative gate of the benchmark, which pins one thread.
        code = (
            "from casimir_spectral import *\n"
            "particle = PlacedParticle(Spheroid.prolate(2.0, 1.0), gap=0.05)\n"
            "cfg = SystemConfig(particle, Medium.constant(3.12), l_max=90)\n"
            "print(repr(zero_point_energy(cfg).xi))\n"
        )
        xis = []
        for threads in ("1", "2"):
            env = dict(src_env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            xis.append(float(done.stdout))
        assert xis[1] == pytest.approx(xis[0], rel=1e-12, abs=0.0)


class TestConvergenceLadder:
    def test_reports_smallest_converged_order(self):
        sample = convergence_ladder(_sphere_config(2.0, l_max=90))
        assert sample.converged
        assert sample.l_max_used < 90
        assert sample.rel_change_last_step <= 1e-3

    def test_ladder_matches_fixed_truncation(self):
        sample = convergence_ladder(_sphere_config(3.0, l_max=90))
        fixed = zero_point_energy(_sphere_config(3.0, l_max=60))
        assert sample.xi == pytest.approx(fixed.xi, rel=1e-3)

    def test_small_gap_raises(self):
        cfg = _sphere_config(0.01)
        with pytest.raises(ConvergenceError) as info:
            convergence_ladder(cfg, l_cap=15)
        assert "history" in info.value.diagnostics

    def test_cap_below_two_rungs_raises(self):
        # rungs are l = 5, 10, ...: a cap below 10 would compare no two rungs
        with pytest.raises(ValueError, match="l_cap"):
            convergence_ladder(_sphere_config(1.0), l_cap=9)

    def test_l_max_used_decreases_with_distance(self):
        orders = [
            convergence_ladder(_sphere_config(z, l_max=90)).l_max_used
            for z in (0.3, 1.0, 5.0)
        ]
        assert orders[0] >= orders[1] >= orders[2]


def _samples(z_over_rmin, xi):
    return [
        EnergySample(z_over_rmin=z, xi=x, l_max_used=5, converged=True,
                     rel_change_last_step=0.0)
        for z, x in zip(z_over_rmin, xi)
    ]


class TestSweep:
    def test_sweep_orders_and_exponents(self):
        grid = np.geomspace(1.0, 8.0, 6)
        rows = energy_sweep([_sphere_config(z, l_max=60) for z in grid])
        assert len(rows) == 6
        assert all(row.sample is not None for row in rows)
        zs = np.array([row.sample.z_over_rmin for row in rows])
        assert np.all(np.diff(zs) > 0)
        betas = local_exponents([row.sample for row in rows])
        assert math.isnan(betas[0]) and math.isnan(betas[-1])
        inner = betas[1:-1]
        assert np.all((inner > 2.5) & (inner < 5.5))

    def test_local_exponent_far_limit(self):
        grid = np.geomspace(10.0, 14.0, 3)
        rows = energy_sweep([_sphere_config(z, l_max=30) for z in grid])
        beta = local_exponents([row.sample for row in rows])[1]
        assert beta == pytest.approx(3.0, abs=0.1)

    def test_undefined_exponent(self):
        # a zero or a sign change inside a stencil leaves NaN there only
        zs = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        betas = local_exponents(_samples(zs, (-8.0, 0.0, -2.0, -1.0, -0.5, -0.25)))
        assert np.isfinite(betas).tolist() == [False, False, False, True, True, False]
        betas = local_exponents(_samples(zs, (-8.0, -4.0, -2.0, -1.0, 0.5, -0.25)))
        assert np.isfinite(betas).tolist() == [False, True, True, False, False, False]

    def test_exponents_need_three_samples(self):
        for n in (0, 1, 2):
            betas = local_exponents(_samples((1.0, 2.0)[:n], (-2.0, -1.0)[:n]))
            assert betas.shape == (n,) and np.isnan(betas).all()

    def test_errors_recorded_in_rows(self):
        grid = [0.01, 5.0]
        rows = energy_sweep([_sphere_config(z, l_max=15) for z in grid], l_cap=15)
        assert rows[0].sample is None and rows[0].error
        assert rows[1].sample is not None
        assert [row.config.particle.gap for row in rows] == grid

    def test_programming_error_propagates(self, monkeypatch):
        def broken_ladder(config, **kwargs):
            raise TypeError("not a package error")

        monkeypatch.setattr(energy, "convergence_ladder", broken_ladder)
        with pytest.raises(TypeError):
            energy_sweep([_sphere_config(z) for z in (1.0, 2.0)])
