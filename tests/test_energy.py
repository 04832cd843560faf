import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from casimir_spectral import cli, energy, spectral
from casimir_spectral.energy import (
    EnergySample,
    convergence_ladder,
    energy_sweep,
    local_exponents,
    zero_point_energy,
)
from casimir_spectral.errors import CasimirSpectralError, ConvergenceError
from casimir_spectral.model import (
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
)

from scaling import scaled_config


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
        xi_scaled = zero_point_energy(scaled_config(cfg, 7.3)).xi
        assert xi_scaled == pytest.approx(xi, rel=1e-10)

    @pytest.mark.parametrize("call", [zero_point_energy, convergence_ladder])
    def test_nothing_outlives_a_lone_call(self, monkeypatch, call):
        # the surface tables a call given no workspace builds are freed
        # when it returns
        build = spectral._surface_tables
        refs = []

        def recorded(*args):
            ms, tables = build(*args)
            refs.extend(map(weakref.ref, tables))
            return ms, tables

        monkeypatch.setattr(spectral, "_surface_tables", recorded)
        call(_oblate_config(Medium(3.12), 0.5, l_max=10))
        assert refs and all(ref() is None for ref in refs)

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

    def test_failed_ladder_names_last_rung_and_cap(self):
        # rungs are l = 5, 10: the cap 12 is never a rung itself
        with pytest.raises(ConvergenceError) as info:
            convergence_ladder(_sphere_config(0.01), l_cap=12)
        assert info.value.diagnostics["history"][-1][0] == 10
        assert "at l_max 10, the last rung within the cap 12 " in str(info.value)

    def test_cap_below_two_rungs_raises(self):
        # rungs are l = 5, 10, ...: a cap below 10 would compare no two rungs,
        # and a non-integral cap is no truncation order
        for l_cap in (9, 12.5, 20.0, math.nan):
            with pytest.raises(ValueError, match="l_cap"):
                convergence_ladder(_sphere_config(1.0), l_cap=l_cap)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, math.nan])
    def test_non_positive_tolerance_raises(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            convergence_ladder(_sphere_config(1.0), tolerance=tolerance)

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

    def test_repeated_gaps_give_nan(self):
        # equal outer gaps leave the centred difference undefined
        betas = local_exponents(_samples((0.2, 0.2, 0.2), (-1.0, -1.0, -1.0)))
        assert np.isnan(betas).all()

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

    def test_ladders_run_in_config_order(self, monkeypatch):
        # media outer, gaps inner, as the CLI builds fig1: each particle
        # repeats out of order, and its ladders still run in the given order
        ladder = energy.convergence_ladder
        calls = []

        def recorded(config, **kwargs):
            calls.append(config)
            return ladder(config, **kwargs)

        monkeypatch.setattr(energy, "convergence_ladder", recorded)
        media = (Medium(math.inf), Medium(3.12))
        configs = [_sphere_config(z, medium) for medium in media for z in (2.0, 4.0)]
        rows = energy_sweep(configs, l_cap=15)
        assert calls == configs
        assert [row.config for row in rows] == configs

    def test_programming_error_propagates(self, monkeypatch):
        def broken_ladder(config, **kwargs):
            raise TypeError("not a package error")

        monkeypatch.setattr(energy, "convergence_ladder", broken_ladder)
        with pytest.raises(TypeError):
            energy_sweep([_sphere_config(z) for z in (1.0, 2.0)])


def _oblate_config(medium, z, l_max=30):
    spheroid = Spheroid.oblate(1.4, 1.0)
    return SystemConfig(
        particle=PlacedParticle(spheroid, gap=z * spheroid.r_minor),
        substrate_medium=medium,
        l_max=l_max,
    )


def _kept_D(workspace):
    # a kept coupling block is listed once, under its first sector
    return [D for kept in workspace.D.values() for _, D in kept.values()]


def _held_bytes(workspace):
    # the memory the stacks of the kept coupling blocks own
    return sum((D if D.base is None else D.base).nbytes for D in _kept_D(workspace))


class TestSharedCoupling:
    """energy_sweep shares each particle's coupling D between the configs
    that repeat the particle over other substrates."""

    MEDIA = (Medium(math.inf), Medium(7.8), Medium(3.12))
    GAPS = (0.05, 0.3, 1.5)
    L_CAP = 20

    def _configs(self, media=MEDIA):
        # labels outer, gaps inner, as the CLI builds them
        return [_oblate_config(medium, z) for medium in media for z in self.GAPS]

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = spectral._spheroid_coupling

        def counted(workspace, particle, ms, l_max, surface):
            builds.append((particle, ms, l_max))
            return build(workspace, particle, ms, l_max, surface)

        monkeypatch.setattr(spectral, "_spheroid_coupling", counted)
        return builds

    def _cold_row(self, config):
        try:
            return convergence_ladder(config, l_cap=self.L_CAP), None
        except CasimirSpectralError as exc:
            return None, str(exc)

    def test_sharing_changes_no_row(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        rows = energy_sweep(self._configs(), l_cap=self.L_CAP)
        swept = list(builds)
        assert any(row.error for row in rows[:: len(self.GAPS)])  # smallest gap fails
        for row in rows:
            sample, error = self._cold_row(row.config)
            assert row.error == error
            if sample is not None:
                assert row.sample.xi == sample.xi
                assert row.sample.l_max_used == sample.l_max_used
                assert row.sample.converged == sample.converged
        assert len(set(swept)) == len(swept)  # each block (particle, ms, l_max) once
        builds.clear()
        for config in self._configs(self.MEDIA[:1]):
            self._cold_row(config)
        assert len(swept) == len(builds)

    def test_a_particle_is_dropped_after_its_last_config(self, monkeypatch):
        # gaps outer, media inner: a particle's blocks are gone when the
        # next particle's first ladder starts, not kept until the sweep
        # returns
        ladder = energy.convergence_ladder
        kept = []

        def recorded(config, **kwargs):
            kept.append({particle.gap for particle in kwargs["workspace"].D})
            return ladder(config, **kwargs)

        monkeypatch.setattr(energy, "convergence_ladder", recorded)
        gaps, media = self.GAPS[1:], self.MEDIA[1:]
        energy_sweep([_oblate_config(m, z) for z in gaps for m in media], l_cap=self.L_CAP)
        assert kept == [{0.3}, {0.3}, {1.5}, {1.5}]

    def test_nothing_outlives_the_sweep(self, monkeypatch):
        ladder = energy.convergence_ladder
        held = []

        def recorded(config, **kwargs):
            try:
                return ladder(config, **kwargs)
            finally:
                workspace = kwargs["workspace"]
                held.extend(map(weakref.ref, _kept_D(workspace)))
                held.extend(map(weakref.ref, workspace.weighted.values()))

        monkeypatch.setattr(energy, "convergence_ladder", recorded)
        energy_sweep(self._configs(), l_cap=self.L_CAP)
        assert held and all(ref() is None for ref in held)

    def test_nothing_outlives_a_raising_sweep(self, monkeypatch):
        ladder = energy.convergence_ladder
        calls, held, writeable = [], [], []

        def second_raises(config, **kwargs):
            calls.append(config)
            if len(calls) == 2:
                kept = _kept_D(kwargs["workspace"])
                held.extend(map(weakref.ref, kept))
                writeable.extend(D.flags.writeable for D in kept)
                raise RuntimeError("not a package error")
            return ladder(config, **kwargs)

        monkeypatch.setattr(energy, "convergence_ladder", second_raises)
        with pytest.raises(RuntimeError):
            energy_sweep(self._configs(), l_cap=self.L_CAP)
        assert held and not any(writeable)
        assert all(ref() is None for ref in held)

    def test_fig1_holds_under_one_mib(self, tmp_path, monkeypatch):
        ladder = energy.convergence_ladder
        peak, held = 0, []

        def measured(config, **kwargs):
            nonlocal peak
            try:
                return ladder(config, **kwargs)
            finally:
                peak = max(peak, _held_bytes(kwargs["workspace"]))
                held.extend(map(weakref.ref, _kept_D(kwargs["workspace"])))

        monkeypatch.setattr(energy, "convergence_ladder", measured)
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text("# the default grid\n")
        assert cli.main(["fig1", "--config", str(cfg), "--output", str(tmp_path / "f.csv")]) == 0
        assert 0 < peak <= 1 << 20
        assert all(ref() is None for ref in held)


class TestSharedWeighted:
    """energy_sweep keeps the Gauss-weighted Ferrers table of each block,
    which depends on the rung and the block's sectors alone, for the later
    gaps and spheroids of the sweep, within spectral._BLOCK_CELLS cells."""

    L_CAP = 30

    def _configs(self):
        # oblate 1.4 at z/r_min 0.2 climbs to rung 30, past the rungs the
        # budget holds; at 0.1 it fails at the cap
        prolate = Spheroid.prolate(2.0, 1.0)
        return [
            _oblate_config(Medium(math.inf), 0.2),
            _oblate_config(Medium(math.inf), 1.5),
            SystemConfig(PlacedParticle(prolate, gap=0.5), Medium(3.12), l_max=30),
            _oblate_config(Medium(3.12), 0.1),
            _oblate_config(Medium(3.12), 1.5),
        ]

    @staticmethod
    def _count_ferrers(monkeypatch):
        calls = []
        ferrers = spectral.normalized_ferrers_table

        def counted(ms, l_max, eta):
            calls.append((ms, l_max))
            return ferrers(ms, l_max, eta)

        monkeypatch.setattr(spectral, "normalized_ferrers_table", counted)
        return calls

    def test_rows_equal_lone_ladders(self, monkeypatch):
        calls = self._count_ferrers(monkeypatch)
        rows = energy_sweep(self._configs(), l_cap=self.L_CAP)
        swept = len(calls)
        assert rows[3].error and all(row.sample for i, row in enumerate(rows) if i != 3)
        calls.clear()
        for row in rows:
            try:
                sample, error = convergence_ladder(row.config, l_cap=self.L_CAP), None
            except CasimirSpectralError as exc:
                sample, error = None, str(exc)
            assert row.error == error
            if sample is not None:
                assert row.sample.xi.hex() == sample.xi.hex()
                assert row.sample.l_max_used == sample.l_max_used
        # the lone ladders build every weighted table again
        assert swept < len(calls)

    def test_held_cells_stay_within_budget_and_go_with_a_raising_sweep(self, monkeypatch):
        weighted = spectral._weighted_ferrers
        ladder = energy.convergence_ladder
        cells, held, writeable, built = [], [], [], set()

        def measured(workspace, ms, l_max, eta, gw):
            built.add((ms, l_max))
            table = weighted(workspace, ms, l_max, eta, gw)
            cells.append(sum(t.size for t in workspace.weighted.values()))
            return table

        def last_raises(config, **kwargs):
            if config is configs[-1]:
                kept = kwargs["workspace"].weighted.values()
                held.extend(map(weakref.ref, kept))
                writeable.extend(t.flags.writeable for t in kept)
                raise RuntimeError("not a package error")
            return ladder(config, **kwargs)

        monkeypatch.setattr(spectral, "_weighted_ferrers", measured)
        monkeypatch.setattr(energy, "convergence_ladder", last_raises)
        configs = self._configs()
        with pytest.raises(RuntimeError):
            energy_sweep(configs, l_cap=self.L_CAP)
        assert all(ref() is None for ref in held)
        assert 0 < max(cells) <= spectral._BLOCK_CELLS
        # rung 30 did not fit beside rungs 5-25
        assert held and len(held) < len(built)
        assert not any(writeable)
