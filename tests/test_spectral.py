import math
import tracemalloc
import weakref
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from casimir_spectral import spectral
from casimir_spectral.energy import energy_sweep, zero_point_energy
from casimir_spectral.errors import (
    CasimirSpectralError,
    ContractViolationError,
    SpecFunDomainError,
    SpecFunOverflowError,
    UnphysicalModeError,
)
from casimir_spectral.model import (
    Family,
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
    spheroid_xi0,
)
from casimir_spectral.spectral import (
    coupling_matrix_D,
    isolated_depolarization,
    isolated_depolarization_table,
    mode_spectrum,
    spectral_block,
)
from casimir_spectral.specfun import log_factorials, oblate_radial_table, prolate_radial_table


def _config(spheroid, gap, substrate, l_max=20):
    return SystemConfig(
        particle=PlacedParticle(spheroid, gap=gap),
        substrate_medium=substrate,
        l_max=l_max,
    )


def _energy_peak_mib(cfg):
    """The tracemalloc peak of zero_point_energy(cfg), in MiB."""
    tracemalloc.start()
    try:
        zero_point_energy(cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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

    def test_aspect_limit(self):
        # below aspect coth(21/4000) ~ 190 n10 matches the closed form
        # (1 - e^2)/e^3 (artanh e - e); above it the Q continued fraction
        # would stop unconverged, so the table raises instead
        e = Spheroid.prolate(100.0, 1.0).eccentricity
        n10 = isolated_depolarization(Spheroid.prolate(100.0, 1.0), 1, 0)
        assert n10 == pytest.approx((1.0 - e * e) / e**3 * (math.atanh(e) - e), rel=1e-11)
        e = 1.0 / (1.0 + 1e-9)
        needle = Spheroid.prolate(1.0, math.sqrt(1.0 - e * e))
        for spheroid in (needle, Spheroid.prolate(1000.0, 1.0), Spheroid.oblate(1000.0, 1.0)):
            with pytest.raises(CasimirSpectralError):
                isolated_depolarization(spheroid, 1, 0)

    @pytest.mark.parametrize("l, m", [(0, 0), (1, -1), (2, 3)])
    def test_order_outside_domain_raises(self, l, m):
        with pytest.raises(SpecFunDomainError):
            isolated_depolarization(Spheroid.sphere(1.0), l, m)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(1.05, 5.0),
        st.sampled_from(["prolate", "oblate"]),
        st.integers(0, 4),
    )
    def test_eigenvalue_range(self, aspect, family, m):
        ctor = Spheroid.prolate if family == "prolate" else Spheroid.oblate
        table = isolated_depolarization_table(ctor(aspect, 1.0), m, 12)
        assert len(table) == 13 - max(m, 1)
        assert np.all(table > 0.0)
        assert np.all(table < 1.0)


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

    def test_weights_survive_underflow_of_their_product(self):
        # xi0 = 1 + 2e-5 (aspect 158): from m = 74 on, nP * ndP falls below
        # the smallest normal double at l_max = 150, and the weight from
        # that product alone is 0 for the first rows of the sector
        e = 1.0 / (1.0 + 2e-5)
        needle = Spheroid.prolate(1.0, math.sqrt(1.0 - e * e))
        D = coupling_matrix_D(PlacedParticle(needle, needle.r_minor), 74, 150)
        assert np.all(np.isfinite(D))
        assert np.array_equal(D, D.T)
        assert np.max(np.abs(D)) > 0.0

    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.sphere(1.0), Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)],
        ids=lambda s: s.family.value,
    )
    def test_tables_are_read_only(self, spheroid):
        # an energy_sweep hands one D to the ladders of every substrate, so
        # no caller may write into it; n_iso follows the same contract
        D = coupling_matrix_D(PlacedParticle(spheroid, gap=0.5), 1, 6)
        n_iso = isolated_depolarization_table(spheroid, 1, 6)
        for table in (D, n_iso):
            with pytest.raises(ValueError):
                table[-1, ...] = 0.0


class TestSpectralBlocks:
    def test_image_dipole_shift(self):
        cfg = _config(Spheroid.sphere(1.0), 9.0, Medium.perfect_conductor())
        kappa = (1.0 / (2.0 * cfg.particle.center_height)) ** 3
        n_perp = np.sort(spectral_block(cfg, 0).eigenvalues)[0]
        n_par = np.sort(spectral_block(cfg, 1).eigenvalues)[0]
        assert n_perp == pytest.approx((1.0 - 2.0 * kappa) / 3.0, rel=1e-6)
        assert n_par == pytest.approx((1.0 - kappa) / 3.0, rel=1e-6)

    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.sphere(1.0), Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)],
        ids=["sphere", "prolate", "oblate"],
    )
    def test_strengths_are_squared_eigenvectors(self, spheroid):
        cfg = _config(spheroid, 0.5, Medium.constant(3.12), l_max=12)
        for m in (0, 1, 5):
            block = spectral_block(cfg, m)
            _, vecs = spectral.eigendecompose(block.H)
            assert np.array_equal(block.strengths, block.eigenvectors**2)
            assert np.array_equal(block.strengths, vecs**2)

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
        # one at the mirror points per block of sectors; the node cache
        # starts empty
        monkeypatch.setattr(spectral, "_quad_nodes", lru_cache(spectral._quad_nodes.__wrapped__))
        calls = {"leggauss": 0, "prolate_radial_table": 0}

        def counting(name):
            original = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        counting("leggauss")
        counting("prolate_radial_table")
        cfg = _config(Spheroid.prolate(2.0, 1.0), 0.5, Medium.constant(3.12), l_max=10)
        workspace = spectral._Workspace()
        mode_spectrum(cfg, workspace=workspace)
        assert calls == {"leggauss": 1, "prolate_radial_table": 2}
        # a smaller rung on the same spheroid reads the l = 10 surface
        # tables and builds only its mirror block
        mode_spectrum(cfg.with_l_max(5), workspace=workspace)
        assert calls == {"leggauss": 2, "prolate_radial_table": 3}
        # so does every rung of the next gap point of a sweep: one radial
        # call per rung
        for l_max in (5, 10):
            gap = _config(cfg.particle.spheroid, 0.8, Medium.constant(3.12), l_max)
            mode_spectrum(gap, workspace=workspace)
        assert calls == {"leggauss": 2, "prolate_radial_table": 5}
        # a call given no workspace builds its surface tables anew
        mode_spectrum(cfg.with_l_max(5))
        assert calls == {"leggauss": 2, "prolate_radial_table": 7}
        # the cached tables cannot be changed by a caller
        table = isolated_depolarization_table(cfg.particle.spheroid, 10, 10)
        assert not table.flags.writeable

    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.sphere(1.0), Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)],
        ids=["sphere", "prolate", "oblate"],
    )
    def test_mode_spectrum_matches_spectral_block(self, spheroid):
        cfg = _config(spheroid, 0.3, Medium.constant(3.12), l_max=12)
        sectors = mode_spectrum(cfg)
        assert [s.m for s in sectors] == list(range(13))
        for m, sector in enumerate(sectors):
            block = spectral_block(cfg, m)
            assert sector.multiplicity == block.multiplicity
            assert np.array_equal(sector.eigenvalues, block.eigenvalues)
            assert np.array_equal(sector.isolated, block.isolated)

    def test_mode_spectrum_keeps_no_vectors(self, monkeypatch):
        # oblate 1.5 at z/r_min = 0.05 over a perfect conductor, l_max = 90,
        # in blocks of 1 << 16 cells: the bound lies between the 1.57 MiB
        # peak of eigenvalues only, solved block by block, and the 7.06 MiB
        # of every sector's H, vectors and strengths kept until the sum ends
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1 << 16)
        cfg = _config(Spheroid.oblate(1.5, 1.0), 0.05, Medium.perfect_conductor(), l_max=90)
        assert _energy_peak_mib(cfg) < 4

    def test_default_block_budget(self, monkeypatch):
        # the default blocks hold that rung's energy under 6 MiB (5.03 MiB
        # measured, in 5 blocks), and a long rung of a flat oblate gives
        # the same energy, bit for bit, in the default blocks and in blocks
        # of 1 << 16 cells
        cfg = _config(Spheroid.oblate(1.5, 1.0), 0.05, Medium.perfect_conductor(), l_max=90)
        assert _energy_peak_mib(cfg) < 6
        cfg = _config(Spheroid.oblate(10.0, 1.0), 0.2, Medium.constant(3.12), l_max=120)
        xi = zero_point_energy(cfg).xi.hex()
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1 << 16)
        assert zero_point_energy(cfg).xi.hex() == xi

    def test_each_block_reads_its_surface_rows_once(self, monkeypatch):
        # oblate 1.5 at l_max = 90 over a perfect conductor: each block
        # reads the held surface block once, and its D build reads the
        # rows it is handed, not the held block
        cfg = _config(Spheroid.oblate(1.5, 1.0), 0.05, Medium.perfect_conductor(), l_max=90)
        calls = {"_surface_block": 0, "_spheroid_coupling": 0}

        def counting(name):
            original = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        counting("_surface_block")
        counting("_spheroid_coupling")
        assert len(mode_spectrum(cfg)) == 91
        blocks = [spectral._block_orders(0, 91, 90)]
        while blocks[-1].stop < 91:
            blocks.append(spectral._block_orders(blocks[-1].stop, 91, 90))
        assert calls == {"_surface_block": len(blocks), "_spheroid_coupling": len(blocks)}

    @pytest.mark.parametrize(
        "spheroid", [Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)], ids=["prolate", "oblate"]
    )
    def test_block_size_does_not_change_sectors(self, monkeypatch, spheroid):
        # the H of every sector read from the default blocks (one block of
        # all 13 sectors at l_max = 12) equals, bit for bit, the H of one
        # block for the whole rung, of one sector per block, and of
        # spectral_block's one-sector builds requested out of order
        cfg = _config(spheroid, 0.3, Medium.constant(3.12), l_max=12)
        assert spectral._block_orders(0, 13, 12) == range(13)

        def sector_H():
            sectors = spectral._sectors(spectral._Workspace(), cfg, 0, 13)
            return [H.tobytes() for _, _, H in sectors]

        blocked = sector_H()
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1 << 30)
        assert sector_H() == blocked
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)
        assert sector_H() == blocked
        for m in (7, 3, 12, 0, 8):
            assert spectral_block(cfg, m).H.tobytes() == blocked[m]

    @pytest.mark.parametrize(
        "spheroid", [Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.5, 1.0)], ids=["prolate", "oblate"]
    )
    def test_block_boundaries_move_no_bit(self, monkeypatch, spheroid):
        # one sector per block, the default blocks (3 at l_max = 60), and
        # one block for the whole rung give the same spectrum and energy,
        # bit for bit
        cfg = _config(spheroid, 0.05 * spheroid.r_minor, Medium.perfect_conductor(), l_max=60)
        build = spectral._spheroid_coupling
        blocks = []

        def counted(*args):
            blocks[-1] += 1
            return build(*args)

        monkeypatch.setattr(spectral, "_spheroid_coupling", counted)
        runs = []
        for cells in (1, spectral._BLOCK_CELLS, 1 << 30):
            monkeypatch.setattr(spectral, "_BLOCK_CELLS", cells)
            blocks.append(0)
            sectors = mode_spectrum(cfg)
            xi = zero_point_energy(cfg).xi
            spectrum = b"".join(s.eigenvalues.tobytes() + s.isolated.tobytes() for s in sectors)
            runs.append((spectrum, xi.hex()))
        assert runs[0] == runs[1] == runs[2]
        assert blocks[0] == 2 * 61 and blocks[2] == 2 and 2 < blocks[1] < 2 * 61

    @pytest.mark.parametrize("cells", [1, 1 << 16], ids=["one_sector", "one_block"])
    @pytest.mark.parametrize("check", ["sign", "symmetry"])
    def test_failing_check_raises_in_its_turn(self, monkeypatch, cells, check):
        # sector 3's weights change sign, or its D is not finite: it raises
        # when the sector loop reaches it, after sectors 0-2 are solved,
        # wherever its block starts
        cfg = _config(Spheroid.prolate(2.0, 1.0), 0.5, Medium.constant(3.12), l_max=12)
        if check == "sign":
            name, message = "_surface_tables", "unexpected sign pattern"
            original = spectral._surface_tables

            def broken(spheroid, l_max, start):
                ms, (n_iso, w, nP) = original(spheroid, l_max, start)
                w = w.copy()
                w[3 - ms.start] *= -1.0
                return ms, (n_iso, w, nP)

        else:
            name, message = "normalized_ferrers_table", "not finite or asymmetric"
            original = spectral.normalized_ferrers_table

            def broken(m, l_max, eta):
                table = original(m, l_max, eta)
                if 3 in m:
                    table[3 - m.start] = np.nan
                return table

        solved = []
        eigendecompose = spectral.eigendecompose

        def counted(H):
            solved.append(len(H))
            return eigendecompose(H)

        monkeypatch.setattr(spectral, name, broken)
        monkeypatch.setattr(spectral, "eigendecompose", counted)
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", cells)
        with pytest.raises(ContractViolationError, match=message):
            mode_spectrum(cfg)
        assert solved == [12, 12, 11]
        with pytest.raises(ContractViolationError, match=message):
            coupling_matrix_D(cfg.particle, 3, cfg.l_max)
        assert spectral_block(cfg, 4).m == 4

    def test_mirror_block_freed_before_next(self, monkeypatch):
        # one sector per block: when a block's mirror radial call runs, the
        # coupling blocks before it are freed, and no block outlives the
        # call that built it
        cfg = _config(Spheroid.prolate(2.0, 1.0), 0.3, Medium.constant(3.12), l_max=6)
        radial, build = spectral.prolate_radial_table, spectral._spheroid_coupling
        blocks = []
        built = []

        def mirror_radial(ms, l_max, x, **kwargs):
            if len(x) > 1:  # the mirror points, not the one surface point
                built.append(all(ref() is None for ref in blocks))
            return radial(ms, l_max, x, **kwargs)

        def coupling(workspace, particle, ms, l_max, surface):
            block = build(workspace, particle, ms, l_max, surface)
            assert block[0] == ms == range(ms.start, ms.start + 1)
            blocks.append(weakref.ref(block[1]))
            return block

        monkeypatch.setattr(spectral, "prolate_radial_table", mirror_radial)
        monkeypatch.setattr(spectral, "_spheroid_coupling", coupling)
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)
        mode_spectrum(cfg)
        assert len(blocks) == cfg.l_max + 1
        assert all(ref() is None for ref in blocks)
        for m in range(cfg.l_max + 1):
            spectral_block(cfg, m)
            assert blocks[-1]() is None
        assert built == [True] * 2 * (cfg.l_max + 1)

    def test_failed_mirror_build_is_retried(self, monkeypatch):
        # a mirror block whose build raised leaves no block behind, and the
        # next sector builds its own
        cfg = _config(Spheroid.prolate(2.0, 1.0), 0.3, Medium.constant(3.12), l_max=6)
        expected = spectral_block(cfg, 2).H
        original = spectral._mirror_tables

        def failing(workspace, particle, l_max, ms):
            monkeypatch.setattr(spectral, "_mirror_tables", original)
            raise SpecFunOverflowError("mirror tables overflow", m=ms.start)

        monkeypatch.setattr(spectral, "_mirror_tables", failing)
        with pytest.raises(SpecFunOverflowError):
            spectral_block(cfg, 2)
        assert np.array_equal(spectral_block(cfg, 2).H, expected)

    def test_surface_blocks_dropped_with_their_spheroid(self, monkeypatch):
        # one surface block is held per spheroid, that of its largest rung:
        # a larger rung's block replaces it, a smaller rung reads it, and
        # it leaves the cache before the first block of the next spheroid
        # is built
        prolate = Spheroid.prolate(2.0, 1.0)
        workspace = spectral._Workspace()
        refs = []
        for l_max in (5, 10, 5):
            _, (n_iso, *_) = spectral._surface_block(workspace, prolate, range(1), l_max)
            assert n_iso.shape == (1, l_max)  # l = 1..l_max
            refs.append(weakref.ref(workspace.held[3][0]))
            del n_iso
        assert workspace.held[:2] == (prolate, 10)
        assert refs[0]() is None and refs[1]() is refs[2]() is not None
        original = spectral.oblate_radial_table
        dropped = []

        def radial(*args, **kwargs):
            dropped.append(refs[1]() is None)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "oblate_radial_table", radial)
        spectral._surface_block(workspace, Spheroid.oblate(1.4, 1.0), range(1), 5)
        assert dropped == [True]

    def test_whole_ladder_kept(self, monkeypatch):
        # every rung of a ladder up to l_cap = 200 builds its surface block
        # once: the next gap point reads each rung from the l = 200 block,
        # the one block held, which is under 1 MiB
        spheroid = Spheroid.prolate(2.0, 1.0)
        original = spectral.prolate_radial_table
        surface = []

        def radial(m, l_max, x, **kwargs):
            surface.append(l_max)
            return original(m, l_max, x, **kwargs)

        monkeypatch.setattr(spectral, "prolate_radial_table", radial)
        rungs = range(5, 201, 5)
        workspace = spectral._Workspace()
        for _ in range(2):
            for l_max in rungs:
                spectral._surface_block(workspace, spheroid, range(1), l_max)
        assert surface == list(rungs)
        # each table owns its memory or views a distinct array
        tables = workspace.held[3]
        assert sum((t if t.base is None else t.base).nbytes for t in tables) <= 1 << 20

    @pytest.mark.parametrize("ctor", [Spheroid.prolate, Spheroid.oblate], ids=["prolate", "oblate"])
    @pytest.mark.parametrize("aspect", [1.4, 2.0, 8.0, 120.0, 1.0 + 1e-6])
    def test_surface_tables_nest(self, ctor, aspect):
        # the rows l <= L of a rung-L' build are bit for bit the rung-L
        # build, which lets every rung read the block of the largest one
        # (L' = 96 is the largest rung of the near-sphere that builds)
        spheroid = ctor(aspect, 1.0)
        ms, large = spectral._surface_tables(spheroid, 96, 0)
        assert ms == range(97)
        for l_max in range(5, 96, 5):
            ms, tables = spectral._surface_tables(spheroid, l_max, 0)
            assert ms == range(l_max + 1)
            for t, t_large in zip(tables, large):
                assert np.array_equal(t, t_large[: l_max + 1, : l_max + 1])

    @pytest.mark.parametrize(
        "spheroid, l_max, start",
        [
            (Spheroid.prolate(2.0, 1.0), 12, 0),
            (Spheroid.oblate(1.4, 1.0), 12, 0),
            (Spheroid.oblate(30.0, 1.0), 40, 17),
            # the needle: from m = 74 on the weights come from the factors
            (Spheroid.prolate(1.0, math.sqrt(1.0 - (1.0 / (1.0 + 2e-5)) ** 2)), 140, 70),
        ],
        ids=["prolate", "oblate", "flat_oblate", "needle"],
    )
    def test_surface_tables_match_loop(self, spheroid, l_max, start):
        # dnP/dxi by its recurrence in l, one entry at a time, from the
        # one-order P and Q tables, rows l = m..l_max: n_iso, w and nP0
        # equal it bit for bit
        prolate = spheroid.family is Family.PROLATE
        sigma, table = (1.0, prolate_radial_table) if prolate else (-1.0, oblate_radial_table)
        x0 = spheroid_xi0(spheroid)
        w0 = x0 * x0 - sigma
        ms, tables = spectral._surface_tables(spheroid, l_max, start)
        assert ms == range(start, l_max + 1)
        for k, m in enumerate(ms):
            P, Q = (t[0, :, 0] for t in table(range(m, m + 1), l_max, [x0]))
            T = -((-1.0) ** m) / w0
            n_iso, w = np.zeros(l_max + 1), np.zeros(l_max + 1)
            for l in range(l_max + 1):
                Pl = P[l - m] if l >= m else 0.0
                if l < m:
                    dP = 0.0
                elif l == m:
                    dP = m * x0 * Pl / w0
                else:
                    dP = (l * x0 * Pl - sigma * math.sqrt(l * l - m * m) * P[l - 1 - m]) / w0
                if l >= m:
                    n_iso[l] = -dP * Q[l - m] / T
                c = -Pl * dP / T
                if min(abs(Pl * dP), abs(c)) >= np.finfo(float).tiny:
                    w[l] = np.sign(c) * math.sqrt(abs(c))
                else:
                    amp = math.sqrt(abs(Pl)) * math.sqrt(abs(dP / T))
                    w[l] = -np.sign(Pl) * np.sign(dP) * np.sign(T) * amp
            for actual, expected in zip(tables, (n_iso, w)):
                assert actual[k].tobytes() == expected.tobytes(), m
            nP0 = tables[2][k]
            assert nP0[m:].tobytes() == P.tobytes() and nP0[:m].tobytes() == bytes(8 * m), m

    def test_failing_sector_kept_out_of_the_held_block(self, monkeypatch):
        # a sector whose surface tables fail does not evict the block of the
        # sectors below it: the next gap points build only the failing one
        e = 1.0 / (1.0 + 2e-5)
        needle = Spheroid.prolate(1.0, math.sqrt(1.0 - e * e))
        original = spectral.prolate_radial_table
        calls = []

        def radial(m, l_max, x, **kwargs):
            calls[-1] += len(x) == 1
            return original(m, l_max, x, **kwargs)

        monkeypatch.setattr(spectral, "prolate_radial_table", radial)
        workspace = spectral._Workspace()
        for gap in (0.5, 0.6, 0.7):
            calls.append(0)
            with pytest.raises(SpecFunOverflowError):
                config = _config(needle, gap, Medium.constant(1.0), l_max=150)
                mode_spectrum(config, workspace=workspace)
        assert calls == [3, 1, 1]

    def test_block_above_sector_zero_spares_smaller_rungs(self, monkeypatch):
        # a block that starts above sector 0 gives way to a smaller rung's
        # block from sector 0, so the sweep after it builds one surface
        # block per rung, as from a cold cache
        spheroid = Spheroid.oblate(1.4, 1.0)
        original = spectral.oblate_radial_table
        calls = []

        def radial(m, l_max, x, **kwargs):
            calls.append(len(x) == 1)
            return original(m, l_max, x, **kwargs)

        monkeypatch.setattr(spectral, "oblate_radial_table", radial)
        workspace = spectral._Workspace()
        spectral._surface_block(workspace, spheroid, range(45, 46), 90)
        assert workspace.held[:3] == (spheroid, 90, range(45, 91))
        for gap in (0.5, 0.8):
            for l_max in (5, 10):
                config = _config(spheroid, gap, Medium.constant(3.12), l_max)
                mode_spectrum(config, workspace=workspace)
        assert sum(calls) == 3
        assert workspace.held[:3] == (spheroid, 10, range(11))

    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.sphere(1.0), Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)],
        ids=["sphere", "prolate", "oblate"],
    )
    @pytest.mark.parametrize("m", [-1, 6])
    @pytest.mark.parametrize(
        "substrate", [Medium.constant(1.0), Medium.constant(3.12)], ids=["f_c=0", "f_c<0"]
    )
    def test_sector_outside_truncation_raises(self, spheroid, m, substrate):
        cfg = _config(spheroid, 0.5, substrate, l_max=5)
        with pytest.raises(SpecFunDomainError):
            spectral_block(cfg, m)
        with pytest.raises(SpecFunDomainError):
            isolated_depolarization_table(spheroid, m, cfg.l_max)
        with pytest.raises(SpecFunDomainError):
            coupling_matrix_D(cfg.particle, m, cfg.l_max)

    def test_failing_sector_spares_the_others(self):
        # the needle's surface Q tables overflow from order 141 at
        # l_max = 150: that sector raises, and the sectors below it are
        # still served
        e = 1.0 / (1.0 + 2e-5)
        needle = Spheroid.prolate(1.0, math.sqrt(1.0 - e * e))
        cfg = _config(needle, 0.5, Medium.constant(3.12), l_max=150)
        with pytest.raises(SpecFunOverflowError) as info:
            spectral_block(cfg, 141)
        assert info.value.m == 141
        spectral_block(cfg, 0)
        spectral_block(_config(needle, 0.5, Medium.constant(1.0), l_max=150), 140)
        for m in (138, 139, 140):
            assert np.all(np.isfinite(spectral_block(cfg, m).eigenvalues))

    def test_failing_sector_raises_in_turn(self):
        # near x = 1 the high orders overflow at l_max = 150: a block keeps
        # the sectors below the first failing one, which raises when reached
        x = np.array([1.0 + 2e-5])
        ms, tables = spectral._radial_rows(1.0, range(151), 150, x, "the surface")
        assert ms == range(141)
        assert len(tables[0]) == len(ms)
        with pytest.raises(SpecFunOverflowError) as info:
            spectral._radial_rows(1.0, range(ms.stop, 151), 150, x, "the surface")
        assert info.value.m == 141
        assert str(info.value).endswith(" (radial tables at the surface)")

    @pytest.mark.parametrize("ctor", [Spheroid.prolate, Spheroid.oblate], ids=["prolate", "oblate"])
    @pytest.mark.parametrize(
        "delta, where",
        [(1e-6, "at the mirror points)"), (1e-7, "at the surface xi0 = ")],
        ids=["mirror", "surface"],
    )
    def test_overflow_says_where_the_tables_failed(self, ctor, delta, where):
        # a near-sphere's surface tables build at aspect 1 + 1e-6 while
        # its mirror tables overflow; at 1 + 1e-7 the surface tables do
        cfg = _config(ctor(1.0 + delta, 1.0), 0.5, Medium.constant(3.12), l_max=90)
        with pytest.raises(SpecFunOverflowError) as info:
            zero_point_energy(cfg)
        assert info.value.m == 0
        message = str(info.value)
        assert message.startswith(
            "P_l^m overflow for m=0, l_max=90: reduce l_max or aspect (radial tables "
        )
        assert where in message

    @pytest.mark.parametrize("l_max", [139, 140])
    def test_needle_energy_finite_where_only_dQ_overflows(self, l_max):
        # at l_max 139 and 140 the needle's top sectors have finite P and
        # Q, though dnQ/dxi, which nothing reads, overflows there
        e = 1.0 / (1.0 + 2e-5)
        needle = Spheroid.prolate(1.0, math.sqrt(1.0 - e * e))
        xi = zero_point_energy(_config(needle, 0.5, Medium.constant(3.12), l_max)).xi
        assert xi == pytest.approx(-1.63187799e-05, rel=1e-8)

    @pytest.mark.parametrize("l_max, m", [(1, 0), (1, 1), (12, 0), (12, 5), (40, 17), (40, 40)])
    def test_sphere_coupling_matches_loop(self, l_max, m):
        a, d = 1.0, 1.3
        ls = range(max(1, m), l_max + 1)
        log_ratio = math.log(a / (2.0 * d))
        lf = log_factorials(2 * l_max + 1)
        half = [0.5 * (math.log(l / (2.0 * l + 1.0)) - lf[l + m] - lf[l - m]) for l in ls]
        expected = np.array(
            [
                [
                    math.exp(half[i] + half[j] + lf[l + s] + (l + s + 1) * log_ratio)
                    for j, s in enumerate(ls)
                ]
                for i, l in enumerate(ls)
            ]
        )
        assert np.array_equal(spectral._sphere_coupling(a, d, m, l_max), expected)

    @pytest.mark.parametrize(
        "spheroid", [Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0)], ids=["prolate", "oblate"]
    )
    def test_spheroid_coupling_matches_loop(self, spheroid):
        # D and H of each sector, one sector at a time from its own surface
        # and mirror tables, equal bit for bit those of one block of all 13
        # sectors (the block mode_spectrum reads at l_max = 12) and those
        # of the one-sector builds
        cfg = _config(spheroid, 0.3, Medium.constant(3.12), l_max=12)
        assert spectral._block_orders(0, 13, 12) == range(13)
        workspace = spectral._Workspace()
        ms, surface = spectral._surface_block(workspace, spheroid, range(13), cfg.l_max)
        ms, D_block = spectral._spheroid_coupling(workspace, cfg.particle, ms, cfg.l_max, surface)
        assert ms == range(13)
        _, o, _, _ = spectral._layout(ms, cfg.l_max)
        H_block = [H.tobytes() for _, _, H in spectral._sectors(workspace, cfg, 0, 13)]
        for m in range(cfg.l_max + 1):
            l_min = max(1, m)
            ms, tables = spectral._surface_block(workspace, spheroid, range(m, m + 1), cfg.l_max)
            assert ms == range(m, m + 1)
            n_iso, w, nP0 = (t[0] for t in tables)  # l = max(1, m)..l_max
            assert len(n_iso) == len(w) == len(nP0) == cfg.l_max + 1 - l_min
            sector = range(m, m + 1)
            _, psi, weighted = spectral._mirror_tables(workspace, cfg.particle, cfg.l_max, sector)
            K = (weighted[0] @ psi[0].T) / nP0[:, None]
            w_amp = np.abs(w)
            D = (-1.0 if m % 2 else 1.0) * (w_amp[:, None] * K * w_amp[None, :])
            D = 0.5 * (D + D.T)
            H = np.diag(n_iso) + cfg.f_c * D
            assert D_block[o[m] : o[m + 1]].tobytes() == D.tobytes()
            assert H_block[m] == H.tobytes()
            assert coupling_matrix_D(cfg.particle, m, cfg.l_max).tobytes() == D.tobytes()
            assert spectral_block(cfg, m).H.tobytes() == H.tobytes()

    @pytest.mark.parametrize("ctor", [Spheroid.prolate, Spheroid.oblate], ids=["prolate", "oblate"])
    def test_non_finite_coupling_raises_package_error(self, ctor):
        # x0 ~ 7000: the weights overflow and D is not finite
        cfg = _config(ctor(1.00000001, 1.0), 0.5, Medium.constant(3.12), l_max=40)
        with pytest.raises(CasimirSpectralError):
            zero_point_energy(cfg)

    def test_non_square_fails_shape_check(self):
        with pytest.raises(ContractViolationError, match="square"):
            spectral.eigendecompose(np.zeros((2, 3)))

    def test_nan_fails_symmetry_check(self):
        H = np.eye(3)
        H[0, 1] = np.nan
        with pytest.raises(ContractViolationError):
            spectral.eigendecompose(H)

    def test_inf_fails_finiteness_check(self):
        # one inf entry: |H - H^T| is inf, which the inf scale would allow
        H = np.eye(3)
        H[0, 1] = np.inf
        with pytest.raises(ContractViolationError):
            spectral.eigendecompose(H)

    def test_eigendecompose_matches_eigh(self):
        rng = np.random.default_rng(11)
        for n in range(1, 92):
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            vals, vecs = spectral.eigendecompose(H)
            ref_vals, ref_vecs = scipy.linalg.eigh(H)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(vecs, ref_vecs)

    def test_driver_failure_raises_package_error(self, monkeypatch):
        def failing(a, **kwargs):
            n = len(a)
            return np.zeros(n), np.zeros((n, n)), n, np.zeros(2 * n, dtype=np.int32), 1

        monkeypatch.setattr(spectral, "dsyevr", failing)
        with pytest.raises(ContractViolationError):
            spectral.eigendecompose(np.eye(3))


    def test_mode_outside_unit_interval_names_its_sector(self, monkeypatch):
        cfg = _config(Spheroid.sphere(1.0), 1.0, Medium.perfect_conductor(), l_max=4)
        original = spectral._sphere_coupling

        def scaled(a, d, m, l_max):
            return original(a, d, m, l_max) * (1e3 if m == 2 else 1.0)

        monkeypatch.setattr(spectral, "_sphere_coupling", scaled)
        with pytest.raises(UnphysicalModeError, match=r"sector m=2\b"):
            mode_spectrum(cfg)


class TestCacheWarmth:
    @pytest.mark.parametrize(
        "spheroid",
        [Spheroid.prolate(2.0, 1.0), Spheroid.oblate(1.4, 1.0), Spheroid.sphere(1.0)],
        ids=["prolate", "oblate", "sphere"],
    )
    def test_sweep_points_do_not_depend_on_cache_state(self, spheroid):
        # the tables a point reuses from earlier points are those it would
        # build itself: warm and cold give the same digits
        configs = [
            SystemConfig(PlacedParticle(spheroid, gap=z * spheroid.r_minor), Medium.constant(3.12))
            for z in (0.3, 0.5, 0.8, 1.2, 2.0, 4.0)
        ]

        warm = [repr(row) for row in energy_sweep(configs, l_cap=40)]
        cold = []
        for config in configs:
            spectral._quad_nodes.cache_clear()
            cold.append(repr(energy_sweep([config], l_cap=40)[0]))
        assert all(row.endswith("error=None)") for row in cold)
        assert warm == cold
