import subprocess
import sys
import textwrap


def _run(src_env, tmp_path, code):
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=src_env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_energy_path_imports_no_integrator(src_env, tmp_path):
    # the PFA layer, and with it scipy.integrate, loads on first use only
    _run(
        src_env,
        tmp_path,
        """
        import sys
        import casimir_spectral as cs
        from casimir_spectral import (
            Family, Medium, PlacedParticle, Spheroid, SystemConfig,
            zero_point_energy,
        )

        config = SystemConfig(
            PlacedParticle(Spheroid(2.0, 1.0, Family.PROLATE), 0.5),
            Medium.perfect_conductor(),
            l_max=5,
        )
        assert zero_point_energy(config).xi < 0.0
        loaded = {"scipy.integrate", "scipy.optimize", "scipy.sparse"} & set(sys.modules)
        assert not loaded, loaded
        assert "casimir_spectral.pfa" not in sys.modules
        assert cs.mode_integral is cs.pfa.mode_integral
        assert "scipy.integrate" in sys.modules
        """,
    )


def test_star_import_binds_every_public_name(src_env, tmp_path):
    _run(
        src_env,
        tmp_path,
        """
        import casimir_spectral
        from casimir_spectral import *

        missing = [n for n in casimir_spectral.__all__ if n not in globals()]
        assert not missing, missing
        assert plate_energy_per_area(-1.0, 1.0) < 0.0
        """,
    )


def test_unknown_name_raises_attribute_error(src_env, tmp_path):
    _run(
        src_env,
        tmp_path,
        """
        import casimir_spectral

        try:
            casimir_spectral.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(casimir_spectral, "no_such_name")
        """,
    )
