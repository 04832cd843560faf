import hashlib
import math
import pathlib
import subprocess
import sys
import warnings

import pytest

from casimir_spectral import cli
from casimir_spectral.cli import RunConfig, main, parse_config, run
from casimir_spectral.errors import ConfigParseError

ROOT = pathlib.Path(__file__).resolve().parents[1]

SPHERE_CFG = """
# sphere above a perfect conductor
geometry.r_major = 1.0
geometry.r_minor = 1.0
substrate.perfect_conductor = true
sweep.z_over_rmin = 1.0:4.0:4
truncation.l_max = 40
"""

# Every point of every scenario converges on this grid.  SCENARIO_DIGESTS
# pins each CSV byte for byte, keyed by the file name it is written to
# (fig1 writes one file per substrate); each digest was recorded before the
# code writing that CSV was last rewritten.
DIGEST_CFG = """
geometry.r_major = 1.4
geometry.r_minor = 1.0
geometry.family = oblate
substrate.epsilon = 3.12
sweep.z_over_rmin = 0.5:2:3
sweep.aspect_ratio = 0.5:2:3
truncation.l_max = 40
"""
SCENARIO_DIGESTS = {
    "modes": "e57b44f4f23bc3c8b0f7e71e4c207a3fc35522c8f42e5f637c0a670a3bb9be17",
    "energy_sweep": "7b3a8e16676fcd74c3f824c905a0a4dc9235e0ed9e917129930efcf934235234",
    "convergence": "f31c484f28b0591f9c7cab5d9453d6566bb1fad33d8311c5cb448cca99885172",
    "pfa_compare": "75b90455dd03546900d4156ddd05b9a70b8fff387b59db185c593a541f9ff2ec",
    "fig2": "ec6033509f6b4e38fa8b2e4de4b2620766c2b24fabb1d38434c6044a7c3292b9",
    "fig3": "406cff5c4557b0585a25cb56677855c18766da1a9d42612b878c29b75257fdac",
    "fig4": "57d2f6e76bb0237664e1d1bf9e398c668a9f0826ab6069c34b9cea726c0fdd60",
    "fig1_eps_inf": "b53a84abb796049f746d7292bd8443706f99f61a021f07facf9db52c99e57373",
    "fig1_eps_7p8": "74934abe1d9c7acba74f488a0f21ddcbd1e3c4194ea13f3f54608ea6029b9e89",
    "fig1_eps_3p12": "823ea18664a96b83d025182002677efb2d421c32962aed39e0f545138c2363aa",
    "fig1_eps_1p6": "1e6239b940747ff83bca21083fcfa9cdf354d23d2e0a1ebeeec2b2fbe7c87f5e",
}

# Within l_max = 20 the two smallest gaps of pfa_compare and of fig1 (over
# every substrate) and the oblate 1.8 of fig3 do not converge, so these
# CSVs pin failed rows next to converged ones; fig1's four files pin one
# sweep whose substrates share each gap's coupling D.
FAILING_CFG = """
geometry.r_major = 2.0
geometry.r_minor = 1.0
geometry.family = prolate
substrate.perfect_conductor = true
sweep.z_over_rmin = 0.02:1.5:4
sweep.aspect_ratio = 0.6:1.8:2
truncation.l_max = 20
"""
FAILING_DIGESTS = {
    "pfa_compare": "d996e4025032665beb145d6a7e23d58ea42b7aefe25f2d37ac85076716dce4a0",
    "fig3": "7032406240fe8f5d372cd3d61492cdaccd6d048e5ce7cd81d1f7e293ba7d2dfb",
    "fig1_eps_inf": "16afcdefdb8be912e916eed894d770a16b0b7732ecf1fdc656707aa13e40ac87",
    "fig1_eps_7p8": "5d0a46b7605511f9fe0598da394168b9afaceb3495c448ca56666cd5a7e2863f",
    "fig1_eps_3p12": "93bffebccf388ac70fefc491b6cf402b56cccf254a4fc28f4ebd4ec4634af518",
    "fig1_eps_1p6": "aecaa31ff3914cbaa97b46940159c3489a17d2be20bf0f78b04162f6ead0a544",
}


# a prolate 2/1 over epsilon 2; each case of test_rejected overrides keys of it
REJECT_BASE = {
    "geometry.r_major": "2",
    "geometry.r_minor": "1",
    "geometry.family": "prolate",
    "substrate.epsilon": "2",
    "truncation.l_max": "10",
}
REJECTED = {
    "r_major_inf": ("modes", {"geometry.r_major": "inf"}),
    "grid_end_inf": ("energy_sweep", {"sweep.z_over_rmin": "0.5:inf:3"}),
    "substrate_epsilon_inf": ("energy_sweep", {"substrate.epsilon": "inf"}),
    "ambient_epsilon_inf": ("energy_sweep", {"ambient.epsilon": "inf"}),
    "prolate_r_major_below_r_minor": (
        "modes",
        {"geometry.r_major": "1", "geometry.r_minor": "2"},
    ),
    "sphere_unequal_axes": ("modes", {"geometry.family": "sphere"}),
    "oblate_equal_axes": (
        "modes",
        {"geometry.family": "oblate", "geometry.r_major": "1"},
    ),
    "unknown_family": ("modes", {"geometry.family": "cube"}),
    "substrate_epsilon_negative": ("modes", {"substrate.epsilon": "-2"}),
    "ambient_epsilon_zero": ("modes", {"ambient.epsilon": "0"}),
    "ladder_cap_below_two_rungs": ("energy_sweep", {"truncation.l_max": "9"}),
    "perfect_conductor_not_boolean": ("modes", {"substrate.perfect_conductor": "maybe"}),
    "grid_two_fields": ("energy_sweep", {"sweep.z_over_rmin": "0.5:2"}),
    "grid_stop_below_start": ("energy_sweep", {"sweep.z_over_rmin": "2:0.5:3"}),
    "grid_degenerate": ("energy_sweep", {"sweep.z_over_rmin": "1:1:3"}),
    "tolerance_zero": ("energy_sweep", {"truncation.tolerance": "0"}),
    # the scenario is the positional argument and the path is --output only
    "unknown_key_scenario": ("modes", {"scenario": "modes"}),
    "unknown_key_output": ("energy_sweep", {"output": "x.csv"}),
}

# parse_config errors that main cannot reach (it passes a known scenario)
# or that need a document no key-value table writes
PARSE_ERRORS = {
    "line_without_equals": ("geometry.r_major 2.0", "modes", "expected 'key = value' on line 1"),
    "duplicate_key": (
        "ambient.epsilon = 1\n# again\nambient.epsilon = 2",
        "modes",
        "duplicate key 'ambient.epsilon' on line 3",
    ),
    "unknown_scenario": ("substrate.epsilon = 2", "fig9", "unknown scenario 'fig9'"),
}


def _scenario_of(csv_name):
    return csv_name.partition("_eps_")[0]


def _run_digests(tmp_path, config_text, scenario, strict):
    """Run scenario into tmp_path; exit code and {file stem: sha256}."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    out_path = tmp_path / f"{scenario}.csv"
    args = [scenario, "--config", str(cfg_path), "--output", str(out_path)]
    code = main(args + ["--strict"] * strict)
    digests = {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    return code, digests


def _read_rows(path):
    preamble, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            preamble.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return preamble, header, rows


class TestParseConfig:
    def test_minimal_sphere(self):
        cfg = parse_config(SPHERE_CFG, scenario="energy_sweep")
        assert cfg.scenario == "energy_sweep"
        assert cfg.parameters["geometry.family"] == "sphere"
        assert cfg.parameters["truncation.tolerance"] == 1e-3
        assert cfg.parameters["sweep.z_over_rmin"] == (1.0, 4.0, 4)

    def test_unknown_key(self):
        with pytest.raises(ConfigParseError) as info:
            parse_config("geometry.radius = 1.0", scenario="modes")
        assert info.value.key == "geometry.radius"
        assert info.value.line == 1

    def test_negative_length(self):
        with pytest.raises(ConfigParseError, match="semi-axes must be positive"):
            parse_config(
                "geometry.r_minor = -1\nsubstrate.epsilon = 2.0",
                scenario="modes",
            )

    def test_family_required_for_spheroid(self):
        text = "geometry.r_major = 2.0\ngeometry.r_minor = 1.0\nsubstrate.epsilon = 2.0"
        with pytest.raises(ConfigParseError):
            parse_config(text, scenario="modes")
        cfg = parse_config(text + "\ngeometry.family = prolate", scenario="modes")
        assert cfg.parameters["geometry.family"] == "prolate"
        # axes that no family accepts are reported as such
        swapped = "geometry.r_major = 1.0\ngeometry.r_minor = 2.0\nsubstrate.epsilon = 2.0"
        with pytest.raises(ConfigParseError, match="r_major must be >= r_minor"):
            parse_config(swapped, scenario="modes")

    def test_exclusive_substrate_keys(self):
        with pytest.raises(ConfigParseError):
            parse_config(
                "substrate.epsilon = 2.0\nsubstrate.perfect_conductor = true",
                scenario="modes",
            )

    def test_scenario_mismatch(self):
        # the positional argument alone names the scenario
        with pytest.raises(ConfigParseError, match="unknown key 'scenario'"):
            parse_config("scenario = modes", scenario="fig1")

    @pytest.mark.parametrize(
        "scenario", ["modes", "energy_sweep", "pfa_compare", "convergence"]
    )
    def test_substrate_required(self, scenario):
        # every scenario built from the configured geometry needs a substrate
        expected = (
            f"scenario {scenario!r} requires substrate.epsilon or "
            "substrate.perfect_conductor = true"
        )
        for text in ("geometry.r_major = 1.0", "substrate.perfect_conductor = false"):
            with pytest.raises(ConfigParseError) as info:
                parse_config(text, scenario=scenario)
            assert str(info.value) == expected

    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_parse_error(self, case):
        text, scenario, message = PARSE_ERRORS[case]
        with pytest.raises(ConfigParseError) as info:
            parse_config(text, scenario=scenario)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected(self, tmp_path, capsys, case):
        scenario, overrides = REJECTED[case]
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in {**REJECT_BASE, **overrides}.items())
        )
        out_path = tmp_path / "out.csv"
        args = [scenario, "--config", str(cfg_path), "--output", str(out_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        unknown = line.startswith("config error: unknown key")
        assert unknown == case.startswith("unknown_key")
        assert not out_path.exists()


class TestScenarios:
    def test_energy_sweep_csv(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(SPHERE_CFG)
        code = main(
            ["energy_sweep", "--config", str(cfg_path), "--output", str(out_path)]
        )
        assert code == 0
        preamble, header, rows = _read_rows(out_path)
        assert header == ["z_over_rmin", "xi", "beta_local", "l_max_used", "converged"]
        assert any("f_c = -1" in line for line in preamble)
        assert any("eigenvalues are depolarization factors" in line for line in preamble)
        assert len(rows) == 4
        assert all(row["converged"] == "true" for row in rows)
        xi = [float(row["xi"]) for row in rows]
        assert all(v < 0 for v in xi)

    def test_config_echo_contains_fc_for_sapphire(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "substrate.epsilon = 3.12\nsweep.z_over_rmin = 2.0:2.0:1\n"
        )
        assert main(
            ["energy_sweep", "--config", str(cfg_path), "--output", str(out_path)]
        ) == 0
        preamble, _, _ = _read_rows(out_path)
        (fc_line,) = [line for line in preamble if line.startswith("# f_c")]
        assert float(fc_line.split("=")[1]) == pytest.approx(-0.514563, abs=1e-6)

    def test_pfa_compare_near_unit_substrate(self, tmp_path):
        # epsilon 1.000002 gives f_c = -1e-6, where the PFA mode integral
        # must come without an IntegrationWarning
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "substrate.epsilon = 1.000002\nsweep.z_over_rmin = 1.0:2.0:2\n"
        )
        args = ["pfa_compare", "--config", str(cfg_path), "--output", str(out_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args + ["--strict"]) == 0
        _, _, rows = _read_rows(out_path)
        assert len(rows) == 2
        assert all(float(row["pfa_ratio"]) > 0.0 for row in rows)

    def test_modes_scenario(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "modes.csv"
        cfg_path.write_text(
            "substrate.perfect_conductor = true\n"
            "sweep.z_over_rmin = 1.0:1.0:1\n"
            "truncation.l_max = 6\n"
        )
        assert main(["modes", "--config", str(cfg_path), "--output", str(out_path)]) == 0
        _, header, rows = _read_rows(out_path)
        assert header[:3] == ["m", "mode_index", "n"]
        ns = [float(r["n"]) for r in rows]
        assert all(0.0 < n < 1.0 for n in ns)
        for r in rows:
            assert float(r["omega_over_omega_p"]) == pytest.approx(
                math.sqrt(float(r["n"]))
            )

    def test_determinism(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SPHERE_CFG)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["energy_sweep", "--config", str(cfg_path), "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_strict_nonconvergence_exit(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "substrate.perfect_conductor = true\n"
            "sweep.z_over_rmin = 0.01:0.01:1\n"
            "truncation.l_max = 10\n"
        )
        args = ["energy_sweep", "--config", str(cfg_path), "--output", str(out_path)]
        assert main(args) == 0  # non-strict records the failure row
        _, _, (row,) = _read_rows(out_path)
        assert float(row["z_over_rmin"]) == 0.01
        assert row["converged"] == "false"
        assert row["xi"] == row["beta_local"] == row["l_max_used"] == ""
        assert main(args + ["--strict"]) == 2

    def test_parse_error_exit(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("bogus.key = 1\n")
        assert main(["modes", "--config", str(cfg_path)]) == 1

    def test_non_utf8_config_is_parse_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"\xff\xfes\x00u\x00b\x00")  # UTF-16 with a BOM
        assert main(["modes", "--config", str(cfg_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_output_in_missing_directory_is_io_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SPHERE_CFG)
        out_path = tmp_path / "missing" / "modes.csv"
        args = ["modes", "--config", str(cfg_path), "--output", str(out_path)]
        assert main(args) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("i/o error: ")
        assert not out_path.parent.exists()

    def test_usage_error_exit(self):
        with pytest.raises(SystemExit) as info:
            main(["not_a_scenario", "--config", "x"])
        assert info.value.code == 1

    def test_fig1_emits_four_ordered_files(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("sweep.z_over_rmin = 0.5:2.0:3\n")
        out_path = tmp_path / "fig1.csv"
        assert main(["fig1", "--config", str(cfg_path), "--output", str(out_path)]) == 0
        xi_by_eps = {}
        for tag in ("inf", "7p8", "3p12", "1p6"):
            _, _, rows = _read_rows(tmp_path / f"fig1_eps_{tag}.csv")
            xi_by_eps[tag] = [abs(float(r["xi"])) for r in rows]
        for a, b in zip(("inf", "7p8", "3p12"), ("7p8", "3p12", "1p6")):
            assert all(x > y for x, y in zip(xi_by_eps[a], xi_by_eps[b]))

    @pytest.mark.parametrize(
        "scenario", sorted({_scenario_of(name) for name in SCENARIO_DIGESTS})
    )
    def test_scenario_csv_digest(self, tmp_path, scenario):
        code, digests = _run_digests(tmp_path, DIGEST_CFG, scenario, strict=True)
        assert code == 0
        expected = {
            name: digest
            for name, digest in SCENARIO_DIGESTS.items()
            if _scenario_of(name) == scenario
        }
        assert digests == expected

    @pytest.mark.parametrize(
        "scenario", sorted({_scenario_of(name) for name in FAILING_DIGESTS})
    )
    def test_failed_rows_csv_digest(self, tmp_path, scenario):
        code, digests = _run_digests(tmp_path, FAILING_CFG, scenario, strict=True)
        assert code == 2
        assert digests == {
            name: digest
            for name, digest in FAILING_DIGESTS.items()
            if _scenario_of(name) == scenario
        }
        for name in digests:
            _, _, rows = _read_rows(tmp_path / f"{name}.csv")
            assert {row["converged"] for row in rows} == {"true", "false"}

    def test_figures_honour_ambient_epsilon(self, tmp_path):
        # fig2's aspect-2 family is the prolate 2/1 over epsilon 3.12
        grid = (
            "ambient.epsilon = 1.7\nsweep.z_over_rmin = 0.5:2:3\n"
            "truncation.l_max = 40\n"
        )
        geometry = (
            "geometry.r_major = 2.0\ngeometry.r_minor = 1.0\n"
            "geometry.family = prolate\nsubstrate.epsilon = 3.12\n"
        )
        columns = []
        for scenario, text in (("fig2", grid), ("energy_sweep", grid + geometry)):
            cfg_path = tmp_path / f"{scenario}.cfg"
            out_path = tmp_path / f"{scenario}.csv"
            cfg_path.write_text(text)
            args = [scenario, "--config", str(cfg_path), "--output", str(out_path)]
            assert main(args + ["--strict"]) == 0
            _, _, rows = _read_rows(out_path)
            columns.append([r["xi"] for r in rows if r.get("aspect_ratio", "2") == "2"])
        fig2_xi, sweep_xi = columns
        assert len(fig2_xi) == 3
        assert fig2_xi == sweep_xi

    def test_reproduce_figures_script(self, tmp_path, src_env):
        script = ROOT / "scripts" / "reproduce_figures.py"
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            env=src_env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        fig1 = [f"fig1_eps_{tag}.csv" for tag in ("inf", "7p8", "3p12", "1p6")]
        expected = fig1 + ["fig2.csv", "fig3.csv", "fig4.csv"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
        for name in expected:
            _, _, rows = _read_rows(tmp_path / name)
            assert rows
            assert all(row["converged"] == "true" for row in rows)

    def test_verify_scenario(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(RunConfig(scenario="verify")) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out
        assert list(tmp_path.iterdir()) == []  # no output path, no file

    def test_verify_writes_given_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["verify", "--config", "/dev/null", "--output", "output.csv"]
        assert main(args) == 0
        assert (tmp_path / "output.csv").read_text() == capsys.readouterr().out

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # a nearly spherical prolate overflows the radial tables at l = 90
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "geometry.r_major = 1.000000005\ngeometry.r_minor = 1\n"
            "geometry.family = prolate\nsubstrate.epsilon = 3.12\n"
            "truncation.l_max = 90\n"
        )
        out_path = tmp_path / "modes.csv"
        args = ["modes", "--config", str(cfg_path), "--output", str(out_path)]
        assert main(args) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical error: SpecFunOverflowError")

    def test_programming_error_raises(self, tmp_path, monkeypatch):
        def broken(config):
            raise TypeError("not a package error")

        monkeypatch.setattr(cli, "mode_spectrum", broken)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SPHERE_CFG)
        out_path = tmp_path / "modes.csv"
        with pytest.raises(TypeError):
            main(["modes", "--config", str(cfg_path), "--output", str(out_path)])
