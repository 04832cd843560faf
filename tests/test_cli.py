import hashlib
import math

import pytest

from casimir_spectral.cli import RunConfig, main, parse_config, run
from casimir_spectral.errors import ConfigParseError

SPHERE_CFG = """
# sphere above a perfect conductor
geometry.r_major = 1.0
geometry.r_minor = 1.0
substrate.perfect_conductor = true
sweep.z_over_rmin = 1.0:4.0:4
truncation.l_max = 40
"""

# Every point of every scenario converges on this grid.  SCENARIO_DIGESTS
# pins each CSV byte for byte; the digests were recorded before the
# scenarios moved onto the shared energy_sweep path.
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
    "exponent": "09c592fc98ee46bd4fdfd1ca7869da1593e5902e91db7c624a70cb417b885ed7",
    "convergence": "f31c484f28b0591f9c7cab5d9453d6566bb1fad33d8311c5cb448cca99885172",
    "pfa_compare": "75b90455dd03546900d4156ddd05b9a70b8fff387b59db185c593a541f9ff2ec",
    "fig2": "ec6033509f6b4e38fa8b2e4de4b2620766c2b24fabb1d38434c6044a7c3292b9",
    "fig3": "406cff5c4557b0585a25cb56677855c18766da1a9d42612b878c29b75257fdac",
    "fig4": "57d2f6e76bb0237664e1d1bf9e398c668a9f0826ab6069c34b9cea726c0fdd60",
}


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
        with pytest.raises(ConfigParseError):
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

    def test_exclusive_substrate_keys(self):
        with pytest.raises(ConfigParseError):
            parse_config(
                "substrate.epsilon = 2.0\nsubstrate.perfect_conductor = true",
                scenario="modes",
            )

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigParseError):
            parse_config("scenario = modes", scenario="fig1")

    def test_substrate_required(self):
        with pytest.raises(ConfigParseError):
            parse_config("geometry.r_major = 1.0", scenario="energy_sweep")


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

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 3

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

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DIGESTS))
    def test_scenario_csv_digest(self, tmp_path, scenario):
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / f"{scenario}.csv"
        cfg_path.write_text(DIGEST_CFG)
        args = [scenario, "--config", str(cfg_path), "--output", str(out_path)]
        assert main(args + ["--strict"]) == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == SCENARIO_DIGESTS[scenario]

    def test_verify_scenario(self, capsys):
        cfg = RunConfig(scenario="verify", parameters={}, output_path="output.csv")
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out
