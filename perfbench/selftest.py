"""Self-tests of the benchmark's own logic; they run no workload.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose (the file name does not
match test_*.py), so they never add to its runtime.
"""

from __future__ import annotations

import json
import pathlib
import sys
import types
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_nested_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def leaf():
            clock.advance(2.0)

        def middle():
            clock.advance(1.0)
            tracer.call("leaf", leaf)
            tracer.call("leaf", leaf)
            clock.advance(0.5)

        def outer():
            clock.advance(3.0)
            tracer.call("middle", middle)

        tracer.call("outer", outer)
        self.assertEqual(tracer.self_s["leaf"], 4.0)
        self.assertEqual(tracer.self_s["middle"], 1.5)
        self.assertEqual(tracer.self_s["outer"], 3.0)
        self.assertEqual(tracer.total_self_s(), clock.now)

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def failing():
            clock.advance(1.0)
            raise ValueError("boom")

        def outer():
            with self.assertRaises(ValueError):
                tracer.call("inner", failing)
            clock.advance(1.0)

        tracer.call("outer", outer)
        self.assertEqual(tracer.self_s["inner"], 1.0)
        self.assertEqual(tracer.self_s["outer"], 1.0)
        self.assertFalse(tracer.inside("outer"))

    def test_missing_name_fails_loudly(self):
        module = types.ModuleType("casimir_spectral.spectral")
        with self.assertRaises(tracing.TraceError) as info:
            tracing.patch(module, "leggauss", lambda original: original)
        self.assertIn("casimir_spectral.spectral.leggauss", str(info.exception))

    def test_core_map_fails_on_a_renamed_function(self):
        spectral = types.ModuleType("casimir_spectral.spectral")
        energy = types.ModuleType("casimir_spectral.energy")
        errors = types.SimpleNamespace(CasimirSpectralError=Exception)
        for name in ("leggauss", "prolate_radial_table"):
            setattr(spectral, name, lambda *a: None)
        with self.assertRaises(tracing.TraceError) as info:
            tracing.install_core(tracing.Tracer(), spectral, energy, errors)
        self.assertIn("oblate_radial_table", str(info.exception))

    def test_core_map_counts_layer_work(self):
        class PackageError(Exception):
            pass

        spectral = types.ModuleType("casimir_spectral.spectral")
        energy = types.ModuleType("casimir_spectral.energy")
        errors = types.SimpleNamespace(CasimirSpectralError=PackageError)
        table = lambda m, l_max, x: ([[0.0] * len(x)] * (l_max + 1),) * 4  # noqa: E731
        spectral.leggauss = lambda deg: ([0.0] * deg, [0.0] * deg)
        spectral.prolate_radial_table = spectral.oblate_radial_table = table
        spectral.normalized_ferrers_table = lambda m, l_max, eta: None
        spectral.isolated_depolarization_table = lambda spheroid, m, l_max: None
        spectral.coupling_matrix_D = lambda p, m, l_max: types.SimpleNamespace(size=l_max**2)
        spectral._sphere_coupling = spectral._spheroid_coupling = lambda *a: None
        spectral.eigendecompose = lambda H: ([0.0] * H, None, None)
        spectral.spectral_block = lambda config, m: None
        energy.mode_spectrum = lambda config: None

        def zero_point_energy(config):
            spectral.isolated_depolarization_table("s", 0, config)
            spectral.isolated_depolarization_table("s", 0, config)
            spectral.oblate_radial_table(0, config, [1.0, 2.0])
            spectral.coupling_matrix_D(None, 0, config)
            spectral.eigendecompose(config)

        def convergence_ladder(config):
            for l_max in (5, 10):
                energy.zero_point_energy(l_max)
            if config == "fails":
                raise PackageError("cap reached")

        energy.zero_point_energy = zero_point_energy
        energy.convergence_ladder = convergence_ladder
        tracer = tracing.Tracer(FakeClock())
        tracing.install_core(tracer, spectral, energy, errors)

        tracer.begin_point()
        energy.convergence_ladder("converges")
        tracer.begin_point()
        with self.assertRaises(PackageError):
            energy.convergence_ladder("fails")
        tracer.begin_point()
        energy.zero_point_energy(5)
        metrics = tracing.layer_metrics(tracer)
        self.assertEqual(metrics["energy.ladder.points"], 2)
        self.assertEqual(metrics["energy.ladder.failed"], 1)
        self.assertEqual(metrics["energy.ladder.rungs"], 4)
        self.assertEqual(metrics["energy.zero_point_energy.calls"], 5)
        self.assertEqual(metrics["specfun.radial_tables.cells"], 2 * (3 * 6 + 2 * 11))
        self.assertEqual(metrics["spectral.coupling_D.entries"], 3 * 25 + 2 * 100)
        self.assertEqual(metrics["spectral.eigensolve.dim3_sum"], 3 * 125 + 2 * 1000)
        self.assertEqual(metrics["spectral.n_iso.repeat_ratio"], 0.5)
        self.assertEqual(tracer.total_self_s(), 0.0)


def _point(key, status="ok", xi=-0.5, seconds=1.0, error=None, label=None):
    point = {"key": key, "label": label or f"label {key}", "status": status, "seconds": seconds}
    if status == "ok":
        point["xi"] = xi
    else:
        point["error"] = error
    return point


class OutcomeTest(unittest.TestCase):
    def test_failed_fraction_counts_failed_points_over_attempted(self):
        passes = [
            {"points": [_point("a"), _point("b", "failed", seconds=4.0, error="ConvergenceError")]},
            {"points": [_point("a"), _point("b", "failed", seconds=6.0, error="ConvergenceError")]},
            {"points": [_point("a"), _point("b")]},
        ]
        info = run.info_metrics(passes)
        self.assertEqual(info["failed_fraction"], 2 / 6)
        self.assertEqual(info["failed_point_s"], 4.0)
        self.assertEqual(info["point_s_max"], 4.0)  # medians a = 1, b = 4

    def test_no_failures(self):
        info = run.info_metrics([{"points": [_point("a"), _point("b")]}])
        self.assertEqual(info["failed_fraction"], 0.0)
        self.assertEqual(info["failed_point_s"], 0.0)

    def test_medians_over_passes_and_points(self):
        passes = [
            {"wall_s": 3.0, "peak_rss_mib": 80.0, "points": [_point("a", seconds=1.0), _point("b", seconds=2.0)]},
            {"wall_s": 5.0, "peak_rss_mib": 90.0, "points": [_point("a", seconds=3.0), _point("b", seconds=4.0)]},
            {"wall_s": 4.0, "peak_rss_mib": 85.0, "points": [_point("a", seconds=2.0), _point("b", seconds=9.0)]},
        ]
        metrics = run.end_to_end_metrics(passes, [0.5, 0.7, 0.6])
        self.assertEqual(metrics, {"setup_s": 0.6, "wall_s": 4.0, "peak_rss_mib": 85.0})
        info = run.info_metrics(passes)
        self.assertEqual(info["point_s_p50"], 3.0)  # medians a = 2, b = 4
        self.assertEqual(info["point_s_max"], 4.0)


class GateTest(unittest.TestCase):
    REFERENCE = {
        "points": {
            "sphere": {"label": "label sphere", "status": "ok", "xi": -0.8278637493866189},
            "oblate": {"label": "label oblate", "status": "failed", "error": "ConvergenceError"},
        },
        "csv_sha256": {"fig.csv": "ab" * 32},
    }

    def result(self, **changes):
        points = {
            "sphere": _point("sphere", xi=-0.8278637493866189),
            "oblate": _point("oblate", "failed", error="ConvergenceError"),
        }
        points.update(changes.pop("points", {}))
        result = {"points": list(points.values()), "csv_sha256": {"fig.csv": "ab" * 32}}
        result.update(changes)
        return result

    def test_matching_pass_is_correct(self):
        problems, mismatched, err = run.check_pass(self.REFERENCE, self.result())
        self.assertEqual((problems, mismatched, err), ([], 0, 0.0))

    def test_xi_within_tolerance_passes_and_reports_the_error(self):
        xi = -0.8278637493866189 * (1 + 5e-13)
        problems, _, err = run.check_pass(
            self.REFERENCE, self.result(points={"sphere": _point("sphere", xi=xi)})
        )
        self.assertEqual(problems, [])
        self.assertGreater(err, 4e-13)

    def test_xi_beyond_tolerance_fails(self):
        xi = -0.8278637493866189 * (1 + 3e-12)
        problems, mismatched, _ = run.check_pass(
            self.REFERENCE, self.result(points={"sphere": _point("sphere", xi=xi)})
        )
        self.assertEqual(mismatched, 1)
        self.assertIn("sphere", problems[0])

    def test_status_change_fails_both_ways(self):
        for changed in (
            {"oblate": _point("oblate", xi=-0.7)},
            {"sphere": _point("sphere", "failed", error="ConvergenceError")},
            {"oblate": _point("oblate", "failed", error="UnphysicalModeError")},
        ):
            _, mismatched, _ = run.check_pass(self.REFERENCE, self.result(points=changed))
            self.assertEqual(mismatched, 1, changed)

    def test_changed_config_fails(self):
        changed = {"sphere": _point("sphere", xi=-0.8278637493866189, label="other")}
        _, mismatched, _ = run.check_pass(self.REFERENCE, self.result(points=changed))
        self.assertEqual(mismatched, 1)

    def test_missing_and_extra_points_fail(self):
        result = self.result()
        result["points"] = [result["points"][0], _point("extra")]
        problems, mismatched, _ = run.check_pass(self.REFERENCE, result)
        self.assertEqual(mismatched, 2)
        self.assertEqual(len(problems), 2)

    def test_csv_digest_mismatch_fails(self):
        problems, mismatched, _ = run.check_pass(
            self.REFERENCE, self.result(csv_sha256={"fig.csv": "cd" * 32})
        )
        self.assertEqual(mismatched, 0)
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], ["figures", "near_contact"])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_reference_covers_every_point(self):
        reference = run.load_reference()
        self.assertEqual(
            sorted(reference["near_contact"]["points"]), sorted(run.POINT_KEYS["near_contact"])
        )
        self.assertEqual(
            sorted(reference["fixed_l90"]["points"]), sorted(run.POINT_KEYS["fixed_l90"])
        )
        self.assertEqual(len(reference["figures"]["points"]), 176)


if __name__ == "__main__":
    unittest.main()
