"""One benchmark pass in a fresh process.

Started by perfbench/run.py for every pass and every set-up sample:

    python3 perfbench/worker.py <workload> --order KEY,KEY,... --trace 0|1 \
        --workdir DIR [--setup-only]

The worker imports casimir_spectral from the checkout's src/, builds the
workload's inputs, prints "ready", evaluates every point once in the given
order and prints one JSON line with the outcome and time of each point.
Only CasimirSpectralError counts as a failed point; any other exception
ends the worker with a traceback and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

L_CAP = 90
FIXED_L_MAX = 90

# (family, r_major, r_minor, z / r_min, substrate epsilon; None = perfect conductor)
NEAR_CONTACT = {
    "sphere_z0.05": ("sphere", 1.0, 1.0, 0.05, None),
    "prolate2_z0.05": ("prolate", 2.0, 1.0, 0.05, None),
    "oblate1.4_z0.1": ("oblate", 1.4, 1.0, 0.1, None),
    "oblate1.5_z0.05": ("oblate", 1.5, 1.0, 0.05, None),
}
FIXED_L90 = {
    "sphere": ("sphere", 1.0, 1.0, 0.05, None),
    "prolate2": ("prolate", 2.0, 1.0, 0.05, None),
    "oblate1.4_eps3.12": ("oblate", 1.4, 1.0, 0.05, 3.12),
}
# The grids of scripts/reproduce_figures.py, fixed here so that the
# benchmark does not move when the script does.
FIGURES = {
    "fig1": "sweep.z_over_rmin = 0.2:20:25\n",
    "fig2": "sweep.z_over_rmin = 0.3:5:13\n",
    "fig3": "sweep.aspect_ratio = 0.4:2.5:11\n",
    "fig4": "sweep.z_over_rmin = 0.3:5:13\n",
}
POINT_KEYS = {
    "figures": tuple(FIGURES),
    "near_contact": tuple(NEAR_CONTACT),
    "fixed_l90": tuple(FIXED_L90),
}


def _label(config) -> str:
    sph = config.particle.spheroid
    return (
        f"{sph.family.value} {sph.r_major!r}/{sph.r_minor!r} "
        f"gap={config.particle.gap!r} f_c={config.f_c!r}"
    )


class PointRecorder:
    """Times each point and records its outcome: a value or a package error."""

    def __init__(self, errors, tracer=None):
        self._errors = errors
        self._tracer = tracer
        self.points = []
        self.fatal = []

    def measure(self, key, config, fn, *args, **kwargs):
        if self._tracer is not None:
            self._tracer.begin_point()
        record = {"key": key, "label": _label(config)}
        start = time.perf_counter()
        try:
            sample = fn(config, *args, **kwargs)
        except self._errors.CasimirSpectralError as exc:
            record.update(status="failed", error=type(exc).__name__)
            raise
        except Exception as exc:
            self.fatal.append(f"{key}: {type(exc).__name__}: {exc}")
            raise
        else:
            record.update(status="ok", xi=sample.xi)
            return sample
        finally:
            record["seconds"] = time.perf_counter() - start
            self.points.append(record)


def _system_config(model, spec, l_max):
    family, r_major, r_minor, z_over_rmin, epsilon = spec
    if family == "sphere":
        spheroid = model.Spheroid.sphere(r_major)
    else:
        spheroid = getattr(model.Spheroid, family)(r_major, r_minor)
    substrate = (
        model.Medium.perfect_conductor()
        if epsilon is None
        else model.Medium.constant(epsilon)
    )
    return model.SystemConfig(
        particle=model.PlacedParticle(spheroid, gap=z_over_rmin * r_minor),
        substrate_medium=substrate,
        l_max=l_max,
    )


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=tuple(POINT_KEYS))
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    order = args.order.split(",")
    if sorted(order) != sorted(POINT_KEYS[args.workload]):
        parser.error(f"--order must permute {POINT_KEYS[args.workload]}")

    # --- set-up: imports, trace wrappers, inputs ---------------------------
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from casimir_spectral import energy, errors, model, spectral

    if not pathlib.Path(energy.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"casimir_spectral imported from {energy.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_core(tracer, spectral, energy, errors)
    recorder = PointRecorder(errors, tracer)
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    if args.workload == "figures":
        scenario = None
        calls_in_scenario = 0
        ladder = energy.convergence_ladder

        def recorded_ladder(config, *a, **kw):
            nonlocal calls_in_scenario
            key = f"{scenario}/{calls_in_scenario:03d}"
            calls_in_scenario += 1
            return recorder.measure(key, config, ladder, *a, **kw)

        # installed before the CLI is imported, which binds it by name
        energy.convergence_ladder = recorded_ladder
        from casimir_spectral import cli

        if tracer is not None:
            tracing.install_cli(tracer, cli)
        jobs = []
        for name in order:
            config_path = workdir / f"{name}.cfg"
            config_path.write_text(FIGURES[name], encoding="utf-8")
            jobs.append((name, config_path))
    else:
        if tracer is not None:
            from casimir_spectral import cli

            tracing.install_cli(tracer, cli)  # fails here if a name is missing
        specs = NEAR_CONTACT if args.workload == "near_contact" else FIXED_L90
        l_max = L_CAP if args.workload == "near_contact" else FIXED_L_MAX
        configs = {key: _system_config(model, specs[key], l_max) for key in order}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # --- the timed pass ----------------------------------------------------
    start = time.perf_counter()
    if args.workload == "figures":
        for scenario, config_path in jobs:
            calls_in_scenario = 0
            output = workdir / f"{scenario}.csv"
            code = cli.main([scenario, "--config", str(config_path), "--output", str(output)])
            if code != 0:
                raise RuntimeError(f"casimir-spectral {scenario} exited with {code}")
    else:
        for key in order:
            try:
                if args.workload == "near_contact":
                    recorder.measure(key, configs[key], energy.convergence_ladder, l_cap=L_CAP)
                else:
                    recorder.measure(key, configs[key], energy.zero_point_energy)
            except errors.CasimirSpectralError:
                pass  # recorded as a failed point
    wall_s = time.perf_counter() - start
    if recorder.fatal:
        raise RuntimeError("non-package error inside a point: " + "; ".join(recorder.fatal))

    result = {
        "wall_s": wall_s,
        "points": recorder.points,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.workload == "figures":
        result["csv_sha256"] = {
            path.name: _sha256(path) for path in sorted(workdir.glob("*.csv"))
        }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["trace.wall_s"] = wall_s
        layers["trace.unattributed_s"] = wall_s - tracer.total_self_s()
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
