"""Batch front-end: config parsing, sweep orchestration, CSV emission.

Usage::

    casimir-spectral <scenario> --config <path> [--output <path>] [--strict]

Scenarios: modes, energy_sweep, exponent, pfa_compare, convergence,
verify, fig1, fig2, fig3, fig4.  Exit codes: 0 ok, 1 usage/parse error,
2 numerical non-convergence (strict mode), a numerical failure or failed
verification, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .energy import DEFAULT_L_CAP, DEFAULT_TOLERANCE, energy_sweep
from .errors import CasimirSpectralError, ConfigParseError
from .model import Family, Medium, PlacedParticle, Spheroid, SystemConfig
from .pfa import pfa_energy_sphere_plane
from .spectral import mode_spectrum

_BASE_COLUMNS = ("z_over_rmin", "xi", "beta_local", "l_max_used", "converged")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_grid(s: str) -> tuple:
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:points")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    if not (start > 0.0 and stop >= start and points >= 1):
        raise ValueError("grid requires 0 < start <= stop and points >= 1")
    if stop == start and points > 1:
        raise ValueError("degenerate grid needs points = 1")
    return (start, stop, points)


_KEY_PARSERS = {
    "geometry.r_major": float,
    "geometry.r_minor": float,
    "geometry.family": str,
    "substrate.epsilon": float,
    "substrate.perfect_conductor": _parse_bool,
    "ambient.epsilon": float,
    "sweep.z_over_rmin": _parse_grid,
    "sweep.aspect_ratio": _parse_grid,
    "truncation.l_max": int,
    "truncation.tolerance": float,
    "scenario": str,
    "output": str,
}

_DEFAULTS = {
    "geometry.r_major": 1.0,
    "geometry.r_minor": 1.0,
    "ambient.epsilon": 1.0,
    "sweep.z_over_rmin": (0.2, 20.0, 25),
    "truncation.l_max": DEFAULT_L_CAP,
    "truncation.tolerance": DEFAULT_TOLERANCE,
}


@dataclass(frozen=True)
class RunConfig:
    """A validated scenario run: typed parameters plus output path.

    Without an output path the CSV scenarios write ``output.csv`` and
    ``verify`` writes no file.
    """

    scenario: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None
    strict: bool = False

    @property
    def csv_path(self) -> str:
        return "output.csv" if self.output_path is None else self.output_path


def parse_config(text: str, scenario: str | None = None) -> RunConfig:
    """Parse a line-oriented ``key = value`` document with # comments."""
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"expected 'key = value' on line {lineno}", line=lineno
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigParseError(
                f"unknown key {key!r} on line {lineno}", line=lineno, key=key
            )
        if key in params:
            raise ConfigParseError(
                f"duplicate key {key!r} on line {lineno}", line=lineno, key=key
            )
        try:
            params[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigParseError(
                f"bad value for {key!r} on line {lineno}: {exc}",
                line=lineno,
                key=key,
            ) from exc

    file_scenario = params.pop("scenario", None)
    if scenario is None:
        scenario = file_scenario
    elif file_scenario is not None and file_scenario != scenario:
        raise ConfigParseError(
            f"scenario mismatch: command line says {scenario!r}, "
            f"config says {file_scenario!r}"
        )
    if scenario is None:
        raise ConfigParseError("no scenario given")
    if scenario not in SCENARIOS:
        raise ConfigParseError(f"unknown scenario {scenario!r}")

    output = params.pop("output", None)
    merged = dict(_DEFAULTS)
    merged.update(params)
    _validate(scenario, merged)
    return RunConfig(scenario=scenario, parameters=merged, output_path=output)


def _validate(scenario: str, params: dict) -> None:
    for key in ("geometry.r_major", "geometry.r_minor", "ambient.epsilon"):
        if not params[key] > 0.0:
            raise ConfigParseError(f"{key} must be positive", key=key)
    if params["truncation.l_max"] < 1:
        raise ConfigParseError("truncation.l_max must be >= 1")
    if not params["truncation.tolerance"] > 0.0:
        raise ConfigParseError("truncation.tolerance must be positive")
    has_eps = "substrate.epsilon" in params
    has_pc = params.get("substrate.perfect_conductor", False)
    if has_eps and has_pc:
        raise ConfigParseError(
            "substrate.epsilon and substrate.perfect_conductor are exclusive"
        )
    needs_system = scenario == "modes" or scenario in _SWEEP_EXTRAS
    if needs_system and not (has_eps or has_pc):
        raise ConfigParseError(
            f"scenario {scenario!r} requires substrate.epsilon or "
            "substrate.perfect_conductor"
        )
    if needs_system and has_eps and not params["substrate.epsilon"] > 0.0:
        raise ConfigParseError("substrate.epsilon must be positive")
    ratio = params["geometry.r_major"] / params["geometry.r_minor"]
    family = params.get("geometry.family")
    if family is None:
        if abs(ratio - 1.0) > 1e-12:
            raise ConfigParseError(
                "geometry.family required when r_major != r_minor"
            )
        params["geometry.family"] = "sphere"
    elif family not in ("sphere", "prolate", "oblate"):
        raise ConfigParseError(f"unknown geometry.family {family!r}")
    elif family == "sphere" and abs(ratio - 1.0) > 1e-12:
        raise ConfigParseError("sphere requires r_major == r_minor")
    elif family != "sphere" and not ratio > 1.0:
        raise ConfigParseError("spheroid requires r_major > r_minor")


def _spheroid_from(params: dict) -> Spheroid:
    family = Family(params["geometry.family"])
    if family is Family.SPHERE:
        return Spheroid.sphere(params["geometry.r_major"])
    ctor = Spheroid.prolate if family is Family.PROLATE else Spheroid.oblate
    return ctor(params["geometry.r_major"], params["geometry.r_minor"])


def _substrate_from(params: dict) -> Medium:
    if params.get("substrate.perfect_conductor", False):
        return Medium.perfect_conductor()
    return Medium.constant(params["substrate.epsilon"])


def _system_config(params: dict, spheroid, substrate, gap) -> SystemConfig:
    return SystemConfig(
        particle=PlacedParticle(spheroid, gap=gap),
        substrate_medium=substrate,
        ambient_epsilon=params["ambient.epsilon"],
        l_max=params["truncation.l_max"],
    )


def _grid(params: dict, key: str = "sweep.z_over_rmin") -> np.ndarray:
    start, stop, points = params[key]
    if points == 1:
        return np.asarray([start])
    return np.geomspace(start, stop, points)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _preamble(run: RunConfig, extra: dict) -> list:
    lines = [
        f"# casimir-spectral {__version__}",
        f"# scenario = {run.scenario}",
    ]
    for key in sorted(run.parameters):
        value = run.parameters[key]
        if isinstance(value, tuple):
            value = ":".join(_fmt(v) for v in value)
        else:
            value = _fmt(value)
        lines.append(f"# {key} = {value}")
    for key in sorted(extra):
        lines.append(f"# {key} = {_fmt(extra[key])}")
    lines.extend(
        [
            "# convention: eigenvalues are depolarization factors n in (0, 1)",
            "# convention: z_over_rmin = gap / r_minor",
            "# convention: mode multiplicity is 1 for m = 0 and 2 for m > 0",
        ]
    )
    return lines


def _write_csv(path: str, preamble: list, columns: tuple, rows: list) -> None:
    lines = list(preamble)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_ladder(
    run: RunConfig, labels, make_config, grid, preamble, extra=None, tag=None
) -> int:
    """Run energy_sweep over labels x grid, write the CSV, return the exit code.

    One record per (label, z) holds the label's keys, the base columns and,
    on converged rows, one column per ``extra`` entry, computed as
    fn(config, sample).  ``beta_local`` comes from the converged samples of
    the same label.  A failed row keeps ``z_over_rmin`` and leaves the other
    values empty.  ``preamble`` holds the extra preamble entries.  With
    ``tag``, each label goes to its own file, the output path suffixed with
    ``_<tag(label)>``, and its keys join that file's preamble.
    """
    params = run.parameters
    extra = extra or {}
    tolerance, l_cap = params["truncation.tolerance"], params["truncation.l_max"]
    results = energy_sweep(make_config, grid, labels, tolerance=tolerance, l_cap=l_cap)
    tables = []
    for label, (sweep, rows) in zip(labels, results):
        betas = iter(sweep.local_exponents())
        records = []
        for row in rows:
            config, sample = row.config, row.sample
            record = dict(
                label,
                z_over_rmin=config.particle.gap / config.particle.spheroid.r_minor,
                converged=False,
            )
            if sample is not None:
                record.update(
                    xi=sample.xi,
                    beta_local=next(betas),
                    l_max_used=sample.l_max_used,
                    converged=sample.converged,
                )
                record.update({name: fn(config, sample) for name, fn in extra.items()})
            records.append(record)
        tables.append(records)

    columns = _BASE_COLUMNS + tuple(labels[0]) + tuple(extra)
    every = [record for records in tables for record in records]
    if tag is None:
        files = [(run.csv_path, preamble, every)]
    else:
        stem = run.csv_path.removesuffix(".csv")
        suffix = run.csv_path[len(stem):]
        files = [
            (f"{stem}_{tag(label)}{suffix}", {**preamble, **label}, records)
            for label, records in zip(labels, tables)
        ]
    for path, entries, records in files:
        _write_csv(path, _preamble(run, entries), columns, records)
    return 2 if run.strict and not all(r["converged"] for r in every) else 0


def _pfa_ratio(config: SystemConfig, sample) -> float:
    """Xi over the PFA energy of the particle's apex curvature above the plate."""
    xi_pfa = pfa_energy_sphere_plane(config)
    return sample.xi / xi_pfa if xi_pfa != 0.0 else math.nan


def _scenario_modes(run: RunConfig) -> int:
    params = run.parameters
    z = _grid(params)[0] * params["geometry.r_minor"]
    cfg = _system_config(params, _spheroid_from(params), _substrate_from(params), z)
    spectrum = mode_spectrum(cfg)
    columns = ("m", "mode_index", "n", "omega_over_omega_p", "multiplicity")
    records = [
        dict(zip(columns, (block.m, i, float(n), math.sqrt(n), block.multiplicity)))
        for block in spectrum.blocks
        for i, n in enumerate(np.sort(block.eigenvalues))
    ]
    preamble = {"f_c": cfg.f_c, "z_over_rmin": z / params["geometry.r_minor"]}
    _write_csv(run.csv_path, _preamble(run, preamble), columns, records)
    return 0


# extra columns of the single-geometry sweep scenarios
_SWEEP_EXTRAS = {
    "energy_sweep": {},
    "exponent": {},
    "convergence": {"rel_change": lambda config, sample: sample.rel_change_last_step},
    "pfa_compare": {"pfa_ratio": _pfa_ratio},
}


def _scenario_sweep(run: RunConfig) -> int:
    """The configured geometry and substrate over the z/r_min grid."""
    params = run.parameters
    spheroid, substrate = _spheroid_from(params), _substrate_from(params)
    r_minor = params["geometry.r_minor"]
    grid = _grid(params)

    def make_config(label, z_rel):
        return _system_config(params, spheroid, substrate, z_rel * r_minor)

    preamble = {"f_c": make_config({}, grid[0]).f_c}
    extra = _SWEEP_EXTRAS[run.scenario]
    return _run_ladder(run, ({},), make_config, grid, preamble, extra)


FIG1_EPSILONS = (math.inf, 7.8, 3.12, 1.6)


def _scenario_fig1(run: RunConfig) -> int:
    """Oblate aspect 1.4 over the four substrates of increasing contrast;
    one file per substrate, tagged by its epsilon (eps_inf, eps_7p8, ...)."""
    params = run.parameters
    spheroid = Spheroid.oblate(1.4, 1.0)

    def make_config(label, z_rel):
        eps = label["epsilon_sub"]
        substrate = (
            Medium.perfect_conductor() if math.isinf(eps) else Medium.constant(eps)
        )
        return _system_config(params, spheroid, substrate, z_rel)

    def tag(label):
        return "eps_" + _fmt(label["epsilon_sub"]).replace(".", "p")

    labels = [{"epsilon_sub": eps} for eps in FIG1_EPSILONS]
    # .tolist(): the gaps of fig1 and fig2 are Python floats and those of
    # fig4 numpy scalars, which keeps each point's config repr stable
    grid = _grid(params).tolist()
    return _run_ladder(run, labels, make_config, grid, {"aspect_ratio": 1.4}, tag=tag)


FIG2_ASPECTS = (1.2, 1.6, 2.0)
FIG2_EPSILON = 3.12


def _scenario_fig2(run: RunConfig) -> int:
    """Prolate aspect families over sapphire; energy vs z/r_<."""
    params = run.parameters
    substrate = Medium.constant(FIG2_EPSILON)

    def make_config(label, z_rel):
        spheroid = Spheroid.prolate(label["aspect_ratio"], 1.0)
        return _system_config(params, spheroid, substrate, z_rel)

    labels = [{"aspect_ratio": aspect} for aspect in FIG2_ASPECTS]
    grid = _grid(params).tolist()
    return _run_ladder(run, labels, make_config, grid, {"epsilon_sub": FIG2_EPSILON})


FIG3_Z_OVER_RPERP = 0.25
FIG3_EPSILON = 3.12
FIG3_DEFAULT_GRID = (0.4, 2.5, 11)


def _fig3_spheroid(r) -> Spheroid:
    """r_perp = 1 and r_par = r: oblate (flat) for r > 1, prolate (tall)
    for r < 1, a sphere for r = 1."""
    if abs(r - 1.0) < 1e-9:
        return Spheroid.sphere(1.0)
    if r > 1.0:
        return Spheroid.oblate(r, 1.0)
    return Spheroid.prolate(1.0, r)


def _scenario_fig3(run: RunConfig) -> int:
    """Sweep aspect ratio r = r_par / r_perp at fixed z / r_perp = 0.25;
    each aspect ratio is a label over the one-point grid, so beta is empty."""
    params = {"sweep.aspect_ratio": FIG3_DEFAULT_GRID, **run.parameters}
    substrate = Medium.constant(FIG3_EPSILON)

    def make_config(label, z_over_rperp):
        spheroid = _fig3_spheroid(label["aspect_ratio"])
        gap = z_over_rperp * spheroid.r_perp
        return _system_config(params, spheroid, substrate, gap)

    labels = [{"aspect_ratio": r} for r in _grid(params, "sweep.aspect_ratio")]
    preamble = {"epsilon_sub": FIG3_EPSILON, "z_over_rperp": FIG3_Z_OVER_RPERP}
    return _run_ladder(run, labels, make_config, (FIG3_Z_OVER_RPERP,), preamble)


# two prolate families with the same apex curvature radius r_minor^2 / r_major = 0.5
FIG4_FAMILIES = (Spheroid.prolate(2.0, 1.0), Spheroid.prolate(3.125, 1.25))
FIG4_EPSILON = 3.12


def _scenario_fig4(run: RunConfig) -> int:
    """Fixed-curvature prolate families: same PFA prediction, different Xi."""
    params = run.parameters
    substrate = Medium.constant(FIG4_EPSILON)
    by_aspect = {spheroid.aspect_ratio: spheroid for spheroid in FIG4_FAMILIES}

    def make_config(label, z_rel):
        spheroid = by_aspect[label["aspect_ratio"]]
        return _system_config(params, spheroid, substrate, z_rel * spheroid.r_minor)

    labels = [{"aspect_ratio": aspect} for aspect in by_aspect]
    preamble = {"epsilon_sub": FIG4_EPSILON, "apex_radius": 0.5}
    extra = {"pfa_ratio": _pfa_ratio}
    return _run_ladder(run, labels, make_config, _grid(params), preamble, extra)


def _scenario_verify(run: RunConfig) -> int:
    """Oracle report: nonzero exit if any oracle-vs-core deviation exceeds
    its tolerance."""
    from . import oracles
    from .spectral import isolated_depolarization, spectral_block

    checks = []

    def check(name, deviation, tolerance):
        checks.append((name, deviation, tolerance, deviation <= tolerance))

    # isolated sphere spectrum
    sphere = Spheroid.sphere(1.0)
    worst = 0.0
    for l in range(1, 31):
        worst = max(worst, abs(isolated_depolarization(sphere, l, 0) - l / (2 * l + 1)))
    check("isolated_sphere_spectrum", worst, 1e-10)

    # dipole depolarization vs quadrature oracle
    for family, ctor in (("prolate", Spheroid.prolate), ("oblate", Spheroid.oblate)):
        sp = ctor(1.4, 1.0)
        for axis, (l, m) in (("symmetry", (1, 0)), ("transverse", (1, 1))):
            ref = oracles.depolarization_integral(sp, axis)
            got = isolated_depolarization(sp, l, m)
            check(f"depolarization_{family}_{axis}", abs(got - ref), 1e-8)

    # image-dipole shifts for a sphere at z/a = 5, f_c = -1
    particle = PlacedParticle(sphere, gap=5.0)
    modes = oracles.image_dipole_modes(1.0, particle.center_height, -1.0)
    cfg = SystemConfig(
        particle=particle, substrate_medium=Medium.perfect_conductor(), l_max=20
    )
    for m, key in ((0, "n_perp"), (1, "n_par")):
        block = spectral_block(cfg, m)
        n1 = float(np.sort(block.eigenvalues)[0])
        shift_ref = modes[key] - 1.0 / 3.0
        shift = n1 - 1.0 / 3.0
        check(f"image_dipole_m{m}", abs(shift - shift_ref) / abs(shift_ref), 0.02)

    # boundary-integral cross-check, sphere at z/a = 1 over a conductor
    particle = PlacedParticle(sphere, gap=1.0)
    cfg = SystemConfig(
        particle=particle, substrate_medium=Medium.perfect_conductor(), l_max=30
    )
    for m in (0, 1):
        u_bem = oracles.quasistatic_bem(particle, -1.0, m)
        block = spectral_block(cfg, m)
        u_core = np.sort(block.eigenvalues)[:3]
        dev = float(np.max(np.abs(u_core - u_bem) / np.abs(u_bem)))
        check(f"bem_sphere_m{m}", dev, 0.01)

    lines = []
    ok = True
    for name, deviation, tolerance, passed in checks:
        ok = ok and passed
        status = "pass" if passed else "FAIL"
        lines.append(f"{status}  {name}: deviation {deviation:.3e} (tol {tolerance:g})")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if run.output_path is not None:
        with open(run.output_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    return 0 if ok else 2


_SCENARIO_RUNNERS = {
    "modes": _scenario_modes,
    "energy_sweep": _scenario_sweep,
    "exponent": _scenario_sweep,
    "pfa_compare": _scenario_sweep,
    "convergence": _scenario_sweep,
    "verify": _scenario_verify,
    "fig1": _scenario_fig1,
    "fig2": _scenario_fig2,
    "fig3": _scenario_fig3,
    "fig4": _scenario_fig4,
}
SCENARIOS = tuple(_SCENARIO_RUNNERS)


def run(config: RunConfig) -> int:
    """Execute a scenario; returns the process exit code."""
    try:
        return _SCENARIO_RUNNERS[config.scenario](config)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except CasimirSpectralError as exc:
        sys.stderr.write(f"numerical error: {type(exc).__name__}: {exc}\n")
        return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="casimir-spectral", description=__doc__)
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", default=None)
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    try:
        config = parse_config(text, scenario=args.scenario)
    except ConfigParseError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    output_path = config.output_path if args.output is None else args.output
    return run(replace(config, output_path=output_path, strict=args.strict))


if __name__ == "__main__":
    raise SystemExit(main())
