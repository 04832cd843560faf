"""Batch front-end: config parsing, sweep orchestration, CSV emission.

Usage::

    casimir-spectral <scenario> --config <path> [--output <path>] [--strict]

Scenarios: modes, energy_sweep, pfa_compare, convergence, verify, fig1,
fig2, fig3, fig4.  Exit codes: 0 ok, 1 usage/parse error, 2 numerical
non-convergence (strict mode), a numerical failure or failed
verification, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .energy import (
    DEFAULT_L_CAP,
    DEFAULT_TOLERANCE,
    L_STEP,
    energy_sweep,
    local_exponents,
)
from .errors import CasimirSpectralError, ConfigParseError
from .model import Medium, PlacedParticle, Spheroid, SystemConfig
from .pfa import pfa_energy_sphere_plane
from .spectral import mode_spectrum

_BASE_COLUMNS = ("z_over_rmin", "xi", "beta_local", "l_max_used", "converged")


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def _parse_grid(s: str) -> tuple:
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:points")
    start, stop, points = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    if not (start > 0.0 and stop >= start and points >= 1):
        raise ValueError("grid requires 0 < start <= stop and points >= 1")
    if stop == start and points > 1:
        raise ValueError("degenerate grid needs points = 1")
    return (start, stop, points)


# key: (parser, default); a key without a default is absent unless set
_KEYS = {
    "geometry.r_major": (_finite, 1.0),
    "geometry.r_minor": (_finite, 1.0),
    "geometry.family": (str, None),
    "substrate.epsilon": (float, None),  # inf: the perfect conductor
    "ambient.epsilon": (_finite, 1.0),
    "sweep.z_over_rmin": (_parse_grid, (0.2, 20.0, 25)),
    "sweep.aspect_ratio": (_parse_grid, None),
    "truncation.l_max": (int, DEFAULT_L_CAP),
    "truncation.tolerance": (_finite, DEFAULT_TOLERANCE),
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


def parse_config(text: str, scenario: str) -> RunConfig:
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
        if key not in _KEYS:
            raise ConfigParseError(
                f"unknown key {key!r} on line {lineno}", line=lineno, key=key
            )
        if key in params:
            raise ConfigParseError(
                f"duplicate key {key!r} on line {lineno}", line=lineno, key=key
            )
        try:
            params[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigParseError(
                f"bad value for {key!r} on line {lineno}: {exc}",
                line=lineno,
                key=key,
            ) from exc

    if scenario not in SCENARIOS:
        raise ConfigParseError(f"unknown scenario {scenario!r}")

    merged = {key: value for key, (_, value) in _KEYS.items() if value is not None}
    merged.update(params)
    _validate(scenario, merged)
    return RunConfig(scenario=scenario, parameters=merged)


def _validate(scenario: str, params: dict) -> None:
    """The checks the model cannot make; its constructors make the others."""
    least = 2 * L_STEP if scenario in _LADDERS else 1  # a ladder needs two rungs
    if params["truncation.l_max"] < least:
        raise ConfigParseError(f"truncation.l_max must be >= {least} for {scenario}")
    if not params["truncation.tolerance"] > 0.0:
        raise ConfigParseError("truncation.tolerance must be positive")
    _built("ambient.epsilon", Medium.constant, params["ambient.epsilon"])
    spheroid, _ = _configured(params)
    params["geometry.family"] = spheroid.family.value
    spec = _SWEEP if scenario == "modes" else _LADDERS.get(scenario)
    if spec is not None and any(sub is None for _, _, sub in spec.systems(params)):
        raise ConfigParseError(f"scenario {scenario!r} requires substrate.epsilon")


def _built(key: str, constructor, *args):
    """constructor(*args), its ValueError turned into a ConfigParseError."""
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ConfigParseError(f"bad {key}: {exc}", key=key) from exc


def _configured(params: dict) -> tuple:
    """The configured spheroid and substrate; no substrate key gives None.

    Axes equal within 1e-12 relative make a sphere when the family is unset
    or ``sphere``; unequal axes need a family.
    """
    r_major, r_minor = params["geometry.r_major"], params["geometry.r_minor"]
    family = params.get("geometry.family")
    if family in (None, "sphere") and abs(r_major - r_minor) <= 1e-12 * abs(r_minor):
        family, r_minor = "sphere", r_major
    if family is None:  # the model's axis checks first: only valid axes need it
        _built("geometry", Spheroid.prolate, r_major, r_minor)
        raise ConfigParseError("geometry.family required when r_major != r_minor")
    spheroid = _built("geometry", Spheroid, r_major, r_minor, family)
    if "substrate.epsilon" not in params:
        return spheroid, None
    return spheroid, _built("substrate.epsilon", Medium, params["substrate.epsilon"])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ":".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _write_csv(
    path: str, run: RunConfig, entries: dict, columns: tuple, rows: list
) -> None:
    """The run's preamble (its parameters, then ``entries``), header and rows."""
    lines = [
        f"# casimir-spectral {__version__}",
        f"# scenario = {run.scenario}",
    ]
    for echo in (run.parameters, entries):
        lines.extend(f"# {key} = {_fmt(echo[key])}" for key in sorted(echo))
    lines.extend(
        [
            "# convention: eigenvalues are depolarization factors n in (0, 1)",
            "# convention: z_over_rmin = gap / r_minor",
            "# convention: mode multiplicity is 1 for m = 0 and 2 for m > 0",
        ]
    )
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _pfa_ratio(config: SystemConfig, sample) -> float:
    """Xi over the PFA energy of the particle's apex curvature above the plate."""
    xi_pfa = pfa_energy_sphere_plane(config)
    return sample.xi / xi_pfa if xi_pfa != 0.0 else math.nan


def _z_grid(params: dict) -> np.ndarray:
    return np.geomspace(*params["sweep.z_over_rmin"])


@dataclass(frozen=True)
class _Ladder:
    """A ladder scenario: each row's system over the z grid through
    energy_sweep.

    ``systems(params)`` gives the rows ``(label, spheroid, substrate)``;
    grid value z is the gap ``z * getattr(spheroid, gap_axis)``.
    ``preamble`` maps the first point's config to extra preamble entries,
    and each ``extra`` column is fn(config, sample).  With ``tag``, each
    row goes to its own file, ``_<tag(label)>`` after the output stem.
    """

    systems: Callable
    grid: Callable = _z_grid
    gap_axis: str = "r_minor"
    preamble: Callable = lambda config: {}
    extra: dict = field(default_factory=dict)
    tag: Callable | None = None


def _config_at(params: dict, spec: _Ladder, spheroid, substrate, z) -> SystemConfig:
    """The SystemConfig of every scenario point: a row's system at z."""
    return SystemConfig(
        particle=PlacedParticle(spheroid, gap=z * getattr(spheroid, spec.gap_axis)),
        substrate_medium=substrate,
        ambient_epsilon=params["ambient.epsilon"],
        l_max=params["truncation.l_max"],
    )


def _run_ladder(run: RunConfig, spec: _Ladder) -> int:
    """Run one energy_sweep over every row's grid, row by row, write the
    CSV, return the exit code.

    One record per (label, z) holds the label's keys, the base columns and,
    on converged rows, the extra columns.  ``beta_local`` comes from the
    converged samples of the same label.  A failed row keeps ``z_over_rmin``
    and leaves the other values empty.
    """
    params = run.parameters
    systems = spec.systems(params)
    labels = [label for label, _, _ in systems]
    grid = spec.grid(params)
    tolerance, l_cap = params["truncation.tolerance"], params["truncation.l_max"]
    configs = [_config_at(params, spec, *row[1:], z) for row in systems for z in grid]
    every_row = energy_sweep(configs, tolerance=tolerance, l_cap=l_cap)
    tables = []
    for k, label in enumerate(labels):
        rows = every_row[k * len(grid) : (k + 1) * len(grid)]
        betas = iter(local_exponents([r.sample for r in rows if r.sample is not None]))
        records = []
        for row in rows:
            config, sample = row.config, row.sample
            record = dict(
                label,
                z_over_rmin=config.particle.z_over_rmin,
                converged=False,
            )
            if sample is not None:
                record.update(
                    xi=sample.xi,
                    beta_local=next(betas),
                    l_max_used=sample.l_max_used,
                    converged=sample.converged,
                    **{name: fn(config, sample) for name, fn in spec.extra.items()},
                )
            records.append(record)
        tables.append(records)

    preamble = spec.preamble(configs[0])
    columns = _BASE_COLUMNS + tuple(labels[0]) + tuple(spec.extra)
    every = [record for records in tables for record in records]
    if spec.tag is None:
        files = [(run.csv_path, preamble, every)]
    else:
        stem = run.csv_path.removesuffix(".csv")
        suffix = run.csv_path[len(stem):]
        files = [
            (f"{stem}_{spec.tag(label)}{suffix}", {**preamble, **label}, records)
            for label, records in zip(labels, tables)
        ]
    for path, entries, records in files:
        _write_csv(path, run, entries, columns, records)
    return 2 if run.strict and not all(r["converged"] for r in every) else 0


# the configured geometry and substrate over the z/r_min grid
_SWEEP = _Ladder(lambda p: [({}, *_configured(p))], preamble=lambda c: {"f_c": c.f_c})


def _scenario_modes(run: RunConfig) -> int:
    params = run.parameters
    (row,) = _SWEEP.systems(params)
    cfg = _config_at(params, _SWEEP, *row[1:], _z_grid(params)[0])
    columns = ("m", "mode_index", "n", "omega_over_omega_p", "multiplicity")
    records = [
        dict(zip(columns, (block.m, i, float(n), math.sqrt(n), block.multiplicity)))
        for block in mode_spectrum(cfg)
        for i, n in enumerate(block.eigenvalues)
    ]
    preamble = {"f_c": cfg.f_c, "z_over_rmin": cfg.particle.z_over_rmin}
    _write_csv(run.csv_path, run, preamble, columns, records)
    return 0


EPS_SAPPHIRE = 3.12  # the substrate of fig2, fig3 and fig4
_SAPPHIRE = Medium.constant(EPS_SAPPHIRE)
_FIG1_OBLATE = Spheroid.oblate(1.4, 1.0)
# the (label, spheroid, substrate) rows of fig1, fig2 and fig4
FIG1_ROWS = tuple(
    ({"epsilon_sub": eps}, _FIG1_OBLATE, Medium(eps))
    for eps in (math.inf, 7.8, 3.12, 1.6)
)
FIG2_ROWS = tuple(
    ({"aspect_ratio": aspect}, Spheroid.prolate(aspect, 1.0), _SAPPHIRE)
    for aspect in (1.2, 1.6, 2.0)
)
# two prolate families, by aspect ratio, with the same apex curvature radius
# r_minor^2 / r_major = 0.5
FIG4_ROWS = (
    ({"aspect_ratio": 2.0}, Spheroid.prolate(2.0, 1.0), _SAPPHIRE),
    ({"aspect_ratio": 2.5}, Spheroid.prolate(3.125, 1.25), _SAPPHIRE),
)
FIG3_Z_OVER_RPERP = 0.25
FIG3_DEFAULT_GRID = (0.4, 2.5, 11)


def _fig3_spheroid(r) -> Spheroid:
    """r_perp = 1 and r_par = r: oblate (flat) for r > 1, prolate (tall)
    for r < 1, a sphere for r = 1."""
    if abs(r - 1.0) < 1e-9:
        return Spheroid.sphere(1.0)
    if r > 1.0:
        return Spheroid.oblate(r, 1.0)
    return Spheroid.prolate(1.0, r)


# the gaps of fig1 and fig2 are Python floats and those of fig4 and the
# sweeps numpy scalars, which keeps each point's config repr stable
_LADDERS = {
    "energy_sweep": _SWEEP,
    "pfa_compare": replace(_SWEEP, extra={"pfa_ratio": _pfa_ratio}),
    "convergence": replace(
        _SWEEP, extra={"rel_change": lambda _, sample: sample.rel_change_last_step}
    ),
    # oblate aspect 1.4 over the four substrates of increasing contrast; one
    # file per substrate, tagged by its epsilon (eps_inf, eps_7p8, ...)
    "fig1": _Ladder(
        systems=lambda _: FIG1_ROWS,
        grid=lambda params: _z_grid(params).tolist(),
        preamble=lambda _: {"aspect_ratio": 1.4},
        tag=lambda label: "eps_" + _fmt(label["epsilon_sub"]).replace(".", "p"),
    ),
    # prolate aspect families over sapphire; energy vs z/r_<
    "fig2": _Ladder(
        systems=lambda _: FIG2_ROWS,
        grid=lambda params: _z_grid(params).tolist(),
        preamble=lambda _: {"epsilon_sub": EPS_SAPPHIRE},
    ),
    # aspect ratio r = r_par / r_perp at fixed z / r_perp = 0.25; each aspect
    # ratio is a label over the one-point grid, so beta is empty
    "fig3": _Ladder(
        systems=lambda params: [
            ({"aspect_ratio": r}, _fig3_spheroid(r), _SAPPHIRE)
            for r in np.geomspace(*params.get("sweep.aspect_ratio", FIG3_DEFAULT_GRID))
        ],
        grid=lambda _: (FIG3_Z_OVER_RPERP,),
        gap_axis="r_perp",
        preamble=lambda _: {
            "epsilon_sub": EPS_SAPPHIRE,
            "z_over_rperp": FIG3_Z_OVER_RPERP,
        },
    ),
    # fixed-curvature prolate families: same PFA prediction, different Xi
    "fig4": _Ladder(
        systems=lambda _: FIG4_ROWS,
        preamble=lambda _: {"epsilon_sub": EPS_SAPPHIRE, "apex_radius": 0.5},
        extra={"pfa_ratio": _pfa_ratio},
    ),
}
SCENARIOS = ("modes", *_LADDERS, "verify")


def _scenario_verify(run: RunConfig) -> int:
    """Oracle report: nonzero exit if any oracle-vs-core deviation exceeds
    its tolerance."""
    from . import oracles
    from .spectral import isolated_depolarization, spectral_block

    lines = []

    def check(name, deviation, tolerance):
        status = "pass" if deviation <= tolerance else "FAIL"
        lines.append(f"{status}  {name}: deviation {deviation:.3e} (tol {tolerance:g})")

    sphere = Spheroid.sphere(1.0)

    def over_conductor(gap, l_max):
        particle = PlacedParticle(sphere, gap=gap)
        return SystemConfig(particle, Medium.perfect_conductor(), l_max=l_max)

    # isolated sphere spectrum
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
    cfg = over_conductor(5.0, l_max=20)
    modes = oracles.image_dipole_modes(1.0, cfg.particle.center_height, -1.0)
    for m, key in ((0, "n_perp"), (1, "n_par")):
        n1 = float(spectral_block(cfg, m).eigenvalues[0])
        shift_ref = modes[key] - 1.0 / 3.0
        shift = n1 - 1.0 / 3.0
        check(f"image_dipole_m{m}", abs(shift - shift_ref) / abs(shift_ref), 0.02)

    # boundary-integral cross-check, sphere at z/a = 1 over a conductor
    cfg = over_conductor(1.0, l_max=30)
    for m in (0, 1):
        u_bem = oracles.quasistatic_bem(cfg.particle, -1.0, m)
        u_core = spectral_block(cfg, m).eigenvalues[:3]
        dev = float(np.max(np.abs(u_core - u_bem) / np.abs(u_bem)))
        check(f"bem_sphere_m{m}", dev, 0.01)

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if run.output_path is not None:
        with open(run.output_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    return 2 if any(line.startswith("FAIL") for line in lines) else 0


def run(config: RunConfig) -> int:
    """Execute a scenario; returns the process exit code."""
    try:
        if config.scenario == "modes":
            return _scenario_modes(config)
        if config.scenario == "verify":
            return _scenario_verify(config)
        return _run_ladder(config, _LADDERS[config.scenario])
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
        config = parse_config(text, args.scenario)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except (ConfigParseError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    return run(replace(config, output_path=args.output, strict=args.strict))


if __name__ == "__main__":
    raise SystemExit(main())
