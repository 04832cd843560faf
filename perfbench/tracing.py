"""Per-layer spans and counters for the traced benchmark pass.

The benchmark does not modify casimir_spectral.  It replaces module
attributes (the names one module uses to call into another) with wrappers
that open a span around the call and update counters.  A span's self time
is its duration minus the time covered by the spans opened inside it, so
the self times of all spans add up to the time spent inside the outermost
ones.

Every wrapped name must exist: a rename in the package makes the traced
run fail with TraceError instead of reporting a silent zero for a layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A module attribute the trace map wraps is missing."""


class Tracer:
    """Aggregated self times and counters of nested spans, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []  # [span name, time covered by its child spans]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._point_keys = set()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        frame = [name, 0.0]
        self._open.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self._clock() - start
            self._open.pop()
            self.self_s[name] += duration - frame[1]
            if self._open:
                self._open[-1][1] += duration

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._open)

    def begin_point(self) -> None:
        """Start a new benchmark point: repeat detection restarts."""
        self._point_keys = set()

    def seen_in_point(self, key) -> bool:
        """True if key was already recorded during the current point."""
        if key in self._point_keys:
            return True
        self._point_keys.add(key)
        return False

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def patch(module, attr, make_wrapper):
    """Replace module.attr by make_wrapper(original); fail if it is missing."""
    original = getattr(module, attr, None)
    if not callable(original):
        raise TraceError(
            f"{module.__name__}.{attr} is missing: the benchmark's trace map "
            "no longer matches the package"
        )
    setattr(module, attr, functools.wraps(original)(make_wrapper(original)))


def _span(tracer, name, after=None):
    """Wrapper factory: a span around the call, then after(args, kwargs, result)."""

    def make(original):
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def install_core(tracer: Tracer, spectral, energy, errors) -> None:
    """Wrap the calls into specfun, spectral and energy.

    Must run before casimir_spectral.cli is imported, because the CLI binds
    energy.convergence_ladder and energy.energy_sweep at import time.
    """
    counts = tracer.counts

    def quad_nodes(args, kwargs, result):
        counts["spectral.quad_nodes.calls"] += 1
        tracer.distinct["spectral.quad_nodes"].add(_arg(args, kwargs, 0, "deg"))

    def radial(args, kwargs, result):
        l_max = _arg(args, kwargs, 1, "l_max")
        counts["specfun.radial_tables.calls"] += 1
        counts["specfun.radial_tables.cells"] += (l_max + 1) * len(result[0][0])

    def ferrers(args, kwargs, result):
        counts["specfun.ferrers_tables.calls"] += 1

    def n_iso(args, kwargs, result):
        key = (
            _arg(args, kwargs, 0, "spheroid"),
            _arg(args, kwargs, 1, "m"),
            _arg(args, kwargs, 2, "l_max"),
        )
        counts["spectral.n_iso.calls"] += 1
        counts["spectral.n_iso.repeats"] += tracer.seen_in_point(key)

    def coupling(args, kwargs, result):
        counts["spectral.coupling_D.calls"] += 1
        counts["spectral.coupling_D.entries"] += result.size

    def eigensolve(args, kwargs, result):
        n = len(result[0])
        counts["spectral.eigensolve.calls"] += 1
        counts["spectral.eigensolve.dim3_sum"] += n**3

    def zero_point_energy(args, kwargs, result):
        counts["energy.zero_point_energy.calls"] += 1
        counts["energy.ladder.rungs"] += tracer.inside("energy.ladder")

    patch(spectral, "leggauss", _span(tracer, "spectral.quad_nodes", quad_nodes))
    for attr in ("prolate_radial_table", "oblate_radial_table"):
        patch(spectral, attr, _span(tracer, "specfun.radial_tables", radial))
    patch(
        spectral,
        "normalized_ferrers_table",
        _span(tracer, "specfun.ferrers_tables", ferrers),
    )
    patch(
        spectral,
        "isolated_depolarization_table",
        _span(tracer, "spectral.n_iso", n_iso),
    )
    patch(spectral, "coupling_matrix_D", _span(tracer, "spectral.coupling_D", coupling))
    patch(spectral, "_sphere_coupling", _span(tracer, "spectral.coupling_D.sphere"))
    patch(spectral, "_spheroid_coupling", _span(tracer, "spectral.coupling_D.spheroid"))
    patch(spectral, "eigendecompose", _span(tracer, "spectral.eigensolve", eigensolve))

    def count_sectors(original):
        def wrapper(*args, **kwargs):
            counts["energy.sectors"] += 1
            return original(*args, **kwargs)

        return wrapper

    patch(spectral, "spectral_block", count_sectors)
    patch(energy, "mode_spectrum", _span(tracer, "spectral.mode_spectrum"))
    patch(
        energy,
        "zero_point_energy",
        _span(tracer, "energy.zero_point_energy", zero_point_energy),
    )

    def ladder(original):
        def wrapper(*args, **kwargs):
            counts["energy.ladder.points"] += 1
            try:
                return tracer.call("energy.ladder", original, *args, **kwargs)
            except errors.CasimirSpectralError:
                counts["energy.ladder.failed"] += 1
                raise

        return wrapper

    patch(energy, "convergence_ladder", ladder)


def install_cli(tracer: Tracer, cli) -> None:
    """Wrap the CLI entry point, its CSV writer and its calls into pfa."""

    def write_csv(args, kwargs, result):
        counts = tracer.counts
        counts["cli.write_csv.calls"] += 1
        counts["cli.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    patch(cli, "main", _span(tracer, "cli"))
    patch(cli, "_write_csv", _span(tracer, "cli.write_csv", write_csv))
    patch(cli, "pfa_energy_sphere_plane", _span(tracer, "pfa"))


SPANS = (
    "spectral.quad_nodes",
    "specfun.radial_tables",
    "specfun.ferrers_tables",
    "spectral.n_iso",
    "spectral.coupling_D",
    "spectral.coupling_D.sphere",
    "spectral.coupling_D.spheroid",
    "spectral.eigensolve",
    "spectral.mode_spectrum",
    "energy.ladder",
    "energy.zero_point_energy",
    "pfa",
    "cli.write_csv",
    "cli",
)

COUNTS = (
    "spectral.quad_nodes.calls",
    "specfun.radial_tables.calls",
    "specfun.radial_tables.cells",
    "specfun.ferrers_tables.calls",
    "spectral.n_iso.calls",
    "spectral.coupling_D.calls",
    "spectral.coupling_D.entries",
    "spectral.eigensolve.calls",
    "spectral.eigensolve.dim3_sum",
    "energy.ladder.points",
    "energy.ladder.rungs",
    "energy.ladder.failed",
    "energy.sectors",
    "energy.zero_point_energy.calls",
    "cli.write_csv.calls",
    "cli.write_csv.bytes",
)


TRACE_TOTALS = ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s")

UNITS = {
    **{f"{name}.self_s": "s" for name in SPANS},
    **{name: "bytes" if name.endswith(".bytes") else "count" for name in COUNTS},
    "spectral.quad_nodes.distinct": "count",
    "spectral.n_iso.repeat_ratio": "ratio",
    **{name: "s" for name in TRACE_TOTALS},
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values by name, without the trace.* totals."""
    out = {f"{name}.self_s": tracer.self_s.get(name, 0.0) for name in SPANS}
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    out["spectral.quad_nodes.distinct"] = len(tracer.distinct["spectral.quad_nodes"])
    calls = tracer.counts["spectral.n_iso.calls"]
    out["spectral.n_iso.repeat_ratio"] = (
        tracer.counts["spectral.n_iso.repeats"] / calls if calls else 0.0
    )
    return out
