#!/usr/bin/env python3
"""Benchmark of casimir-spectral: three fixed workloads, timed end to end
and, in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one after another
    python3 perfbench/run.py --write-reference    # re-record perfbench/reference.json

Workloads (see BENCHMARK.json for why each was chosen):

* figures       -- casimir_spectral.cli.main runs fig1..fig4 at the grids of
                   scripts/reproduce_figures.py (176 ladder points).
* near_contact  -- energy.convergence_ladder, perfect conductor, l_cap = 90,
                   at four points; oblate 1.5 at z/r_min = 0.05 ends in
                   ConvergenceError, which the reference records.
* fixed_l90     -- one energy.zero_point_energy at l_max = 90 for a sphere,
                   a prolate 2 and an oblate 1.4 at z/r_min = 0.05.  Not in
                   BENCHMARK.json: on a shared 2-vCPU machine its wall time
                   spread by up to 0.32 between runs, more than any bound
                   the benchmark may set.  It runs and is gated like the
                   others, for measurements by hand.

The seed only permutes the order of the independent points of near_contact
and fixed_l90; the order of figures is fixed by the CLI.

Every pass runs in a fresh worker process (perfbench/worker.py) with one
BLAS thread, so set-up time and peak memory are those of a user's process.
A run spends about --seconds: it starts set-up samples and passes while the
next one is expected to fit, and always completes at least one pass.

With --trace 0 the run reports the end-to-end metrics: setup_s (fresh
process to ready, median over the workers started after a warm-up one),
wall_s (median pass time) and peak_rss_mib (median over passes).  It also
prints point_s_p50 and point_s_max (over each point's median time),
failed_fraction, failed_point_s and xi_max_rel_err.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see tracing.py) plus trace.overhead_s, the traced minus
the untraced wall time.

Every point is checked against perfbench/reference.json: converged/failed
status and error type, Xi to 1e-12 relative, and for figures the sha256 of
every CSV.  A mismatch prints the result with "correct": false and exits 1.
The result's "failed" counts points whose outcome differs from the
reference, so the ConvergenceError that near_contact expects is not one.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
PACKAGE = ROOT / "src" / "casimir_spectral"
WORKDIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from worker import POINT_KEYS  # noqa: E402  (neither module imports package code)

WORKLOADS = tuple(POINT_KEYS)
XI_REL_TOL = 1e-12
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed on every run but kept out of BENCHMARK.json.  The point times are
# one or two samples of a few seconds per run on the small workloads, whose
# run-to-run spread on a shared 2-vCPU machine reached the largest bound the
# benchmark may set; the others are 0 on a correct run of some workloads,
# and the correctness gates enforce them.
INFO_UNITS = {
    "point_s_p50": "s",
    "point_s_max": "s",
    "failed_fraction": "ratio",
    "failed_point_s": "s",
    "xi_max_rel_err": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts worker processes within one deadline and keeps their results."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self._spawned = 0

    def spawn(self, order, trace=0, setup_only=False) -> dict:
        self._spawned += 1
        workdir = WORKDIR / f"{os.getpid()}-{self.workload}-{self._spawned}"
        shutil.rmtree(workdir, ignore_errors=True)
        cmd = [
            sys.executable,
            str(WORKER),
            self.workload,
            "--order",
            ",".join(order),
            "--trace",
            str(trace),
            "--workdir",
            str(workdir),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before a worker could start")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(
                f"worker for {self.workload} exited with {proc.returncode}"
            )
        result = {} if setup_only else json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = setup_s
        return result


def point_order(workload: str, rng: random.Random) -> list:
    keys = list(POINT_KEYS[workload])
    if workload != "figures":
        rng.shuffle(keys)
    return keys


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise BenchError(f"{REFERENCE} is missing; run --write-reference") from exc


def check_pass(reference: dict, result: dict) -> tuple:
    """Compare one pass with the reference of its workload.

    Returns (problems, number of mismatched points, max relative Xi error).
    """
    problems = []
    mismatched = 0
    max_err = 0.0
    expected = reference["points"]
    seen = set()
    for point in result["points"]:
        key = point["key"]
        seen.add(key)
        ref = expected.get(key)
        if ref is None:
            problems.append(f"{key}: point not in the reference")
            mismatched += 1
            continue
        bad = None
        if point["label"] != ref["label"]:
            bad = f"config {point['label']!r} != reference {ref['label']!r}"
        elif point["status"] != ref["status"] or point.get("error") != ref.get("error"):
            bad = (
                f"outcome {point['status']}/{point.get('error')} != reference "
                f"{ref['status']}/{ref.get('error')}"
            )
        elif point["status"] == "ok":
            scale = abs(ref["xi"]) or 1.0
            err = abs(point["xi"] - ref["xi"]) / scale
            max_err = max(max_err, err)
            if not err <= XI_REL_TOL:
                bad = f"xi {point['xi']!r} != reference {ref['xi']!r} (rel {err:.3g})"
        if bad:
            problems.append(f"{key}: {bad}")
            mismatched += 1
    for key in sorted(set(expected) - seen):
        problems.append(f"{key}: reference point not evaluated")
        mismatched += 1
    if "csv_sha256" in reference and result.get("csv_sha256") != reference["csv_sha256"]:
        problems.append(
            f"figure CSV digests {result.get('csv_sha256')} != reference "
            f"{reference['csv_sha256']}"
        )
    return problems, mismatched, max_err


def point_medians(passes: list) -> list:
    """Each point's median time over the passes."""
    per_point = {}
    for p in passes:
        for pt in p["points"]:
            per_point.setdefault(pt["key"], []).append(pt["seconds"])
    return [statistics.median(v) for v in per_point.values()]


def info_metrics(passes: list) -> dict:
    """Median and slowest point (over each point's median time), failed
    points over attempted, and the median per pass of their time."""
    attempted = sum(len(p["points"]) for p in passes)
    failed = sum(pt["status"] != "ok" for p in passes for pt in p["points"])
    failed_s = [
        sum((pt["seconds"] for pt in p["points"] if pt["status"] != "ok"), 0.0)
        for p in passes
    ]
    points = point_medians(passes)
    return {
        "point_s_p50": statistics.median(points),
        "point_s_max": max(points),
        "failed_fraction": failed / attempted,
        "failed_point_s": statistics.median(failed_s),
    }


def end_to_end_metrics(passes: list, setup_samples: list) -> dict:
    """Median set-up time over fresh processes; medians over passes."""
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Medians over traced passes, plus traced minus untraced median wall time."""
    names = traced[0]["layers"]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    reference = load_reference()[workload]
    start = time.monotonic()
    runner = Runner(workload, start + RUN_TIMEOUT_S)
    rng = random.Random(seed)

    def fits(cost):
        """Whether another step costing `cost` seconds ends within the run."""
        return time.monotonic() - start + cost <= seconds

    setup_samples, passes, traced = [], [], []
    if trace:
        while True:
            pair_start = time.monotonic()
            passes.append(runner.spawn(point_order(workload, rng)))
            traced.append(runner.spawn(point_order(workload, rng), trace=1))
            if not fits(time.monotonic() - pair_start):
                break
    else:
        runner.spawn(POINT_KEYS[workload], setup_only=True)  # warm-up, not counted
        for _ in range(SETUP_SAMPLES):
            setup_samples.append(runner.spawn(POINT_KEYS[workload], setup_only=True)["setup_s"])
        while True:
            pass_start = time.monotonic()
            passes.append(runner.spawn(point_order(workload, rng)))
            setup_samples.append(passes[-1]["setup_s"])
            if not fits(time.monotonic() - pass_start):
                break

    problems, mismatched, max_err = [], 0, 0.0
    for p in passes + traced:
        pass_problems, pass_mismatched, pass_err = check_pass(reference, p)
        problems += pass_problems
        mismatched += pass_mismatched
        max_err = max(max_err, pass_err)
    info = info_metrics(passes)
    info["xi_max_rel_err"] = max_err
    if trace:
        units = tracing.UNITS
        values = layer_metrics(traced, passes)
    else:
        units = END_TO_END_UNITS
        values = end_to_end_metrics(passes, setup_samples)
    stamp = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **passes[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: worker_env()[name] for name in BLAS_THREAD_VARS},
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setup_samples),
    }
    return {
        "stamp": stamp,
        "problems": problems,
        "info": info,
        "result": {
            "correct": not problems,
            "attempted": sum(len(p["points"]) for p in passes + traced),
            "failed": mismatched,
            "metrics": {
                name: {"value": values[name], "unit": units[name]} for name in units
            },
        },
    }


def report(run: dict) -> None:
    workload = run["stamp"]["workload"]
    print("stamp " + json.dumps(run["stamp"], sort_keys=True))
    for name, metric in run["result"]["metrics"].items():
        print(f"{workload:<13} {name:<36} {metric['value']!r} {metric['unit']}")
    for name, value in run["info"].items():
        print(f"{workload:<13} {name:<36} {value!r} {INFO_UNITS[name]}")
    for problem in run["problems"]:
        print(f"{workload:<13} MISMATCH {problem}")


def write_reference() -> None:
    reference = {}
    for workload in WORKLOADS:
        runner = Runner(workload, time.monotonic() + RUN_TIMEOUT_S)
        result = runner.spawn(POINT_KEYS[workload])
        points = {}
        for pt in result["points"]:
            entry = {"label": pt["label"], "status": pt["status"]}
            if pt["status"] == "ok":
                entry["xi"] = pt["xi"]
            else:
                entry["error"] = pt["error"]
            points[pt["key"]] = entry
        reference[workload] = {"points": points}
        if "csv_sha256" in result:
            reference[workload]["csv_sha256"] = result["csv_sha256"]
        print(f"{workload}: {len(points)} points recorded", file=sys.stderr)
    reference["recorded_with"] = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **result["versions"],
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no casimir_spectral sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if args.write_reference:
            write_reference()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for workload in workloads:
            run = run_workload(workload, args.seed, args.seconds, args.trace)
            report(run)
            print(json.dumps(run["result"]), flush=True)
            ok = ok and run["result"]["correct"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
