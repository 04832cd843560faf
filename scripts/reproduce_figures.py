#!/usr/bin/env python3
"""Regenerate all four figure-scenario CSV bundles into an output directory.

Usage: python scripts/reproduce_figures.py [outdir]
"""

import pathlib
import shutil
import sys
import tempfile

from casimir_spectral.cli import main

CONFIGS = {
    "fig1": "sweep.z_over_rmin = 0.2:20:25\n",
    "fig2": "sweep.z_over_rmin = 0.3:5:13\n",
    "fig3": "sweep.aspect_ratio = 0.4:2.5:11\n",
    "fig4": "sweep.z_over_rmin = 0.3:5:13\n",
}


def run(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, config_text in CONFIGS.items():
            config_path = pathlib.Path(tmp) / f"{scenario}.cfg"
            config_path.write_text(config_text, encoding="utf-8")
            # a scenario writes into a directory of its own, so the report
            # names the files it wrote: fig1 writes one per substrate
            written = pathlib.Path(tmp) / scenario
            written.mkdir()
            output = written / f"{scenario}.csv"
            code = main([scenario, "--config", str(config_path), "--output", str(output)])
            if code != 0:
                print(f"{scenario}: exit {code}", file=sys.stderr)
                return code
            for path in sorted(written.iterdir()):
                print(f"{scenario}: wrote {shutil.move(path, outdir / path.name)}")
    return 0


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("figures")
    raise SystemExit(run(target))
