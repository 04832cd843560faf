"""The benchmark's traced pass wraps package attributes by name
(perfbench/tracing.py).  A rename in the package breaks only that pass, so
this guard installs the whole trace map on a fresh import."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
from casimir_spectral import energy, errors, spectral
tracer = tracing.Tracer()
tracing.install_core(tracer, spectral, energy, errors)
from casimir_spectral import cli
tracing.install_cli(tracer, cli)
"""


def test_trace_map_matches_package():
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
