import pathlib
import re
import subprocess
import sys

import casimir_spectral
from casimir_spectral import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(src_env, tmp_path):
    # the README's Library example runs as written, so it names no API
    # that is gone
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_config_keys_and_scenarios_match_cli():
    # README's CLI section lists every config key and scenario the CLI
    # accepts, and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([a-z_.]+)` \|", cli_section, flags=re.M)
    assert sorted(keys) == sorted(cli._KEYS)
    (listed,) = re.findall(r"^Scenarios: (.*?)\.$", cli_section, flags=re.M | re.S)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(cli.SCENARIOS)


def test_readme_lists_every_exported_name():
    # README's Library section lists the package's public names, one a
    # line in the order of __all__, and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)`:", library, flags=re.M)
    assert names == casimir_spectral.__all__
