import pathlib
import re
import subprocess
import sys

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
