import os
import pathlib

import pytest
from hypothesis import settings

ROOT = pathlib.Path(__file__).resolve().parents[1]

# HYPOTHESIS_PROFILE=deep runs every property test that reads its example
# count from the active profile at ten times the default's 100
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def src_env():
    """Environment of a child Python process that imports this checkout's src/."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
