import os
import pathlib

import pytest
from hypothesis import settings

from casimir_spectral import spectral

ROOT = pathlib.Path(__file__).resolve().parents[1]

# HYPOTHESIS_PROFILE=deep runs every property test that reads its example
# count from the active profile at ten times the default's 100
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def fresh_spectral_state():
    """Every test starts from empty spectral caches, and a test that leaves
    a sweep's coupling blocks or weighted Ferrers tables behind fails at
    its own teardown."""
    spectral._held = None
    spectral._quad_nodes.cache_clear()
    yield
    leaked = dict(spectral._shared_D), spectral._shared_weighted
    spectral._shared_D.clear()  # reported once, by the test that leaked
    spectral._shared_weighted = None
    assert leaked == ({}, None)


@pytest.fixture
def src_env():
    """Environment of a child Python process that imports this checkout's src/."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
