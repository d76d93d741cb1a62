import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from harmonic_atlas import catalog_build, default_grid


@pytest.fixture(scope="session")
def catalog():
    return catalog_build()


@pytest.fixture(scope="session")
def grid():
    return default_grid()


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


@pytest.fixture
def refuse_numpy(monkeypatch):
    """refuse_numpy(module) replaces the module's ``np`` with a stub that
    raises on any attribute, for a route that must take no float step."""
    return lambda module: monkeypatch.setattr(module, "np", _NoNumpy())
