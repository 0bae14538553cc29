import os
import sys
from pathlib import Path

import pytest

from posetderiv import fixtures as fx

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Hypothesis caches the literals of local modules under its storage
# directory even with database=None.  Pointing that directory at the null
# device makes those writes fail quietly, so a run leaves no .hypothesis/.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def rp2():
    return fx.rp2()


@pytest.fixture
def diamond():
    return fx.diamond()


@pytest.fixture
def s5():
    return fx.s5()


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace ProcessPoolExecutor with a context manager that runs every
    task in this process, so no worker starts.  Returns the pools made, in
    order; each keeps the ``max_workers`` it was asked for and the
    ``items`` it was handed."""
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.items = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, items):
            self.items += items
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return pools
