"""Shared fixtures: small synthetic scenes the suite reuses."""

import numpy as np
import pytest

from rfclutter import rxsim, workers
from rfclutter.terrain import ClassGrid, ElevationGrid
from rfclutter.scattering import GRASS


def ridge_heights(n: int, cell: float, crest: float = 80.0) -> np.ndarray:
    """An east-west ridge through the middle of an n x n grid."""
    y = (np.arange(n) + 0.5) * cell
    mid = n * cell / 2.0
    profile = crest * np.exp(-((y - mid) / (n * cell / 10.0)) ** 2)
    return np.tile(profile[:, None], (1, n))


@pytest.fixture
def ridge_dem() -> ElevationGrid:
    return ElevationGrid(heights=ridge_heights(64, 10.0), cell_size=10.0)


@pytest.fixture
def flat_dem() -> ElevationGrid:
    return ElevationGrid(heights=np.zeros((32, 32)), cell_size=10.0)


@pytest.fixture
def grass_cover() -> ClassGrid:
    return ClassGrid(classes=np.full((32, 32), GRASS, dtype=np.int64),
                     cell_size=10.0)


@pytest.fixture
def set_worker_count(monkeypatch):
    """`set_worker_count(w)` makes pooled work split w ways.  The
    shared pool is built first, so it keeps this machine's size."""
    def set_count(count: int) -> None:
        workers.pool()
        monkeypatch.setattr(workers, "cpu_count", lambda: count)
    return set_count


@pytest.fixture(autouse=True)
def nothing_kept_for_replay(monkeypatch):
    """Every test starts with no receiver noise or window transforms
    kept from an earlier test's requests, so whether a request draws or
    transforms does not depend on the test order."""
    monkeypatch.setattr(rxsim, "_noise", (None, None))
    monkeypatch.setattr(rxsim, "_transforms", (None, None))
