"""Shared fixtures.

The expensive fixture is ``demo_system``: a fully loaded QBISM instance at
32^3 scale (3 PET + 1 MRI studies, three band encodings), built once per
session and reused by the integration tests.

Every test also gets a deterministic RNG seed derived from its node id
(the autouse ``_deterministic_rng`` fixture): the global ``random`` and
``numpy.random`` states are seeded per test, so randomized suites are
reproducible and order-independent.  When a test fails, the report grows
an ``rng`` section printing the seed needed to replay it; fault-injection
tests additionally take the ``test_seed`` fixture to key their
:class:`~repro.storage.faults.FaultSchedule`.

The lockdep witness is on for the whole run: it is enabled below, before
any ``repro`` object exists, so every instrumented lock (module-level
ones included) is tracked, and one lock-order graph spans every test.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from repro.concurrency import lockdep

lockdep.enable()

from repro.core import QbismSystem  # noqa: E402
from repro.curves import GridSpec  # noqa: E402
from repro.regions import Region  # noqa: E402


def ball(grid: GridSpec, center: tuple[float, ...], radius: float) -> Region:
    """The voxels within ``radius`` of ``center`` (voxel units), as a REGION."""
    mesh = np.meshgrid(*(np.arange(side) for side in grid.shape), indexing="ij", sparse=True)
    squared = sum((axis - c) ** 2 for axis, c in zip(mesh, center))
    return Region.from_mask(squared <= radius * radius, grid)


def _seed_for(nodeid: str) -> int:
    """A stable per-test seed: a CRC of the pytest node id."""
    return zlib.crc32(nodeid.encode("utf-8")) & 0xFFFFFFFF


@pytest.fixture(autouse=True)
def _deterministic_rng(request):
    """Pin the global RNG state per test for reproducible randomness."""
    seed = _seed_for(request.node.nodeid)
    request.node._repro_seed = seed
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)
    return seed


@pytest.fixture
def test_seed(_deterministic_rng) -> int:
    """The test's pinned seed, for keying explicit fault schedules."""
    return _deterministic_rng


@pytest.fixture(autouse=True)
def _lockdep_witness():
    """Fail any test whose locking leaves a new lockdep violation behind.

    An edge one test records stays in the graph, so an ABBA whose two
    legs run in different tests fails the test that runs the second.
    Tests that deliberately provoke violations (``test_lockdep.py``) run
    on a graph of their own, so they pass this check too: only
    *unexpected* violations — an ordering bug in the code under test,
    observed by the instrumented locks — fail the run.
    """
    before = len(lockdep.violations())
    yield
    fresh = lockdep.violations()[before:]
    assert not fresh, (
        "lockdep recorded lock-order violations during this test:\n"
        + "\n".join(f"  {v}" for v in fresh)
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    seed = getattr(item, "_repro_seed", None)
    if report.when == "call" and report.failed and seed is not None:
        report.sections.append(
            (
                "rng",
                f"per-test seed {seed} (derived from node id {item.nodeid!r}); "
                f"fault schedules built from the test_seed fixture replay with "
                f"this value",
            )
        )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260704)


@pytest.fixture
def grid3() -> GridSpec:
    """A small 3-D grid most region/volume tests run on."""
    return GridSpec((16, 16, 16))


@pytest.fixture
def grid2() -> GridSpec:
    return GridSpec((8, 8))


@pytest.fixture
def sphere_region(grid3) -> Region:
    return ball(grid3, (8, 8, 8), 5.0)


@pytest.fixture
def blob_region(grid3) -> Region:
    """An irregular region: union of two spheres minus a third."""
    a = ball(grid3, (6, 6, 8), 4.0)
    b = ball(grid3, (10, 10, 8), 4.0)
    c = ball(grid3, (8, 8, 8), 2.0)
    return a.union(b).difference(c)


@pytest.fixture(scope="session")
def demo_system() -> QbismSystem:
    return QbismSystem.build_demo(
        seed=1994,
        grid_side=32,
        n_pet=3,
        n_mri=1,
        band_encodings=("hilbert-naive", "z-naive", "octant"),
    )


# The paper's Figure 3 example: a 4x4 grid with 7 shaded cells whose
# z-runs are <1,1> <4,7> <12,13> and whose single h-run is <3,9>.
PAPER_FIGURE3_CELLS = np.array(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)], dtype=np.int64
)


@pytest.fixture
def figure3_cells() -> np.ndarray:
    return PAPER_FIGURE3_CELLS.copy()
