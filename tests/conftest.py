import json
from pathlib import Path

import numpy as np
import pytest

from epiview.geometry import CameraIntrinsics
from epiview.scenegen import make_scene, make_trajectory, render

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def frozen():
    """Thresholds recorded by the oracle runs (regenerate with scripts/refresh_frozen.py)."""
    return json.loads((DATA / "frozen.json").read_text())


@pytest.fixture(scope="session")
def intrinsics32():
    return CameraIntrinsics.from_fov(32, 32)


@pytest.fixture(scope="session")
def distinctive_fixture(intrinsics32):
    """The canonical distinctive-texture fixture: scene seed 0, free16
    trajectory seed 100."""
    scene = make_scene(0, "distinctive")
    cams = make_trajectory("free16", 100)
    views = [render(scene, c, intrinsics32) for c in cams]
    return scene, cams, views


@pytest.fixture(scope="session")
def plain_fixture(intrinsics32):
    scene = make_scene(3, "plain")
    cams = make_trajectory("fixed16", 0)
    views = [render(scene, c, intrinsics32) for c in cams[:6]]
    return scene, cams[:6], views


def rng_of(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
