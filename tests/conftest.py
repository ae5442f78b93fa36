"""Shared fixtures and frame-building helpers."""

import numpy as np
import pytest
from hypothesis import settings

from sensorplace.skeleton import MERGE_SOURCES, NUM_KEYPOINTS, RawPoseFrame, SITE_ORDER
from sensorplace.skeleton import SkeletonSeries

# Series-level property tests build real arrays per example; keep deadlines
# off so a slow example on a loaded machine cannot flake a run.
settings.register_profile("sensorplace", deadline=None)
settings.load_profile("sensorplace")


def make_raw_frame(t=0.0, xy=None, conf=1.0, seed=None):
    """A RawPoseFrame with given or random keypoint coordinates.

    ``xy`` may be a (17, 2) array; ``conf`` a scalar or (17,) array.
    """
    if xy is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        xy = rng.uniform(0.1, 0.9, size=(NUM_KEYPOINTS, 2))
    kps = np.empty((NUM_KEYPOINTS, 3), dtype=np.float64)
    kps[:, :2] = np.asarray(xy, dtype=np.float64)
    kps[:, 2] = conf
    return RawPoseFrame(t=float(t), keypoints=kps)


def make_series(activity_id, points, sites=None, sample_rate=10.0):
    points = np.asarray(points, dtype=np.float64)
    if sites is None:
        sites = SITE_ORDER[: points.shape[0]]
    return SkeletonSeries(
        activity_id=activity_id,
        sites=tuple(sites),
        points=points,
        sample_rate=sample_rate,
    )


@pytest.fixture
def raw_walk_frames():
    """60 frames at 10 Hz with every keypoint drifting smoothly."""
    frames = []
    rng = np.random.default_rng(42)
    base = rng.uniform(0.2, 0.8, size=(NUM_KEYPOINTS, 2))
    for i in range(60):
        wobble = 0.01 * np.sin(0.3 * i + np.arange(NUM_KEYPOINTS))[:, None]
        frames.append(make_raw_frame(t=i / 10.0, xy=base + wobble))
    return frames


@pytest.fixture
def merge_site_count():
    return len(MERGE_SOURCES)
