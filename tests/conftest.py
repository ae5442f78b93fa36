"""Shared fixtures and frame-building helpers."""

import numpy as np
import pytest
from hypothesis import settings

from sensorplace.skeleton import MERGE_SOURCES, NUM_KEYPOINTS, WindowSets

# Series-level property tests build real arrays per example; keep deadlines
# off so a slow example on a loaded machine cannot flake a run. Examples are
# drawn from a fixed seed, and no example database is read or written, so a
# run's result depends on the tree alone.
settings.register_profile("sensorplace", deadline=None, derandomize=True, database=None)
settings.load_profile("sensorplace")


def make_keypoints(xy=None, conf=1.0, seed=None):
    """One frame's (17, 3) keypoint row with given or random coordinates.

    ``xy`` may be a (17, 2) array; ``conf`` a scalar or (17,) array.
    """
    if xy is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        xy = rng.uniform(0.1, 0.9, size=(NUM_KEYPOINTS, 2))
    kps = np.empty((NUM_KEYPOINTS, 3), dtype=np.float64)
    kps[:, :2] = np.asarray(xy, dtype=np.float64)
    kps[:, 2] = conf
    return kps


def make_windows(arrays, sites):
    """One window set whose activities ``a0``, ``a1``, ... have the
    (sites, frames, 2) points of ``arrays``, in order."""
    arrays = np.asarray(arrays, dtype=np.float64)
    return WindowSets(tuple(f"a{i}" for i in range(len(arrays))), tuple(sites), arrays[None])


@pytest.fixture
def raw_walk():
    """``(t, kp)`` of 60 frames at 10 Hz with every keypoint drifting
    smoothly."""
    rng = np.random.default_rng(42)
    base = rng.uniform(0.2, 0.8, size=(NUM_KEYPOINTS, 2))
    kp = np.stack([
        make_keypoints(xy=base + 0.01 * np.sin(0.3 * i + np.arange(NUM_KEYPOINTS))[:, None])
        for i in range(60)
    ])
    return np.arange(60) / 10.0, kp


@pytest.fixture
def merge_site_count():
    return len(MERGE_SOURCES)
