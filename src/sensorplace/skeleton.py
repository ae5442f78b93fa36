"""Pose data model and skeleton preprocessing.

A raw recording is two arrays: timestamps ``t[n]`` and keypoints
``kp[n, 17, 3]``, the 17 COCO keypoints (nose, eyes, ears, shoulders,
elbows, wrists, hips, knees, ankles) of each 2D pose-estimator frame as x,
y and confidence. Preprocessing works on all frames at once. It
consolidates them to 12 placement sites (the five facial keypoints merge
into one head point, the two hips into one pelvis point), translates each
frame so the centroid of its valid points sits at (0.5, 0.5), selects the
configured placement roster, repairs short gaps by linear interpolation,
optionally decimates to a target sample rate, and cuts every activity to
one uniform length.

Gaps are counted on the uniform grid of the recording's rate (the inverse
of its median timestamp spacing). A spacing above 1.5 periods is a
timestamp hole of ``round(dt / period) - 1`` frames with no valid point,
so a single dropped frame is interpolated and a hole longer than
``max_gap`` frames is an error, like any other gap. A spacing of half a
period or less is an error too (``RateMismatchError``, naming the later
frame by index and timestamp): such a frame has no slot of its own, and
counting it as a whole period would stretch the motion in time.

Coordinates are normalized image coordinates; values outside [0, 1] are
legal (estimators can emit slightly out-of-frame points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMissingSiteError,
    EmptyEnvelopeError,
    EmptyFrameError,
    GapTooLongError,
    RateMismatchError,
    TooShortError,
)
from .sites import _SITE_INDEX, DEFAULT_ROSTER, SITE_ORDER, check_roster

# COCO-17 keypoint indices
NOSE = 0
LEFT_EYE = 1
RIGHT_EYE = 2
LEFT_EAR = 3
RIGHT_EAR = 4
LEFT_SHOULDER = 5
RIGHT_SHOULDER = 6
LEFT_ELBOW = 7
RIGHT_ELBOW = 8
LEFT_WRIST = 9
RIGHT_WRIST = 10
LEFT_HIP = 11
RIGHT_HIP = 12
LEFT_KNEE = 13
RIGHT_KNEE = 14
LEFT_ANKLE = 15
RIGHT_ANKLE = 16

NUM_KEYPOINTS = 17

# Keypoints averaged into each site. Head and pelvis are consolidations;
# every other site passes a single keypoint through.
MERGE_SOURCES = {
    "LW": (LEFT_WRIST,),
    "RW": (RIGHT_WRIST,),
    "PE": (LEFT_HIP, RIGHT_HIP),
    "LF": (LEFT_ANKLE,),
    "RF": (RIGHT_ANKLE,),
    "HD": (NOSE, LEFT_EYE, RIGHT_EYE, LEFT_EAR, RIGHT_EAR),
    "LE": (LEFT_ELBOW,),
    "LK": (LEFT_KNEE,),
    "LS": (LEFT_SHOULDER,),
    "RE": (RIGHT_ELBOW,),
    "RK": (RIGHT_KNEE,),
    "RS": (RIGHT_SHOULDER,),
}

# The one site each COCO keypoint feeds, by keypoint index.
KEYPOINT_SITE = tuple(
    next(site for site in SITE_ORDER if k in MERGE_SOURCES[site]) for k in range(NUM_KEYPOINTS)
)

# Centroid offsets at or below this are treated as zero, making
# centralization an exact projection (idempotent to the bit).
_CENTER_SNAP = 1e-12

_CENTER = 0.5

# Timestamp spacings, in periods, at or below this are an error. The margin
# above 0.5 keeps a spacing of exactly half a period, such as 20 Hz frames
# in a 10 Hz file, on the error side of float rounding.
_HALF_PERIOD = 0.5 + 1e-6

# Relative distance from an integer multiple within which an input rate is
# accepted as that multiple of the target rate.
_RATE_TOLERANCE = 0.01


@dataclass(frozen=True)
class SkeletonSeries:
    """Gap-free, uniform-length 2D trajectories for one activity.

    ``points`` is (n_sites, length, 2); every site has the same number of
    frames and no missing samples.
    """

    activity_id: str
    sites: tuple[str, ...]
    points: np.ndarray
    sample_rate: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        sites = tuple(self.sites)
        if pts.ndim != 3 or pts.shape[0] != len(sites) or pts.shape[2] != 2:
            raise ValueError(f"expected (n_sites, length, 2) points, got {pts.shape}")
        if pts.shape[1] < 1:
            raise ValueError("series must contain at least one frame")
        if not np.all(np.isfinite(pts)):
            raise ValueError("series contains non-finite points")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sites", sites)

    @property
    def length(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ActivitySet:
    """Two or more skeleton series sharing one site roster and length."""

    activities: tuple[SkeletonSeries, ...]

    def __post_init__(self):
        acts = tuple(self.activities)
        if len(acts) < 2:
            raise ValueError("an activity set needs at least two activities")
        ids = [a.activity_id for a in acts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate activity ids: {ids}")
        first = acts[0]
        for a in acts[1:]:
            if a.sites != first.sites:
                raise ValueError(
                    f"site roster mismatch: {a.activity_id!r} has {a.sites}, "
                    f"{first.activity_id!r} has {first.sites}"
                )
            if a.length != first.length:
                raise ValueError(
                    f"length mismatch: {a.activity_id!r} has {a.length} frames, "
                    f"{first.activity_id!r} has {first.length}"
                )
        object.__setattr__(self, "activities", acts)

    @property
    def sites(self) -> tuple[str, ...]:
        return self.activities[0].sites

    @property
    def length(self) -> int:
        return self.activities[0].length

    def __len__(self) -> int:
        return len(self.activities)


def merge_keypoints(kp: np.ndarray, confidence_threshold: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Consolidate 17 COCO keypoints into the 12 placement sites, for all
    frames at once.

    ``kp`` is (n, 17, 3). Returns ``(points, valid)`` of shapes (n, 12, 2)
    and (n, 12) in canonical site order. Head is the unweighted mean of the
    facial keypoints (nose, eyes, ears) that meet the confidence threshold;
    pelvis likewise averages the hips. Single-source sites are copied
    through when confident. A site whose sources all fall below the
    threshold is marked missing (its point is zero), never raised.

    Each keypoint is added into its site's total in ascending keypoint
    order, starting from 0.0, so a site's sum is the one a ``mean`` over
    just its confident keypoints computes (and a -0.0 coordinate becomes
    +0.0).
    """
    kp = np.asarray(kp, dtype=np.float64)
    confident = kp[:, :, 2] >= confidence_threshold
    total = np.zeros((len(kp), len(SITE_ORDER), 2))
    count = np.zeros((len(kp), len(SITE_ORDER)), dtype=np.int64)
    for k, site in enumerate(KEYPOINT_SITE):
        s = _SITE_INDEX[site]
        total[:, s] += np.where(confident[:, k, None], kp[:, k, :2], 0.0)
        count[:, s] += confident[:, k]
    valid = count > 0
    mean = np.divide(total, count[..., None], out=np.zeros_like(total), where=valid[..., None])
    return mean, valid


def centralize(points: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Translate each frame's valid points so their centroid lands on
    (0.5, 0.5).

    ``points`` is (n, sites, 2) and ``valid`` (n, sites). One rigid offset
    per frame is applied, preserving relative geometry; missing points stay
    as they are. Offsets at or below 1e-12 per coordinate snap to zero so
    repeated centralization is exactly idempotent. Raises when a frame has
    no valid point.
    """
    # valid points are added one at a time in ascending site order, the
    # order a mean over just those points uses; numpy's own reductions may
    # sum pairwise and round differently
    total = np.zeros((len(points), 2))
    for s in range(points.shape[1]):
        total += np.where(valid[:, s, None], points[:, s], 0.0)
    count = valid.sum(axis=1)
    if not count.all():
        raise EmptyFrameError("cannot centralize a frame with no valid points")
    offset = total / count[:, None] - _CENTER
    offset[np.abs(offset).max(axis=1) <= _CENTER_SNAP] = 0.0
    return np.where(valid[..., None], points - offset[:, None, :], points)


def select_sites(roster, allow_head: bool = False) -> np.ndarray:
    """Rows of ``roster``'s sites in the canonical 12-site order, in roster
    order.

    The head site is excluded from placement unless ``allow_head`` is set.
    """
    roster = check_roster(roster, allow_head)
    return np.array([_SITE_INDEX[site] for site in roster], dtype=np.intp)


def repair_gaps(
    points: np.ndarray,
    valid: np.ndarray,
    max_gap: int = 10,
    sites: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Fill interior missing samples by per-coordinate linear interpolation.

    Parameters
    ----------
    points : (n_sites, n_frames, 2) array
        Per-site trajectories; entries at invalid positions are ignored.
    valid : (n_sites, n_frames) bool array
        Which samples are known.
    max_gap : int
        Longest run of consecutive missing frames that may be filled.
    sites : optional site ids used in error messages.

    The series is first trimmed to the envelope bounded by the first and
    last frames where every site is valid, so each remaining gap has valid
    neighbors on both sides; interior gaps longer than ``max_gap`` raise,
    reporting the offending site and frame span. Valid samples are never
    altered.
    """
    points = np.asarray(points, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if valid.ndim != 2 or valid.size == 0:
        raise ValueError("expected a non-empty (n_sites, n_frames) validity mask")
    n_sites, n_frames = valid.shape
    labels = tuple(sites) if sites is not None else tuple(str(i) for i in range(n_sites))

    for s in range(n_sites):
        if not valid[s].any():
            raise AllMissingSiteError(f"site {labels[s]} has no valid sample")
    all_valid = np.flatnonzero(valid.all(axis=0))
    if all_valid.size == 0:
        raise EmptyEnvelopeError("no frame has every site valid")
    lo, hi = int(all_valid[0]), int(all_valid[-1])

    out = points[:, lo : hi + 1].copy()
    mask = valid[:, lo : hi + 1]
    for s in range(n_sites):
        missing = ~mask[s]
        if not missing.any():
            continue
        # Endpoint frames are valid for every site, so missing runs are
        # interior and transition edges pair up as (start, end).
        edges = np.flatnonzero(np.diff(missing.astype(np.int8)))
        run_starts = edges[::2] + 1
        run_ends = edges[1::2] + 1
        for a, b in zip(run_starts, run_ends):
            if b - a > max_gap:
                raise GapTooLongError(labels[s], int(lo + a), int(lo + b))
            left = out[s, a - 1]
            right = out[s, b]
            steps = b - a + 1
            out[s, a:b] = left + (right - left) * (np.arange(1, steps) / steps)[:, None]
    return out


def truncate_series(series: SkeletonSeries, length: int = 500, mode: str = "first") -> SkeletonSeries:
    """Cut a series to a uniform length.

    ``mode="first"`` keeps the first ``length`` frames; ``mode="uniform"``
    keeps ``length`` evenly spaced frames across the whole recording.
    Raises when the series is shorter than ``length``.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if series.length < length:
        raise TooShortError(series.length, length)
    if series.length == length:
        return series
    if mode == "first":
        pts = series.points[:, :length]
    elif mode == "uniform":
        idx = (np.arange(length, dtype=np.int64) * series.length) // length
        pts = series.points[:, idx]
    else:
        raise ValueError(f"unknown truncation mode {mode!r}")
    return SkeletonSeries(
        activity_id=series.activity_id,
        sites=series.sites,
        points=pts.copy(),
        sample_rate=series.sample_rate,
    )


def infer_sample_rate(timestamps) -> float:
    """Nominal sample rate from the median timestamp spacing."""
    t = np.asarray(timestamps, dtype=np.float64)
    if t.size < 2:
        raise RateMismatchError("need at least two timestamps to infer a rate")
    dt = np.median(np.diff(t))
    if dt <= 0:
        raise RateMismatchError("non-positive timestamp spacing")
    return 1.0 / float(dt)


def decimation_stride(input_rate: float, target_rate: float) -> int:
    """Integer stride mapping ``input_rate`` onto ``target_rate``.

    Rates within ``_RATE_TOLERANCE`` (relative) of an integer multiple are
    accepted; anything else is rejected rather than resampled, including
    recordings slower than the target and rates whose ratio is not finite.
    """
    if target_rate <= 0:
        raise RateMismatchError("target rate must be positive")
    ratio = input_rate / target_rate
    if not np.isfinite(ratio):
        raise RateMismatchError(
            f"input rate {input_rate:.6g} Hz over the target rate {target_rate:.6g} Hz "
            "is not a finite ratio"
        )
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > _RATE_TOLERANCE * ratio:
        raise RateMismatchError(
            f"input rate {input_rate:.6g} Hz is not an integer multiple of "
            f"the target rate {target_rate:.6g} Hz"
        )
    return stride


def _slot_grid(t: np.ndarray, rate: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot of each frame on the uniform grid at ``rate``.

    A spacing above 1.5 periods is a timestamp hole: it leaves
    ``round(dt / period) - 1`` empty slots. A spacing of half a period or
    less raises, naming the later frame. Returns ``(slots, true_slots)``;
    ``slots`` gives each hole at most ``cap`` empty slots, so a corrupt
    timestamp cannot allocate a huge grid, and ``true_slots`` keeps the
    full counts for error messages.
    """
    steps = np.diff(t) * rate
    crowded = np.flatnonzero(steps <= _HALF_PERIOD)
    if crowded.size:
        k = int(crowded[0]) + 1
        raise RateMismatchError(
            f"frame {k} (t={float(t[k])!r}) is {steps[k - 1]:.3g} periods after frame {k - 1}; "
            f"a spacing of half a period or less does not fit the {rate:.6g} Hz grid"
        )
    steps = np.where(steps > 1.5, np.rint(steps), 1.0)
    true_slots = np.concatenate(([0.0], np.cumsum(steps)))
    slots = np.concatenate(([0.0], np.cumsum(np.minimum(steps, cap + 1))))
    return slots.astype(np.int64), true_slots


def preprocess_recording(
    t,
    kp,
    activity_id: str,
    roster=DEFAULT_ROSTER,
    target_rate: float = 10.0,
    confidence_threshold: float = 0.3,
    max_gap: int = 10,
    allow_head: bool = False,
) -> SkeletonSeries:
    """Run the full preprocessing pipeline over one recording.

    ``t`` (n,) and ``kp`` (n, 17, 3) are the arrays
    ``io.parse_keypoint_file`` returns. Steps: consolidate keypoints to
    sites, centralize each frame's valid skeleton, select the roster sites,
    place the frames on the grid of the inferred rate (a timestamp hole
    becomes frames with no valid point), repair gaps (at the native rate)
    and decimate to the target rate. ``truncate_series`` cuts the result to
    a window length.
    """
    t = np.asarray(t, dtype=np.float64)
    if len(t) < 2:
        raise TooShortError(len(t), 2)
    roster = tuple(roster)
    rows = select_sites(roster, allow_head=allow_head)

    points, valid = merge_keypoints(kp, confidence_threshold)
    seen = valid.any(axis=1)  # frames with no valid point stay missing for every site
    points[seen] = centralize(points[seen], valid[seen])

    input_rate = infer_sample_rate(t)
    slots, true_slots = _slot_grid(t, input_rate, max_gap + 1)
    pts = np.zeros((len(roster), slots[-1] + 1, 2), dtype=np.float64)
    ok = np.zeros((len(roster), slots[-1] + 1), dtype=bool)
    pts[:, slots] = points[:, rows].transpose(1, 0, 2)
    ok[:, slots] = valid[:, rows].T
    try:
        repaired = repair_gaps(pts, ok, max_gap=max_gap, sites=roster)
    except GapTooLongError as exc:
        # report the span on the grid with every hole at its full length
        def uncapped(slot):
            j = np.searchsorted(slots, slot, side="right") - 1
            return int(true_slots[j]) + slot - int(slots[j])
        raise GapTooLongError(exc.site, uncapped(exc.start), uncapped(exc.end)) from None

    stride = decimation_stride(input_rate, target_rate)
    if stride > 1:
        repaired = repaired[:, ::stride]

    return SkeletonSeries(
        activity_id=activity_id,
        sites=roster,
        points=repaired,
        sample_rate=target_rate,
    )
