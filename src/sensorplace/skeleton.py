"""Pose data model and skeleton preprocessing.

A raw recording is two arrays: timestamps ``t[n]`` and keypoints
``kp[n, 17, 3]``, the 17 COCO keypoints (nose, eyes, ears, shoulders,
elbows, wrists, hips, knees, ankles) of each 2D pose-estimator frame as x,
y and confidence. Preprocessing works on all frames at once. It
consolidates them to 12 placement sites (the five facial keypoints merge
into one head point, the two hips into one pelvis point), translates each
frame so the centroid of its valid points sits at (0.5, 0.5), selects the
configured placement roster, repairs short gaps by linear interpolation,
and optionally decimates to a target sample rate. Site selection and gap
repair have no public step of their own: they run inside
``preprocess_recording``, which checks the roster and ``max_gap`` once.
``run`` then cuts the preprocessed recordings into the windows of one
``WindowSets`` array.

Gaps are counted on the uniform grid of the recording's rate (the inverse
of its median timestamp spacing). A spacing above 1.5 periods is a
timestamp hole of ``round(dt / period) - 1`` frames with no valid point,
so a single dropped frame is interpolated and a hole longer than
``max_gap`` frames is an error, like any other gap. A spacing of half a
period or less is an error too (a ``DataError``, naming the later
frame by index and timestamp): such a frame has no slot of its own, and
counting it as a whole period would stretch the motion in time.

Coordinates are normalized image coordinates; values outside [0, 1] are
legal (estimators can emit slightly out-of-frame points).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ComputationError, DataError, GapTooLongError
from .sites import (_SITE_INDEX, DEFAULT_ROSTER, DEFAULTS, SITE_ORDER, check_allow_head, check_gap,
                    check_head, check_rate, check_roster, check_threshold)

NUM_KEYPOINTS = 17

# COCO-17 keypoint indices, in order
(NOSE, LEFT_EYE, RIGHT_EYE, LEFT_EAR, RIGHT_EAR, LEFT_SHOULDER, RIGHT_SHOULDER,
 LEFT_ELBOW, RIGHT_ELBOW, LEFT_WRIST, RIGHT_WRIST, LEFT_HIP, RIGHT_HIP,
 LEFT_KNEE, RIGHT_KNEE, LEFT_ANKLE, RIGHT_ANKLE) = range(NUM_KEYPOINTS)

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


class SkeletonSeries(NamedTuple):
    """One activity's gap-free trajectories: ``points`` is float64 of shape
    (sites, frames, 2), its sites in the order of ``sites``. The record
    checks nothing: ``preprocess_recording`` and ``synth.generate_activity``
    make finite points of at least one frame, and ``synth.series_to_frames``
    checks a series a caller builds."""

    sites: tuple[str, ...]
    points: np.ndarray


class WindowSets(NamedTuple):
    """The windows a ranking scores. ``points`` is float64 of shape (window
    sets, activities, sites, frames, 2): ``points[w, a]`` is activity
    ``ids[a]``'s window in set w, its sites in the order of ``sites``."""

    ids: tuple[str, ...]
    sites: tuple[str, ...]
    points: np.ndarray


def merge_keypoints(
    kp: np.ndarray, confidence_threshold: float = DEFAULTS["confidence_threshold"]
) -> tuple[np.ndarray, np.ndarray]:
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
    if kp.ndim != 3 or kp.shape[1:] != (NUM_KEYPOINTS, 3):
        raise ValueError(f"expected (n, {NUM_KEYPOINTS}, 3) keypoints, got {kp.shape}")
    confident = kp[:, :, 2] >= check_threshold(confidence_threshold)
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
        raise DataError("cannot centralize a frame with no valid points")
    offset = total / count[:, None] - _CENTER
    offset[np.abs(offset).max(axis=1) <= _CENTER_SNAP] = 0.0
    return np.where(valid[..., None], points - offset[:, None, :], points)


def _repair_gaps(points: np.ndarray, valid: np.ndarray, max_gap: int, sites) -> np.ndarray:
    """Fill the interior missing samples of ``points`` (sites, frames, 2)
    by per-coordinate linear interpolation. ``valid`` (sites, frames) marks
    the known samples, and ``sites`` names the rows in error messages.

    The series is first trimmed to the envelope bounded by the first and
    last frames where every site is valid, so each missing sample has valid
    neighbors on both sides. The first gap longer than ``max_gap``, in site
    order and then in time, raises, reporting its site and frame span.
    Otherwise all gaps are filled in one pass. Valid samples are never
    altered.
    """
    for site, known in zip(sites, valid):
        if not known.any():
            raise DataError(f"site {site} has no valid sample")
    all_valid = np.flatnonzero(valid.all(axis=0))
    if all_valid.size == 0:
        raise DataError("no frame has every site valid")
    lo, hi = int(all_valid[0]), int(all_valid[-1])

    out = points[:, lo : hi + 1].copy()
    mask = valid[:, lo : hi + 1]
    # each sample's nearest known frame at or before it, and at or after it
    frames = np.arange(hi - lo + 1)
    before = np.maximum.accumulate(np.where(mask, frames, 0), axis=1)
    after = np.minimum.accumulate(np.where(mask, frames, hi - lo)[:, ::-1], axis=1)[:, ::-1]
    s, f = np.nonzero(~mask)  # site by site, then in time
    b, a = before[s, f], after[s, f]
    too_long = np.flatnonzero(a - b - 1 > max_gap)
    if too_long.size:
        k = too_long[0]
        raise GapTooLongError(sites[s[k]], int(lo + b[k] + 1), int(lo + a[k]))
    left, right = out[s, b], out[s, a]
    out[s, f] = left + (right - left) * ((f - b) / (a - b))[:, None]
    return out


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a non-empty 1-D float64 array, bit for bit: the
    middle value, ``(a + b) / 2`` of the two middle values for an even
    count, and nan if any value is nan. Unlike ``np.median`` it does not
    import ``numpy.ma``."""
    n = values.size
    lo, hi = (n - 1) // 2, n // 2  # one index for an odd count
    part = np.partition(values, [lo, hi, n - 1])  # nan sorts last
    if np.isnan(part[-1]):
        return part[-1]
    return part[hi] if lo == hi else (part[lo] + part[hi]) / 2


def infer_sample_rate(timestamps) -> float:
    """Nominal sample rate from the median timestamp spacing."""
    t = np.asarray(timestamps, dtype=np.float64)
    if t.size < 2:
        raise DataError("need at least two timestamps to infer a rate")
    dt = _median(np.diff(t))
    if dt <= 0:
        raise DataError("non-positive timestamp spacing")
    return 1.0 / float(dt)


def decimation_stride(input_rate: float, target_rate: float) -> int:
    """Integer stride mapping ``input_rate`` onto ``target_rate``.

    Rates within ``_RATE_TOLERANCE`` (relative) of an integer multiple are
    accepted; anything else is rejected rather than resampled, including
    recordings slower than the target and rates whose ratio is not finite.
    """
    ratio = input_rate / check_rate(target_rate)
    if not np.isfinite(ratio):
        raise DataError(
            f"input rate {input_rate:.6g} Hz over the target rate {target_rate:.6g} Hz "
            "is not a finite ratio"
        )
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > _RATE_TOLERANCE * ratio:
        raise DataError(
            f"input rate {input_rate:.6g} Hz is not an integer multiple of "
            f"the target rate {target_rate:.6g} Hz"
        )
    return stride


def _slot_grid(t: np.ndarray, rate: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot of each frame on the uniform grid at ``rate``.

    A spacing above 1.5 periods is a timestamp hole: it leaves
    ``round(dt / period) - 1`` empty slots. A spacing of half a period or
    less raises, naming the later frame, as does a frame more periods from
    the first than a float counts. Returns ``(slots, true_slots)``;
    ``slots`` gives each hole at most ``cap`` empty slots, so a corrupt
    timestamp cannot allocate a huge grid, and ``true_slots`` keeps the
    full counts for error messages.
    """
    steps = np.diff(t) * rate
    crowded = np.flatnonzero(steps <= _HALF_PERIOD)
    if crowded.size:
        k = int(crowded[0]) + 1
        raise DataError(
            f"frame {k} (t={float(t[k])!r}) is {steps[k - 1]:.3g} periods after frame {k - 1}; "
            f"a spacing of half a period or less does not fit the {rate:.6g} Hz grid"
        )
    steps = np.where(steps > 1.5, np.rint(steps), 1.0)
    true_slots = np.concatenate(([0.0], np.cumsum(steps)))
    if true_slots[-1] == np.inf:
        k = int(np.argmax(true_slots == np.inf))
        raise DataError(f"frame {k} (t={float(t[k])!r}) is too many periods from frame 0")
    slots = np.concatenate(([0.0], np.cumsum(np.minimum(steps, cap + 1))))
    return slots.astype(np.int64), true_slots


# coordinates near the float limit can overflow in the site means, the
# centroids or the interpolation, and those above about 1e154 in scoring's
# squared norms; the result's sum of squares is checked instead
@np.errstate(over="ignore", invalid="ignore")
def preprocess_recording(
    t,
    kp,
    roster=DEFAULT_ROSTER,
    target_rate: float = DEFAULTS["sample_rate"],
    confidence_threshold: float = DEFAULTS["confidence_threshold"],
    max_gap: int = DEFAULTS["max_gap"],
    allow_head: bool = DEFAULTS["allow_head"],
) -> SkeletonSeries:
    """Run the full preprocessing pipeline over one recording.

    ``t`` (n,) and ``kp`` (n, 17, 3) are the arrays ``io.parse_keypoint_file``
    returns. Steps: consolidate keypoints to sites, centralize each frame's
    valid skeleton, select the roster sites in roster order (the head site
    only with ``allow_head``), place the frames on the grid of the inferred
    rate (a timestamp hole becomes frames with no valid point), repair gaps
    (at the native rate) and decimate to the target rate, into one compact
    array that holds no native-rate frames. Returns
    ``SkeletonSeries(tuple(roster), points)``.

    A site with no valid sample, a recording with no frame where every site
    is valid and a gap longer than ``max_gap`` frames raise DataError; a
    gap's span counts every frame of a timestamp hole. Coordinates too
    large to square and sum raise ComputationError, so the points are
    finite.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.shape != np.shape(kp)[:1]:
        raise ValueError(f"expected {np.shape(kp)[:1]} timestamps, one per frame, got {t.shape}")
    if len(t) < 2:
        raise DataError(f"series has {len(t)} frames, needs at least 2")
    check_head(check_roster(roster), check_allow_head(allow_head))
    rows = [_SITE_INDEX[site] for site in roster]  # in roster order

    points, valid = merge_keypoints(kp, confidence_threshold)
    seen = valid.any(axis=1)  # frames with no valid point stay missing for every site
    points[seen] = centralize(points[seen], valid[seen])

    input_rate = infer_sample_rate(t)
    max_gap = check_gap(max_gap)
    slots, true_slots = _slot_grid(t, input_rate, max_gap + 1)
    pts = np.zeros((len(roster), slots[-1] + 1, 2), dtype=np.float64)
    ok = np.zeros((len(roster), slots[-1] + 1), dtype=bool)
    pts[:, slots] = points[:, rows].transpose(1, 0, 2)
    ok[:, slots] = valid[:, rows].T
    try:
        repaired = _repair_gaps(pts, ok, max_gap, roster)
    except GapTooLongError as exc:
        # report the span on the grid with every hole at its full length
        def uncapped(slot):
            j = np.searchsorted(slots, slot, side="right") - 1
            return int(true_slots[j]) + slot - int(slots[j])
        raise GapTooLongError(exc.site, uncapped(exc.start), uncapped(exc.end)) from None

    repaired = np.ascontiguousarray(repaired[:, ::decimation_stride(input_rate, target_rate)])
    if not np.isfinite(np.square(repaired).sum()):
        raise ComputationError("coordinates overflow in preprocessing")

    return SkeletonSeries(tuple(roster), repaired)
