"""Keypoint consolidation, centralization, gap repair, windows."""

import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_keypoints, make_series
from sensorplace import io as pio
from sensorplace import run as runner
from sensorplace.config import RunConfig
from sensorplace.errors import (
    ComputationError,
    ConfigError,
    DataError,
    GapTooLongError,
    ManifestError,
    SiteExcludedError,
    UnknownSiteError,
)
from sensorplace.scoring import mean_scores
from sensorplace.skeleton import (
    DEFAULT_ROSTER,
    MERGE_SOURCES,
    SITE_ORDER,
    WindowSets,
    _median,
    centralize,
    decimation_stride,
    infer_sample_rate,
    merge_keypoints,
    preprocess_recording,
    repair_gaps,
    select_sites,
)

FACE = MERGE_SOURCES["HD"]
HIPS = MERGE_SOURCES["PE"]


def _merge(kp, threshold=0.3):
    """Merge one (17, 3) frame: its (12, 2) points and (12,) validity flags."""
    points, valid = merge_keypoints(kp[None], threshold)
    return points[0], valid[0]


def _centralize(points, valid):
    return centralize(points[None], valid[None])[0]


def _at(points, site):
    return points[SITE_ORDER.index(site)]


# --- containers -------------------------------------------------------------

@pytest.mark.parametrize("points, rate, message", [
    (np.zeros((2, 5)), 10.0, "expected (n_sites, length, 2) points, got (2, 5)"),
    (np.zeros((2, 5, 3)), 10.0, "expected (n_sites, length, 2) points, got (2, 5, 3)"),
    (np.zeros((1, 0, 2)), 10.0, "series must contain at least one frame"),
    (np.full((1, 3, 2), np.inf), 10.0, "series contains non-finite points"),
    (np.zeros((1, 3, 2)), 0.0, "sample rate must be positive"),
    (np.zeros((1, 3, 2)), np.nan, "sample rate must be positive and finite"),
], ids=["two-dims", "three-coordinates", "no-frame", "non-finite", "rate-zero", "rate-nan"])
def test_skeleton_series_rejects_bad_contents(points, rate, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_series("a", points, sites=("LW",) * len(points), sample_rate=rate)


@pytest.mark.parametrize("ids, message", [
    (("a",), "an activity set needs at least two activities"),
    (("a", "a"), "duplicate activity ids: ['a', 'a']"),
], ids=["one-activity", "duplicate-ids"])
def test_activity_set_rejects_inconsistent_activities(ids, message):
    windows = WindowSets(ids, ("LW",), np.ones((1, len(ids), 1, 3, 2)))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        mean_scores(windows, ["LW"])


# --- merging ----------------------------------------------------------------

def test_merge_produces_twelve_sites():
    points, valid = merge_keypoints(make_keypoints(seed=1)[None])
    assert points.shape == (1, 12, 2)
    assert valid.shape == (1, 12)
    assert valid.all()


def test_merge_head_is_mean_of_facial_keypoints():
    kp = make_keypoints(seed=2)
    points, _ = _merge(kp)
    expected = kp[list(FACE), :2].mean(axis=0)
    np.testing.assert_allclose(_at(points, "HD"), expected, rtol=0, atol=1e-15)


def test_merge_pelvis_is_mean_of_hips():
    kp = make_keypoints(seed=3)
    points, _ = _merge(kp)
    expected = kp[list(HIPS), :2].mean(axis=0)
    np.testing.assert_allclose(_at(points, "PE"), expected, rtol=0, atol=1e-15)


def test_merge_passthrough_sites_copy_coordinates():
    kp = make_keypoints(seed=4)
    points, _ = _merge(kp)
    assert _at(points, "LW").tolist() == kp[9, :2].tolist()
    assert _at(points, "RF").tolist() == kp[16, :2].tolist()


def test_merge_turns_negative_zero_into_positive_zero():
    # a site's total starts from 0.0, as a mean over its confident sources does
    kp = make_keypoints(seed=4)
    kp[9, :2] = -0.0  # left wrist, a single-source site
    points, valid = _merge(kp)
    assert _at(valid, "LW")
    assert not np.signbit(_at(points, "LW")).any()


def test_merge_low_confidence_site_is_missing():
    kp = make_keypoints(seed=5)
    kp[9, 2] = 0.1  # left wrist below the default 0.3 gate
    _, valid = _merge(kp)
    assert not _at(valid, "LW")
    assert _at(valid, "RW")


def test_merge_threshold_is_inclusive():
    kp = make_keypoints(seed=6, conf=0.3)
    _, valid = _merge(kp)
    assert valid.all()


def test_merge_uses_only_confident_facial_sources():
    kp = make_keypoints(seed=7)
    kp[list(FACE[1:]), 2] = 0.0  # only the nose survives
    points, _ = _merge(kp)
    np.testing.assert_allclose(_at(points, "HD"), kp[FACE[0], :2])


@given(st.randoms(use_true_random=False))
def test_merge_is_permutation_invariant_in_constituents(rnd):
    xy = make_keypoints(seed=8)[:, :2]
    shuffled = xy.copy()
    order = list(FACE)
    rnd.shuffle(order)
    shuffled[list(FACE)] = xy[order]
    a, _ = _merge(make_keypoints(xy=xy))
    b, _ = _merge(make_keypoints(xy=shuffled))
    np.testing.assert_allclose(_at(a, "HD"), _at(b, "HD"), rtol=0, atol=1e-12)


# --- centralization -----------------------------------------------------------

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


@given(st.lists(st.tuples(coord, coord), min_size=17, max_size=17))
def test_centralize_centroid_lands_on_center(pts):
    points, valid = _merge(make_keypoints(xy=np.array(pts)))
    centered = _centralize(points, valid)
    centroid = centered[valid].mean(axis=0)
    np.testing.assert_allclose(centroid, [0.5, 0.5], rtol=0, atol=1e-9)


@given(st.lists(st.tuples(coord, coord), min_size=17, max_size=17))
def test_centralize_is_exactly_idempotent(pts):
    points, valid = _merge(make_keypoints(xy=np.array(pts)))
    once = _centralize(points, valid)
    twice = _centralize(once, valid)
    assert np.array_equal(once, twice)


@given(
    st.lists(st.tuples(coord, coord), min_size=17, max_size=17),
    st.tuples(coord, coord),
)
def test_centralize_translation_invariance(pts, offset):
    xy = np.array(pts)
    a = _centralize(*_merge(make_keypoints(xy=xy)))
    b = _centralize(*_merge(make_keypoints(xy=xy + np.array(offset))))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_centralize_ignores_missing_points():
    kp = make_keypoints(seed=9)
    kp[9, 2] = 0.0  # LW missing
    points, valid = _merge(kp)
    centered = _centralize(points, valid)
    assert not _at(valid, "LW")
    assert _at(centered, "LW").tolist() == _at(points, "LW").tolist()


def test_centralize_rejects_empty_frame():
    points, valid = merge_keypoints(np.stack([make_keypoints(seed=10), make_keypoints(conf=0.0)]))
    with pytest.raises(DataError, match="^cannot centralize a frame with no valid points$"):
        centralize(points, valid)


def test_centralize_degenerate_coincident_points():
    points, valid = _merge(make_keypoints(xy=np.full((17, 2), 0.25)))
    np.testing.assert_allclose(_centralize(points, valid), 0.5, rtol=0, atol=1e-15)


# --- site selection -------------------------------------------------------------

def test_select_sites_follows_roster_order():
    points, _ = merge_keypoints(make_keypoints(seed=11)[None])
    rows = select_sites(("RF", "LW"))
    pts = points[0, rows]
    assert pts.shape == (2, 2)
    assert pts[0].tolist() == _at(points[0], "RF").tolist()
    assert pts[1].tolist() == _at(points[0], "LW").tolist()


def test_select_sites_excludes_head_by_default():
    with pytest.raises(SiteExcludedError):
        select_sites(("HD", "LW"))
    assert select_sites(("HD", "LW"), allow_head=True).tolist() == [
        SITE_ORDER.index("HD"), SITE_ORDER.index("LW")
    ]


def test_select_sites_rejects_unknown_and_duplicates():
    with pytest.raises(UnknownSiteError):
        select_sites(("LW", "XX"))
    with pytest.raises(UnknownSiteError):
        select_sites(("LW", "LW"))


# --- gap repair -------------------------------------------------------------------

def _ramp(n_sites=2, n_frames=12):
    # x walks 0,1,2,..., y = 10*x; easy to predict interpolation
    base = np.arange(n_frames, dtype=np.float64)
    points = np.stack(
        [np.stack([base + 100 * s, 10 * (base + 100 * s)], axis=1) for s in range(n_sites)]
    )
    valid = np.ones((n_sites, n_frames), dtype=bool)
    return points, valid


def test_repair_fills_single_interior_gap_linearly():
    points, valid = _ramp()
    corrupted = points.copy()
    corrupted[0, 5] = -999.0
    valid[0, 5] = False
    out = repair_gaps(corrupted, valid, max_gap=3)
    np.testing.assert_allclose(out[0, 5], points[0, 5])


def test_repair_fills_longer_run_with_even_fractions():
    points, valid = _ramp()
    corrupted = points.copy()
    corrupted[1, 3:6] = 0.0
    valid[1, 3:6] = False
    out = repair_gaps(corrupted, valid, max_gap=3)
    np.testing.assert_allclose(out[1], points[1])


def test_repair_never_touches_valid_samples():
    points, valid = _ramp()
    corrupted = points.copy()
    corrupted[0, 4:6] = 7.7
    valid[0, 4:6] = False
    out = repair_gaps(corrupted, valid, max_gap=5)
    keep = valid[0]
    np.testing.assert_array_equal(out[0][keep], points[0][keep])


def test_repair_rejects_gap_over_limit():
    points, valid = _ramp(n_frames=20)
    valid[0, 5:9] = False
    with pytest.raises(GapTooLongError) as err:
        repair_gaps(points, valid, max_gap=3, sites=("LW", "RW"))
    assert "LW" in str(err.value)


def test_repair_trims_to_all_valid_envelope():
    points, valid = _ramp(n_frames=10)
    valid[0, 0] = False   # leading miss on site 0
    valid[1, 9] = False   # trailing miss on site 1
    out = repair_gaps(points, valid, max_gap=3)
    assert out.shape[1] == 8
    np.testing.assert_array_equal(out, points[:, 1:9])


def test_repair_rejects_site_with_no_samples():
    points, valid = _ramp()
    valid[1, :] = False
    with pytest.raises(DataError, match="^site 1 has no valid sample$"):
        repair_gaps(points, valid)


def test_repair_rejects_empty_envelope():
    points, valid = _ramp(n_frames=6)
    valid[0, :3] = False
    valid[1, 3:] = False
    with pytest.raises(DataError, match="^no frame has every site valid$"):
        repair_gaps(points, valid)


@given(st.data())
def test_repair_output_is_gap_free_and_preserves_valid(data):
    n_frames = data.draw(st.integers(8, 30))
    points, valid = _ramp(n_sites=3, n_frames=n_frames)
    # knock out a few interior samples, keeping ends intact
    for s in range(3):
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(1, n_frames - 2))
            valid[s, i] = False
    try:
        out = repair_gaps(points.copy(), valid, max_gap=4)
    except GapTooLongError:
        return
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(
        out[valid[:, : out.shape[1]]], points[:, : out.shape[1]][valid[:, : out.shape[1]]]
    )


# --- windows and rates ---------------------------------------------------------------

def _recordings(tmp_path, frames):
    """One 10 Hz keypoint file per activity ``a``, ``b``, ... of ``frames``
    random, fully confident frames each: the manifest entries and each
    file's preprocessed points."""
    rng = np.random.default_rng(frames)
    entries, points = [], []
    for name in "ab":
        kp = np.ones((frames, 17, 3))
        kp[:, :, :2] = rng.uniform(0.1, 0.9, size=(frames, 17, 2))
        path = tmp_path / f"{name}.csv"
        pio.write_keypoint_file(path, np.arange(frames) / 10.0, kp)
        entries.append((name, [path]))
        points.append(preprocess_recording(*pio.parse_keypoint_file(path), name).points)
    return entries, points


def test_truncate_exact_length_is_identity(tmp_path):
    # a recording of exactly the window length is one window over all of it
    entries, points = _recordings(tmp_path, 500)
    windows, diagnostics = runner.load_window_sets(entries, RunConfig(series_length=500))
    assert len(windows) == 1 and [d["windows"] for d in diagnostics] == [1, 1]
    for window, full in zip(windows[0], points):
        assert window.shape == full.shape
        np.testing.assert_array_equal(window, full)


def test_truncate_too_short_raises(tmp_path):
    entries, _ = _recordings(tmp_path, 499)
    message = "series has 499 frames, needs at least 500"
    with pytest.raises(ManifestError, match=f"^a: {message}; b: {message}$"):
        runner.load_window_sets(entries, RunConfig(series_length=500))


def test_truncate_first_keeps_prefix(tmp_path):
    entries, points = _recordings(tmp_path, 10)
    windows, _ = runner.load_window_sets(entries, RunConfig(series_length=4))
    assert len(windows) == 1
    for window, full in zip(windows[0], points):
        np.testing.assert_array_equal(window, full[:, :4])


def test_infer_sample_rate_uses_median_spacing():
    t = np.arange(50) / 10.0
    t[10] += 0.003  # one jittered stamp should not shift the median
    assert infer_sample_rate(t) == pytest.approx(10.0, rel=1e-6)


@pytest.mark.parametrize("seed", range(40))
def test_median_equals_np_median_bit_for_bit(seed):
    # timestamp spacings as rank sees them: jittered, repeated and with
    # holes, at odd and even counts
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80)) + seed % 2
    steps = rng.choice([1.0, 1.0, 1.0, 2.0, 7.0], size=n)  # holes of 1 and 6 frames
    t = np.cumsum(steps) / rng.choice([10.0, 30.0, 29.97])
    if seed % 3:
        t = t + rng.normal(0.0, 1e-4, size=n)  # jitter: few exact repeats
    spacings = [np.diff(t), np.round(np.diff(t), 2), np.abs(np.diff(t))[::-1]]
    for values in spacings:
        if values.size:
            assert _median(values).tobytes() == np.median(values).tobytes()
    with_nan = np.append(spacings[0], np.nan)
    assert np.isnan(_median(with_nan)) and np.isnan(np.median(with_nan))


def test_decimation_stride_accepts_integer_multiples():
    assert decimation_stride(10.0, 10.0) == 1
    assert decimation_stride(30.0, 10.0) == 3
    assert decimation_stride(30.02, 10.0) == 3  # within relative tolerance


def test_decimation_stride_rejects_bad_ratios():
    with pytest.raises(DataError, match="^input rate 25 Hz is not an integer multiple of "
                       "the target rate 10 Hz$"):
        decimation_stride(25.0, 10.0)
    with pytest.raises(DataError, match="^input rate 5 Hz is not an integer multiple of "
                       "the target rate 10 Hz$"):
        decimation_stride(5.0, 10.0)


def test_preprocessing_defaults_are_the_run_settings_defaults():
    # library parameter -> RunConfig field
    taken = {
        merge_keypoints: {"confidence_threshold": "confidence_threshold"},
        repair_gaps: {"max_gap": "max_gap"},
        preprocess_recording: {"roster": "roster", "target_rate": "sample_rate",
                               "confidence_threshold": "confidence_threshold",
                               "max_gap": "max_gap", "allow_head": "allow_head"},
    }
    defaults = RunConfig()
    for function, fields in taken.items():
        parameters = inspect.signature(function).parameters
        for name, field in fields.items():
            assert parameters[name].default == getattr(defaults, field), (function, name)


_T3, _KP3 = np.arange(3) / 10.0, np.full((3, 17, 3), 0.5)  # three frames, every keypoint valid


# a step checks each setting it takes with the rule RunConfig runs, so a value
# of the wrong kind or out of range raises ConfigError in that rule's words
@pytest.mark.parametrize("call, error, message", [
    (lambda: repair_gaps(np.zeros((1, 0, 2)), np.zeros((1, 0), dtype=bool)), ValueError,
     "expected a non-empty (n_sites, n_frames) validity mask"),
    (lambda: repair_gaps(np.zeros((3, 2)), np.ones(3, dtype=bool)), ValueError,
     "expected a non-empty (n_sites, n_frames) validity mask"),
    (lambda: infer_sample_rate([0.0]), DataError,
     "need at least two timestamps to infer a rate"),
    (lambda: infer_sample_rate([0.0, 0.1, 0.0, -0.1]), DataError,
     "non-positive timestamp spacing"),
    (lambda: decimation_stride(10.0, 0.0), ConfigError, "sample rate must be positive and finite"),
    (lambda: decimation_stride(10.0, "10"), ConfigError, "sample rate must be a number, got '10'"),
    (lambda: select_sites("LW"), ConfigError,
     "roster must be a tuple or list of site ids, got 'LW'"),
    (lambda: select_sites(("LW", "HD"), allow_head="no"), ConfigError,
     "allow_head must be True or False, got 'no'"),
    (lambda: merge_keypoints(_KP3, "0.3"), ConfigError,
     "confidence threshold must be a number, got '0.3'"),
    (lambda: merge_keypoints(_KP3, 1.5), ConfigError, "confidence threshold must be within [0, 1]"),
    (lambda: repair_gaps(np.zeros((1, 3, 2)), np.array([[True, False, True]]), max_gap=1.0),
     ConfigError, "max gap must be an integer, got 1.0"),
    (lambda: repair_gaps(np.zeros((1, 3, 2)), np.array([[True, False, True]]), max_gap=-1),
     ConfigError, "max gap must be >= 0"),
    (lambda: preprocess_recording(_T3, _KP3, "a", roster="LW"), ConfigError,
     "roster must be a tuple or list of site ids, got 'LW'"),
    (lambda: preprocess_recording(_T3, _KP3, "a", max_gap=-5), ConfigError,
     "max gap must be >= 0"),
    (lambda: merge_keypoints(_KP3[:, :, 0]), ValueError, "expected (n, 17, 3) keypoints, got (3, 17)"),
    (lambda: preprocess_recording(_T3, _KP3[:2], "a"), ValueError,
     "expected (2,) timestamps, one per frame, got (3,)"),
], ids=["mask-empty", "mask-one-dim", "rate-one-timestamp", "rate-falling-timestamps",
        "stride-target-0", "stride-target-text", "select-roster-text", "select-allow-head-text",
        "merge-threshold-text", "merge-threshold-1.5", "repair-gap-float", "repair-gap-negative",
        "preprocess-roster-text", "preprocess-gap-negative", "merge-keypoints-2d",
        "preprocess-timestamps-mismatch"])
def test_preprocessing_steps_reject_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# --- full preprocessing --------------------------------------------------------------

def test_preprocess_end_to_end(raw_walk):
    series = preprocess_recording(*raw_walk, "walk")
    assert series.activity_id == "walk"
    assert series.sites == DEFAULT_ROSTER
    assert series.points[:, :50].shape == (len(DEFAULT_ROSTER), 50, 2)
    assert series.sample_rate == pytest.approx(10.0)


def test_preprocess_full_length_when_uncapped(raw_walk):
    series = preprocess_recording(*raw_walk, "walk")
    assert series.length == 60


def test_preprocess_is_deterministic(raw_walk):
    a = preprocess_recording(*raw_walk, "walk").points[:, :50]
    b = preprocess_recording(*raw_walk, "walk").points[:, :50]
    assert np.array_equal(a, b)


def test_preprocess_decimates_to_target_rate(raw_walk):
    _, kp = raw_walk
    fast = np.repeat(kp, 3, axis=0)
    series = preprocess_recording(
        np.arange(len(fast)) / 30.0, fast, "walk", target_rate=10.0
    )
    assert series.length == 60
    assert series.sample_rate == pytest.approx(10.0)


def test_preprocess_repairs_confidence_dropouts(raw_walk):
    t, kp = raw_walk
    kp = kp.copy()
    kp[30, 9, 2] = 0.0  # LW invisible for one frame
    points = preprocess_recording(t, kp, "walk").points[:, :50]
    assert points.shape[1] == 50
    assert np.isfinite(points).all()


def test_preprocess_rejects_tiny_recordings():
    with pytest.raises(DataError, match="^series has 1 frames, needs at least 2$"):
        preprocess_recording(np.zeros(1), make_keypoints()[None], "walk")


def test_preprocess_too_few_frames_after_pipeline(tmp_path, raw_walk):
    # 60 frames preprocess to 60, which hold no window of the default 500
    path = tmp_path / "walk.csv"
    pio.write_keypoint_file(path, *raw_walk)
    with pytest.raises(ManifestError, match="^walk: series has 60 frames, needs at least 500; "):
        runner.load_window_sets([("walk", [path]), ("run", [path])], RunConfig())


# --- timestamp holes -------------------------------------------------------------------

def test_spacing_of_half_a_period_is_a_rate_error(raw_walk):
    t, kp = raw_walk
    t = t.copy()
    t[31:] -= 0.05  # frame 31 comes 0.05 s after frame 30: half of the 10 Hz period
    with pytest.raises(DataError, match="^" + re.escape(
            "frame 31 (t=3.0500000000000003) is 0.5 periods after frame 30; "
            "a spacing of half a period or less does not fit the 10 Hz grid") + "$"):
        preprocess_recording(t, kp, "walk")


def test_frame_too_far_to_count_periods_is_a_rate_error(raw_walk):
    # 1e308 s after frame 0 is more than 1e308 periods: the hole's true
    # length is no finite frame count
    t, kp = raw_walk
    t = t.copy()
    t[0] = -1e308
    with pytest.raises(DataError,
                       match=r"^frame 1 \(t=0\.1\) is too many periods from frame 0$"):
        preprocess_recording(t, kp, "walk")


def test_spacing_just_over_half_a_period_is_one_frame(raw_walk):
    t, kp = raw_walk
    jittered = t.copy()
    jittered[31:] -= 0.045
    series = preprocess_recording(jittered, kp, "walk")
    assert np.array_equal(series.points, preprocess_recording(t, kp, "walk").points)


def test_decimated_points_own_a_target_rate_buffer():
    # windows cut from the points keep no native-rate frames alive
    t = np.arange(90) / 30.0
    kp = np.repeat(make_keypoints(seed=3)[None], 90, axis=0)
    series = preprocess_recording(t, kp, "walk", target_rate=10.0)
    assert series.points.shape == (5, 30, 2)
    assert series.points.base is None and series.points.flags.c_contiguous


def test_single_dropped_frame_is_interpolated(raw_walk):
    t, kp = raw_walk
    dropped = preprocess_recording(np.delete(t, 30), np.delete(kp, 30, axis=0), "walk")
    # a dropped frame is a frame with no valid point: same slot, same repair
    blank = kp.copy()
    blank[30, :, 2] = 0.0
    assert dropped.length == 60
    assert np.array_equal(dropped.points, preprocess_recording(t, blank, "walk").points)


def test_twenty_second_hole_is_a_gap_too_long():
    t = np.arange(500) / 10.0
    kp = np.repeat(make_keypoints(seed=12)[None], 500, axis=0)
    keep = np.r_[0:100, 300:500]  # lines 101-300 of the file removed
    with pytest.raises(GapTooLongError) as err:
        preprocess_recording(t[keep], kp[keep], "walk")
    assert (err.value.start, err.value.end) == (100, 300)


def test_hole_span_is_reported_at_full_length():
    # the grid holds max_gap + 1 empty slots per hole; the message does not
    t = np.arange(60) / 10.0
    t[-1] = 1e6
    kp = np.repeat(make_keypoints(seed=13)[None], 60, axis=0)
    with pytest.raises(GapTooLongError) as err:
        preprocess_recording(t, kp, "walk", max_gap=3)
    assert (err.value.start, err.value.end) == (59, 10_000_000)


def test_hole_outside_the_envelope_is_trimmed(raw_walk):
    t, kp = raw_walk
    t = np.concatenate([t[:5], t[5:] + 100.0])
    kp = kp.copy()
    kp[:5, 9, 2] = 0.0  # LW unseen before the hole, so the envelope starts after it
    series = preprocess_recording(t, kp, "walk")
    assert np.array_equal(series.points, preprocess_recording(*raw_walk, "walk").points[:, 5:])


def test_coordinate_overflow_is_a_computation_error(raw_walk):
    # two hips at 1.5e308 overflow their mean, the pelvis; numpy stays quiet
    t, kp = raw_walk
    kp = kp.copy()
    kp[:, list(HIPS), 0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="^coordinates overflow in preprocessing$"):
            preprocess_recording(t, kp, "walk")


def test_site_order_default_roster_come_first():
    assert SITE_ORDER[:5] == DEFAULT_ROSTER
    assert sorted(SITE_ORDER[5:]) == list(SITE_ORDER[5:])


# --- against the per-frame pipeline ------------------------------------------------------

def _reference_preprocess(t, kp, roster, threshold=0.3, max_gap=10, target_rate=10.0):
    """The pipeline one frame at a time: merge, centralize and select per
    frame, then fill each gap one sample at a time."""
    rows = [SITE_ORDER.index(site) for site in roster]
    n = len(t)
    pts = np.zeros((len(roster), n, 2))
    ok = np.zeros((len(roster), n), dtype=bool)
    for j in range(n):
        points = np.zeros((12, 2))
        valid = np.zeros(12, dtype=bool)
        for r, site in enumerate(SITE_ORDER):
            sources = [k for k in MERGE_SOURCES[site] if kp[j, k, 2] >= threshold]
            if sources:
                points[r] = kp[j, sources, :2].mean(axis=0)
                valid[r] = True
        if not valid.any():
            continue
        offset = points[valid].mean(axis=0) - 0.5
        if np.max(np.abs(offset)) > 1e-12:
            points[valid] -= offset
        pts[:, j] = points[rows]
        ok[:, j] = valid[rows]

    for s in range(len(roster)):
        if not ok[s].any():
            raise DataError(f"site {roster[s]} has no valid sample")
    envelope = np.flatnonzero(ok.all(axis=0))
    if envelope.size == 0:
        raise DataError("no frame has every site valid")
    lo, hi = envelope[0], envelope[-1]
    out = pts[:, lo : hi + 1].copy()
    for s in range(len(roster)):
        j = 0
        while j <= hi - lo:
            if ok[s, lo + j]:
                j += 1
                continue
            b = j
            while not ok[s, lo + b]:
                b += 1
            if b - j > max_gap:
                raise GapTooLongError(roster[s], int(lo + j), int(lo + b))
            left, right, steps = out[s, j - 1], out[s, b], b - j + 1
            for k in range(1, steps):
                out[s, j + k - 1] = left + (right - left) * (k / steps)
            j = b
    stride = decimation_stride(infer_sample_rate(t), target_rate)
    return out[:, ::stride]


ROSTERS = (DEFAULT_ROSTER, SITE_ORDER, ("HD", "LW", "PE"), ("RS", "LK"))


def _random_recording(rng, n, dropout=0.08):
    rate = float(rng.choice([10.0, 30.0]))
    kp = np.empty((n, 17, 3))
    kp[:, :, :2] = rng.uniform(-0.5, 1.5, size=(n, 17, 2))
    kp[:, :, 2] = rng.uniform(0.3, 1.0, size=(n, 17))
    dropped = rng.random((n, 17)) < dropout
    kp[:, :, 2][dropped] = rng.uniform(0.0, 0.3, size=int(dropped.sum()))
    kp[rng.random(n) < 0.05, :, 2] = 0.0  # frames with no valid point
    return np.arange(n) / rate, kp


def _matches_reference(t, kp, roster):
    """Whether preprocessing gave the per-frame pipeline's bytes; where the
    reference raises, preprocessing raises the same error."""
    try:
        want = _reference_preprocess(t, kp, roster)
    except DataError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            preprocess_recording(t, kp, "a", roster=roster, allow_head=True)
        return False
    got = preprocess_recording(t, kp, "a", roster=roster, allow_head=True)
    assert got.points.tobytes() == want.tobytes()
    return True


@pytest.mark.parametrize("roster", ROSTERS, ids=lambda r: "+".join(r))
def test_preprocess_matches_per_frame_pipeline_bit_for_bit(roster):
    rng = np.random.default_rng(len(roster))
    compared = sum(_matches_reference(*_random_recording(rng, int(rng.integers(20, 90))), roster)
                   for _ in range(60))
    assert compared >= 20
    # long recordings at 10% dropouts: thousands of gaps, each filled alike
    for n in (2000, 2400):
        assert _matches_reference(*_random_recording(rng, n, dropout=0.1), roster)
    # the last site's too-long gap comes first in time, yet the first
    # site's is the one reported
    t, kp = _random_recording(rng, 120, dropout=0.0)
    kp[20:40, list(MERGE_SOURCES[roster[-1]]), 2] = 0.0
    kp[60:80, list(MERGE_SOURCES[roster[0]]), 2] = 0.0
    with pytest.raises(GapTooLongError, match=f"^site {roster[0]}: "):
        _reference_preprocess(t, kp, roster)
    assert not _matches_reference(t, kp, roster)
