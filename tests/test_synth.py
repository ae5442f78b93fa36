"""Seeded synthetic corpus generation."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sensorplace.config import RunConfig
from sensorplace.errors import ConfigError, DataError, UnknownSiteError
from sensorplace.io import format_keypoint_frame, parse_manifest, write_keypoint_file
from sensorplace.run import run_rank
from sensorplace.scoring import mean_scores
from sensorplace.skeleton import DEFAULT_ROSTER, SITE_ORDER, SkeletonSeries
from sensorplace.synth import (
    DEFAULT_POSE,
    MotionSpec,
    SiteMotion,
    centered_bases,
    generate_activity,
    make_separable_set,
    run_synth,
    separable_specs,
    series_to_frames,
)


def _static_spec(length=20, seed=0, noise=0.0):
    motions = {
        s: SiteMotion(base=DEFAULT_POSE[s], noise_sigma=noise) for s in DEFAULT_ROSTER
    }
    return MotionSpec("still", motions, length=length, seed=seed)


# --- generation ------------------------------------------------------------------

def test_static_spec_yields_constant_series():
    series = generate_activity(_static_spec())
    assert series.points.shape[1] == 20
    for row in range(series.points.shape[0]):
        assert (series.points[row] == series.points[row][0]).all()


def test_same_seed_is_bit_identical():
    a = generate_activity(_static_spec(noise=0.05, seed=9))
    b = generate_activity(_static_spec(noise=0.05, seed=9))
    assert np.array_equal(a.points, b.points)


def test_different_seeds_differ():
    a = generate_activity(_static_spec(noise=0.05, seed=1))
    b = generate_activity(_static_spec(noise=0.05, seed=2))
    assert not np.array_equal(a.points, b.points)


def test_sites_come_out_in_canonical_order():
    motions = {s: SiteMotion(base=DEFAULT_POSE[s]) for s in ("RF", "LW", "PE")}
    series = generate_activity(MotionSpec("a", motions, length=5))
    assert series.sites == ("LW", "PE", "RF")


def test_circular_motion_radius_and_period():
    # 1 Hz circle sampled at 10 Hz over 500 frames: 50 full turns of
    # radius 0.2 around the base, repeating every 10 samples
    motions = {
        "LW": SiteMotion(base=(0.4, 0.5), amplitude=0.2, frequency=1.0),
        "RW": SiteMotion(base=(0.6, 0.5)),
    }
    series = generate_activity(MotionSpec("turns", motions, length=500, sample_rate=10.0))
    lw = series.points[series.sites.index("LW")]
    radii = np.hypot(lw[:, 0] - 0.4, lw[:, 1] - 0.5)
    np.testing.assert_allclose(radii, 0.2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lw[:-10], lw[10:], rtol=0, atol=1e-9)
    angles = np.unwrap(np.arctan2(lw[:, 1] - 0.5, lw[:, 0] - 0.4))
    turns = abs(angles[-1] - angles[0]) / (2 * np.pi)
    assert turns == pytest.approx(49.9, abs=0.2)  # 499 sampled intervals


@pytest.mark.parametrize("field, value", [
    ("base", (0.5, float("inf"))),
    ("amplitude", float("nan")),
    ("frequency", float("inf")),
    ("phase", float("nan")),
    ("noise_sigma", float("nan")),
])
def test_site_motion_rejects_non_finite_values(field, value):
    # nan passes every `< 0` check, so `--noise nan` once wrote a noise-free corpus
    with pytest.raises(ValueError, match="must be finite"):
        SiteMotion(**{"base": (0.5, 0.5), field: value})


# --- argument checks ------------------------------------------------------------------

_STILL = {"LW": SiteMotion(base=(0.5, 0.5))}


@pytest.mark.parametrize("call, message", [
    (partial(run_synth, n_activities=2.5), "activities must be an integer, got 2.5"),
    (partial(run_synth, n_activities=True), "activities must be an integer, got True"),
    (partial(run_synth, n_activities=1), "need at least two activities"),
    (partial(run_synth, length=2.5), "length must be an integer, got 2.5"),
    (partial(run_synth, length=True), "length must be an integer, got True"),
    (partial(run_synth, noise_sigma="0.1"), "noise_sigma must be a number, got '0.1'"),
    (partial(run_synth, noise_sigma=-1), "noise_sigma must be >= 0"),
    (partial(run_synth, noise_sigma=float("nan")), "noise_sigma must be finite"),
    (partial(run_synth, noise_sigma=1e308), "site LW of act01: base, amplitude, frequency or "
     "noise_sigma 1e+308 is too large: the points overflow"),
    (partial(run_synth, seed=-1), "seed must be >= 0"),
    (partial(run_synth, seed=1.5), "seed must be an integer, got 1.5"),
    (partial(run_synth, discriminative_sites="LW"),
     "discriminative sites must be a tuple or list of site ids, got 'LW'"),
    (partial(run_synth, discriminative_sites=["LW", "LW"]),
     "discriminative sites ['LW', 'LW'] repeat a site"),
    (partial(run_synth, style="xml"), "style must be csv or labeled, got 'xml'"),
    (partial(run_synth, drift="no"), "drift must be True or False, got 'no'"),
    (lambda out: separable_specs(3, ["HD"]),
     "discriminative sites ['HD'] not in roster ('LW', 'RW', 'PE', 'LF', 'RF')"),
    (lambda out: make_separable_set(2, ["LW"], roster="LW"),
     "roster must be a tuple or list of site ids, got 'LW'"),
    (lambda out: SiteMotion(base=(0.5, 0.5), amplitude=-0.1), "amplitude must be >= 0"),
    (lambda out: SiteMotion(base=0.5), "base must be an (x, y) pair, got 0.5"),
    (lambda out: MotionSpec("a", {}, length=10),
     "motions must be a non-empty dict of SiteMotion, got {}"),
    (lambda out: MotionSpec("a", {"ZZ": _STILL["LW"]}), "unknown site id 'ZZ'"),
    (lambda out: MotionSpec("a", _STILL, length=0), "length must be at least 1"),
    (lambda out: MotionSpec("a", _STILL, sample_rate="10"), "sample rate must be a number, got '10'"),
    (lambda out: generate_activity(MotionSpec("a", {"LW": SiteMotion((1e308, 0.5), 1e308, phase=1.0)})),
     "site LW of a: base, amplitude, frequency or noise_sigma 0 is too large: the points overflow"),
], ids=["activities-2.5", "activities-true", "activities-1", "length-2.5", "length-true",
        "noise-string", "noise-negative", "noise-nan", "noise-1e308", "seed-negative", "seed-1.5",
        "discriminative-string", "discriminative-repeated", "style-xml", "drift-no",
        "discriminative-not-in-roster", "roster-string", "motion-negative-amplitude",
        "motion-base-not-a-pair", "spec-no-motions", "spec-unknown-site", "spec-length-0",
        "spec-rate-string", "spec-points-overflow"])
def test_a_bad_synth_argument_raises_one_data_error_naming_it(tmp_path, call, message):
    with pytest.raises(DataError) as excinfo:
        call(tmp_path / "out")
    assert str(excinfo.value) == message
    assert not (tmp_path / "out").exists()


def test_the_writer_and_the_frame_expansion_check_style_and_drift_as_synth_does(tmp_path):
    series = generate_activity(separable_specs(2, ["LW"], roster=SITE_ORDER, length=3)[0])
    with pytest.raises(ConfigError, match="^drift must be True or False, got 'no'$"):
        series_to_frames(series, 10.0, drift="no")
    t, kp = series_to_frames(series, 10.0)
    style = "^style must be csv or labeled, got 'xml'$"
    with pytest.raises(ConfigError, match=style):
        format_keypoint_frame(t[0], kp[0], style="xml")
    for frames in (3, 0):  # a file of no frames formats none
        with pytest.raises(ConfigError, match=style):
            write_keypoint_file(tmp_path / "out.xml", t[:frames], kp[:frames], style="xml")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points, rate, message", [
    (np.zeros((12, 5)), 10.0, "expected (n_sites, length, 2) points, got (12, 5)"),
    (np.zeros((12, 5, 3)), 10.0, "expected (n_sites, length, 2) points, got (12, 5, 3)"),
    (np.zeros((12, 0, 2)), 10.0, "series must contain at least one frame"),
    (np.full((12, 3, 2), np.inf), 10.0, "series contains non-finite points"),
    (np.zeros((12, 3, 2)), 0.0, "sample rate must be positive"),
    (np.zeros((12, 3, 2)), np.nan, "sample rate must be positive and finite"),
], ids=["two-dims", "three-coordinates", "no-frame", "non-finite", "rate-zero", "rate-nan"])
def test_series_to_frames_rejects_bad_contents(points, rate, message):
    # a SkeletonSeries checks nothing; the one function that takes a
    # caller-built series checks it
    with pytest.raises(ValueError, match=re.escape(message)):
        series_to_frames(SkeletonSeries(SITE_ORDER, points), rate)


@pytest.mark.parametrize("sites", [SITE_ORDER[:-1], SITE_ORDER + ("LW",)],
                         ids=["missing-site", "repeated-site"])
def test_series_to_frames_needs_each_site_once(sites):
    # a repeated site once passed, and its second row was dropped unread
    series = SkeletonSeries(sites, np.zeros((len(sites), 3, 2)))
    with pytest.raises(ValueError, match="^keypoint export needs a series of the 12 sites, "
                       "each once$"):
        series_to_frames(series, 10.0)


def _perfbench_inputs(monkeypatch):
    """The benchmark's input module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rate, labeled, dropouts", [(10.0, False, 0), (30.0, True, 2)],
                         ids=["csv-10hz", "labeled-30hz"])
def test_the_benchmark_corpus_generator_runs_on_synth(tmp_path, monkeypatch, rate, labeled,
                                                      dropouts):
    # the benchmark's set-up calls separable_specs and replaces the specs'
    # sample rate; a corpus it writes must rank with the planted site first
    inputs = _perfbench_inputs(monkeypatch)
    corpus, synth_s = inputs.make_corpus(tmp_path / "corpus", 1, 3, 2, 60, rate, labeled,
                                         dropouts, extra_frames=3)
    assert synth_s > 0
    assert [activity for activity, _ in parse_manifest(corpus.manifest)] == [
        "act01", "act02", "act03"]
    assert sorted(frames for frames, _ in corpus.files.values()) == [60, 60, 60, 63, 63, 63]
    (labels, _), _ = run_rank(corpus.manifest, RunConfig(series_length=20, subset_sizes=(1,)))
    assert labels[0] == inputs.PLANTED_SITE


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="CI runs the benchmark on the latest numpy only")
def test_the_traced_benchmark_counts_every_live_layer(tmp_path):
    # perfbench's tracer times each layer by wrapping a program function by
    # name: a renamed function zeroes its layer. Its window and frame counts
    # read load_window_sets' and preprocess_recording's results, so a changed
    # result shape fails too. It runs from a copy, since perfbench writes its
    # spans beside the directories it runs from.
    root = Path(__file__).resolve().parents[1]
    for part in ("perfbench", "src"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_roster", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] is True and result["failed"] == 0
    assert metrics["scoring.subsets_scored"] == 4095
    assert metrics["run.window_sets"] == 1
    assert metrics["skeleton.frames_out"] > 0
    live = ["io.parse_s", "skeleton.preprocess_s", "run.load_s", "scoring.rank_s", "io.write_s"]
    assert all(metrics[name] > 0 for name in live), metrics


# --- separable sets ------------------------------------------------------------------

def test_centered_bases_put_roster_centroid_at_center():
    bases = centered_bases(DEFAULT_ROSTER)
    centroid = np.mean([bases[s] for s in DEFAULT_ROSTER], axis=0)
    np.testing.assert_allclose(centroid, [0.5, 0.5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: separable_specs(3, ["LW"], roster=("LW", "ZZ")),
    lambda: centered_bases(("LW", "ZZ")),
], ids=["separable-specs", "centered-bases"])
def test_an_unknown_roster_site_is_named(call):
    with pytest.raises(UnknownSiteError, match="^unknown site id 'ZZ'$"):
        call()


def test_static_sites_identical_across_activities():
    aset = make_separable_set(3, ["LW"], seed=11)
    for site in ("RW", "PE", "LF", "RF"):
        first, *others = aset.points[0, :, aset.sites.index(site)]
        for act in others:
            np.testing.assert_array_equal(act, first)


def test_non_discriminative_subset_scores_zero():
    aset = make_separable_set(2, ["LW"], seed=3)
    assert mean_scores(aset, ["RW"])[0] <= 1e-12


def test_discriminative_pair_beats_static_pair():
    aset = make_separable_set(4, ["LW", "RW"], seed=5)
    moving, still = mean_scores(aset, ["LW+RW", "PE+LF"])
    assert moving > still


def test_separability_ordering_over_singletons():
    aset = make_separable_set(5, ["LW", "RF"], seed=8)
    scores = dict(zip(DEFAULT_ROSTER, mean_scores(aset, DEFAULT_ROSTER)))
    for inside in ("LW", "RF"):
        for outside in ("RW", "PE", "LF"):
            assert scores[inside] > scores[outside]


def test_separable_frequencies_stay_distinct_and_below_nyquist():
    specs = separable_specs(13, ["LW"], seed=0)
    freqs = [spec.motions["LW"].frequency for spec in specs]
    assert len(set(freqs)) == len(freqs)
    assert max(freqs) < 5.0  # Nyquist for 10 Hz sampling


def test_full_roster_generation_for_export():
    specs = separable_specs(2, ["LW"], roster=SITE_ORDER)
    series = generate_activity(specs[0])
    assert series.sites == SITE_ORDER
