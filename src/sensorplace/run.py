"""End-to-end pipeline runs behind the CLI subcommands.

Each run function is pure apart from its explicit output files: it parses
inputs, executes the pipeline, and returns the result plus a JSON-ready
report payload. Reports carry the resolved configuration fingerprint and
never embed timestamps, so equal inputs and config give byte-identical
outputs. The ``compare`` and ``report`` runs live in ``tablerun``, which
needs no numpy.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as pio
from .config import RNG_NAME, RunConfig
from .errors import ConfigError, DataError, ManifestError, TooShortError
from .scoring import TIE_BREAK, Ranking, ScoredSubset, build_ranking, enumerate_subsets, score_subsets
from .sites import SITE_ORDER
from .skeleton import (
    KEYPOINT_SITE,
    MERGE_SOURCES,
    NUM_KEYPOINTS,
    ActivitySet,
    SkeletonSeries,
    preprocess_recording,
    truncate_series,
)
from .synth import make_separable_set
from .textio import atomic_write_text

RANKING_FILENAME = "ranking.csv"
RANK_REPORT_FILENAME = "report.json"
MANIFEST_FILENAME = "manifest.txt"


# --- validate ---------------------------------------------------------------

def run_validate(paths, config: RunConfig) -> list[pio.FileCheck]:
    """Parse each keypoint file once and preprocess it as ``rank`` would.

    The first file that fails raises DataError naming it. Window length is
    not checked: ``rank`` applies it per activity, across recordings.
    """
    checks = []
    for path in paths:
        t, kp = pio.parse_keypoint_file(path)
        try:
            _preprocess(t, kp, str(path), config)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        checks.append(pio.check_keypoints(path, t, kp))
    return checks


# --- rank --------------------------------------------------------------------

def _preprocess(t, kp, activity_id: str, config: RunConfig) -> SkeletonSeries:
    return preprocess_recording(
        t,
        kp,
        activity_id,
        roster=config.roster,
        target_rate=config.sample_rate,
        confidence_threshold=config.confidence_threshold,
        max_gap=config.max_gap,
        allow_head=config.allow_head,
    )


def _activity_windows(activity_id: str, paths, config: RunConfig) -> tuple[list[SkeletonSeries], int]:
    """Preprocess one activity's recordings into the L-frame windows the
    run scores, and count the windows they hold.

    Every recording is parsed and preprocessed, so a bad one is reported
    in either mode. Windows never span recordings. Uniform subsampling
    draws one window from the first recording; otherwise each recording
    holds its consecutive disjoint windows, in manifest order.
    """
    series = [_preprocess(*pio.parse_keypoint_file(path), activity_id, config) for path in paths]
    if config.subsample == "uniform":
        return [truncate_series(series[0], config.series_length, mode="uniform")], 1
    L = config.series_length
    starts = [(full, a) for full in series for a in range(0, full.length - L + 1, L)]
    if not starts:
        raise TooShortError(sum(full.length for full in series), L)
    # a decimated series is a strided view of its native-rate array, so each
    # window is copied: a view would keep that whole array alive
    windows = [
        replace(full, points=full.points[:, a:a + L].copy())
        for full, a in (starts if config.multi_window else starts[:1])
    ]
    return windows, len(starts)


def load_window_sets(manifest_entries, config: RunConfig):
    """Build per-window activity sets from parsed manifest entries.

    Returns ``(window_sets, diagnostics)``. In single-window mode one set
    is built from each activity's first window; with ``multi_window`` every
    activity contributes its first W windows, W being the smallest window
    count across activities. Per-activity failures are collected and
    reported together on one line, joined by ``; ``.
    """
    if len(manifest_entries) < 2:
        raise ManifestError(
            f"need at least two activities to rank, manifest lists {len(manifest_entries)}"
        )
    per_activity: dict[str, list[SkeletonSeries]] = {}
    failures = []
    diagnostics = []
    for activity_id, paths in manifest_entries:
        try:
            windows, available = _activity_windows(activity_id, paths, config)
        except DataError as exc:
            failures.append(f"{activity_id}: {exc}")
            continue
        per_activity[activity_id] = windows
        diagnostics.append(
            {
                "activity": activity_id,
                "recordings": len(paths),
                "windows": available,
            }
        )
    if failures:
        raise ManifestError("; ".join(failures))

    n_windows = min(len(w) for w in per_activity.values()) if config.multi_window else 1
    window_sets = [
        ActivitySet(
            activities=tuple(per_activity[aid][w] for aid, _ in manifest_entries)
        )
        for w in range(n_windows)
    ]
    return window_sets, diagnostics


def rank_window_sets(window_sets, config: RunConfig) -> Ranking:
    """Score all configured subsets and rank them by their mean over windows.

    A subset's mean adds its window scores in window order, then divides by
    the number of windows; one window is its own mean.
    """
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    total = np.zeros(len(subsets))
    for ws in window_sets:
        total += score_subsets(ws, subsets)
    means = (total / len(window_sets)).tolist()
    return build_ranking(map(ScoredSubset, subsets, means), len(window_sets[0]))


def rank_report_payload(ranking: Ranking, config: RunConfig, diagnostics, n_windows: int) -> dict:
    return {
        "kind": "placement-ranking",
        "fingerprint": config.fingerprint(),
        "rng": RNG_NAME,
        "config": asdict(config),
        "tie_break": TIE_BREAK,
        "n_activities": ranking.n_activities,
        "n_windows": n_windows,
        "activities": diagnostics,
        "entries": [
            {
                "rank": pos,
                "sites": entry.subset.label,
                "size": entry.subset.size,
                "score": entry.score,
            }
            for pos, entry in enumerate(ranking.entries, start=1)
        ],
    }


def run_rank(manifest_path, config: RunConfig, out_dir=None):
    """Full pipeline: manifest -> preprocess -> score -> ranked placements.

    Returns ``(ranking, payload)``; when ``out_dir`` is given, also writes
    the ranking table and the structured report there.
    """
    entries = pio.parse_manifest(manifest_path)
    window_sets, diagnostics = load_window_sets(entries, config)
    ranking = rank_window_sets(window_sets, config)
    payload = rank_report_payload(ranking, config, diagnostics, len(window_sets))
    if out_dir is not None:
        out_dir = Path(out_dir)
        pio.write_ranking_file(out_dir / RANKING_FILENAME, ranking)
        pio.write_json_report(out_dir / RANK_REPORT_FILENAME, payload)
    return ranking, payload


# --- synth ----------------------------------------------------------------------

# Offsets of each COCO keypoint from the site point it is expanded from.
# The facial offsets sum to zero so consolidation recovers the head point;
# the hip offsets are symmetric around the pelvis; every other keypoint sits
# on its site.
_KEYPOINT_OFFSETS = np.zeros((NUM_KEYPOINTS, 2))
_KEYPOINT_OFFSETS[list(MERGE_SOURCES["HD"])] = (
    (0.0, 0.0),        # nose
    (0.01, -0.01),     # left eye
    (-0.01, -0.01),    # right eye
    (0.02, 0.01),      # left ear
    (-0.02, 0.01),     # right ear
)
_KEYPOINT_OFFSETS[list(MERGE_SOURCES["PE"])] = ((-0.03, 0.0), (0.03, 0.0))


def series_to_frames(series: SkeletonSeries, drift: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Expand a 12-site series into timestamps ``t[L]`` and raw keypoints
    ``kp[L, 17, 3]``.

    The five facial keypoints are placed around the head point with
    zero-sum offsets and the two hips symmetrically around the pelvis, so
    consolidation recovers the original sites. With ``drift`` a smooth
    whole-body translation is added per frame; per-frame centralization
    removes it on ingestion. All confidences are 1.0.
    """
    if set(series.sites) != set(SITE_ORDER):
        raise ValueError("keypoint export needs a series covering all 12 sites")
    L = series.length
    t = np.arange(L, dtype=np.float64) / series.sample_rate
    shift = np.zeros((L, 2))
    if drift:
        shift[:, 0] = 0.05 * np.sin(2.0 * np.pi * 0.2 * t) + 0.001 * t
        shift[:, 1] = 0.05 * np.cos(2.0 * np.pi * 0.3 * t)
    rows = [series.sites.index(site) for site in KEYPOINT_SITE]
    kp = np.ones((L, NUM_KEYPOINTS, 3), dtype=np.float64)
    kp[:, :, :2] = (series.points[rows].transpose(1, 0, 2) + _KEYPOINT_OFFSETS) + shift[:, None]
    return t, kp


def run_synth(
    out_dir,
    n_activities: int = 3,
    discriminative_sites=("LW",),
    seed: int = 0,
    noise_sigma: float = 0.0,
    length: int = 500,
    sample_rate: float = 10.0,
    style: str = "csv",
    drift: bool = True,
):
    """Emit a synthetic keypoint corpus plus its manifest.

    Activities are generated over all 12 sites (so the full 17-keypoint
    expansion is well-defined) and written one file per activity. Returns
    the manifest path. Generator arguments it cannot use raise ConfigError.
    """
    out_dir = Path(out_dir)
    try:
        activity_set = make_separable_set(
            n_activities,
            discriminative_sites,
            seed=seed,
            noise_sigma=noise_sigma,
            length=length,
            sample_rate=sample_rate,
            roster=SITE_ORDER,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    extension = "csv" if style == "csv" else "txt"
    manifest_lines = []
    for series in activity_set.activities:
        t, kp = series_to_frames(series, drift=drift)
        filename = f"{series.activity_id}.{extension}"
        pio.write_keypoint_file(out_dir / filename, t, kp, style=style)
        manifest_lines.append(f"{series.activity_id} {filename}")
    manifest_path = out_dir / MANIFEST_FILENAME
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    return manifest_path
