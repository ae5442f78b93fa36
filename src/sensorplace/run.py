"""The ``validate`` and ``rank`` runs behind the CLI.

Each run function is pure apart from its explicit output files: it parses
inputs, executes the pipeline, and returns the result plus a JSON-ready
report payload. Reports carry the resolved configuration fingerprint and
never embed timestamps, so equal inputs and config give byte-identical
outputs. ``compare`` and ``report`` run in ``tablerun``, which needs no
numpy, and ``synth`` runs in ``synth``.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as pio
from .config import RNG_NAME, RunConfig
from .errors import DataError, ManifestError, TooShortError
from .scoring import TIE_BREAK, enumerate_subsets, mean_scores, sort_ranking
from .skeleton import ActivitySet, SkeletonSeries, preprocess_recording, truncate_series
from .textio import ranking_entries

RANKING_FILENAME = "ranking.csv"
RANK_REPORT_FILENAME = "report.json"


# --- validate ---------------------------------------------------------------

def run_validate(paths, config: RunConfig) -> list[tuple]:
    """Parse each keypoint file once and preprocess it as ``rank`` would.

    Returns ``(path, frames, warnings)`` per file: its frame count and a
    warning for coordinate and for confidence values outside [0, 1], which
    are legal but usually mean an estimator or scaling problem. The first
    file that fails raises DataError naming it. Window length is not
    checked: ``rank`` applies it per activity, across recordings.
    """
    checks = []
    for path in paths:
        t, kp = pio.parse_keypoint_file(path)
        try:
            _preprocess(t, kp, str(path), config)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        outside = np.count_nonzero((kp < 0.0) | (kp > 1.0), axis=(0, 1))  # x, y, confidence
        counts = {"coordinate": outside[0] + outside[1], "confidence": outside[2]}
        warnings = [f"{n} {what} values outside [0, 1]" for what, n in counts.items() if n]
        checks.append((path, len(t), warnings))
    return checks


# --- rank --------------------------------------------------------------------

def _preprocess(t, kp, activity_id: str, config: RunConfig) -> SkeletonSeries:
    return preprocess_recording(
        t, kp, activity_id, roster=config.roster, target_rate=config.sample_rate,
        confidence_threshold=config.confidence_threshold, max_gap=config.max_gap,
        allow_head=config.allow_head,
    )


def load_window_sets(manifest_entries, config: RunConfig):
    """Preprocess each activity's recordings and cut the windows the run
    scores: ``(window_sets, diagnostics)``, one diagnostic per activity.

    Every recording is parsed and preprocessed, so a bad one is reported in
    any mode. Windows are L-frame views of the recordings' points, L being
    ``series_length``, and never span recordings. With ``subsample="uniform"``
    an activity's one window is drawn evenly across its first recording;
    otherwise each recording holds consecutive disjoint windows from its
    first frame, in manifest order, and the activity keeps its first window,
    or all of them with ``multi_window``. Window set w pairs window w of
    every activity, for w below the smallest count kept. Per-activity
    failures are reported together on one line, joined by ``; ``.
    """
    if len(manifest_entries) < 2:
        raise ManifestError(
            f"need at least two activities to rank, manifest lists {len(manifest_entries)}"
        )
    L = config.series_length
    kept, failures, diagnostics = [], [], []
    for activity_id, paths in manifest_entries:
        try:
            series = [_preprocess(*pio.parse_keypoint_file(path), activity_id, config)
                      for path in paths]
            if config.subsample == "uniform":
                windows = [truncate_series(series[0], L, mode="uniform")]
            else:
                windows = [replace(full, points=full.points[:, a:a + L])
                           for full in series for a in range(0, full.length - L + 1, L)]
                if not windows:
                    raise TooShortError(sum(full.length for full in series), L)
        except DataError as exc:
            failures.append(f"{activity_id}: {exc}")
            continue
        kept.append(windows if config.multi_window else windows[:1])
        diagnostics.append({"activity": activity_id, "recordings": len(paths),
                            "windows": len(windows)})
    if failures:
        raise ManifestError("; ".join(failures))
    return [ActivitySet(activities=ws) for ws in zip(*kept)], diagnostics


def rank_window_sets(window_sets, labels) -> tuple[list[str], list[float]]:
    """Score the subsets ``labels`` and rank them by their mean over
    windows (``scoring.mean_scores``): ``(labels, scores)`` best first."""
    return sort_ranking(labels, mean_scores(window_sets, labels).tolist())


def rank_report_payload(labels, scores, config: RunConfig, diagnostics, n_windows: int) -> dict:
    """The report of a ranking; ``diagnostics`` holds one entry per
    activity."""
    return {
        "kind": "placement-ranking",
        "fingerprint": config.fingerprint(),
        "rng": RNG_NAME,
        "config": asdict(config),
        "tie_break": TIE_BREAK,
        "n_activities": len(diagnostics),
        "n_windows": n_windows,
        "activities": diagnostics,
        "entries": ranking_entries(labels, scores),
    }


def run_rank(manifest_path, config: RunConfig, out_dir=None):
    """Full pipeline: manifest -> preprocess -> score -> ranked placements.

    Returns ``((labels, scores), payload)``, the ranking best first; when
    ``out_dir`` is given, also writes the ranking table and the structured
    report there. Subsets are enumerated before the manifest is opened.
    """
    labels = enumerate_subsets(config.roster, config.subset_sizes)
    entries = pio.parse_manifest(manifest_path)
    window_sets, diagnostics = load_window_sets(entries, config)
    labels, scores = rank_window_sets(window_sets, labels)
    payload = rank_report_payload(labels, scores, config, diagnostics, len(window_sets))
    if out_dir is not None:
        out_dir = Path(out_dir)
        pio.write_ranking_file(out_dir / RANKING_FILENAME, labels, scores)
        pio.write_json_report(out_dir / RANK_REPORT_FILENAME, payload)
    return (labels, scores), payload
