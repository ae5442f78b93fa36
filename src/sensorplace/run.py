"""End-to-end pipeline runs behind the CLI subcommands.

Each run function is pure apart from its explicit output files: it parses
inputs, executes the pipeline, and returns the result plus a JSON-ready
report payload. Reports carry the resolved configuration fingerprint and
never embed timestamps, so equal inputs and config give byte-identical
outputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import io as pio
from .config import RunConfig
from .errors import DataError, ManifestError, TooShortError
from .rankcorr import compare_rankings
from .scoring import Ranking, ScoredSubset, build_ranking, enumerate_subsets, rank_placements
from .skeleton import (
    SITE_NAMES,
    SITE_ORDER,
    ActivitySet,
    RawPoseFrame,
    SkeletonSeries,
    preprocess_recording,
    truncate_series,
)
from .synth import RNG_NAME, generate_activity, separable_specs

RANKING_FILENAME = "ranking.csv"
RANK_REPORT_FILENAME = "report.json"
TAU_TABLE_FILENAME = "tau.csv"
TAU_REPORT_FILENAME = "tau.json"
MANIFEST_FILENAME = "manifest.txt"


# --- validate ---------------------------------------------------------------

def run_validate(paths) -> list[pio.FileCheck]:
    """Schema-check keypoint files; parse errors propagate as DataError."""
    return [pio.validate_keypoint_file(p) for p in paths]


# --- rank --------------------------------------------------------------------

def _split_windows(series: SkeletonSeries, length: int) -> list[SkeletonSeries]:
    count = series.length // length
    return [
        SkeletonSeries(
            activity_id=series.activity_id,
            sites=series.sites,
            points=series.points[:, w * length : (w + 1) * length].copy(),
            sample_rate=series.sample_rate,
        )
        for w in range(count)
    ]


def _activity_windows(activity_id: str, paths, config: RunConfig) -> list[SkeletonSeries]:
    """Preprocess one activity's recordings into L-frame windows.

    Windows never span recordings. Uniform subsampling draws one window
    from the first recording; otherwise each recording contributes its
    consecutive disjoint windows, in manifest order.
    """
    if config.subsample == "uniform":
        frames = pio.parse_keypoint_file(paths[0])
        full = preprocess_recording(
            frames,
            activity_id,
            roster=config.roster,
            length=None,
            target_rate=config.sample_rate,
            confidence_threshold=config.confidence_threshold,
            max_gap=config.max_gap,
            subsample="first",
            allow_head=config.allow_head,
        )
        return [truncate_series(full, config.series_length, mode="uniform")]

    windows: list[SkeletonSeries] = []
    total = 0
    for path in paths:
        frames = pio.parse_keypoint_file(path)
        full = preprocess_recording(
            frames,
            activity_id,
            roster=config.roster,
            length=None,
            target_rate=config.sample_rate,
            confidence_threshold=config.confidence_threshold,
            max_gap=config.max_gap,
            subsample="first",
            allow_head=config.allow_head,
        )
        total += full.length
        windows.extend(_split_windows(full, config.series_length))
    if not windows:
        raise TooShortError(total, config.series_length)
    return windows


def load_window_sets(manifest_entries, config: RunConfig):
    """Build per-window activity sets from parsed manifest entries.

    Returns ``(window_sets, diagnostics)``. In single-window mode one set
    is built from each activity's first window; with ``multi_window`` every
    activity contributes its first W windows, W being the smallest window
    count across activities. Per-activity failures are collected and
    reported together, one diagnostic per failed activity.
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
            windows = _activity_windows(activity_id, paths, config)
        except DataError as exc:
            failures.append(f"{activity_id}: {exc}")
            continue
        per_activity[activity_id] = windows
        diagnostics.append(
            {
                "activity": activity_id,
                "recordings": len(paths),
                "windows": len(windows),
            }
        )
    if failures:
        raise ManifestError("\n".join(failures))

    n_windows = min(len(w) for w in per_activity.values()) if config.multi_window else 1
    window_sets = [
        ActivitySet(
            activities=tuple(per_activity[aid][w] for aid, _ in manifest_entries)
        )
        for w in range(n_windows)
    ]
    return window_sets, diagnostics


def _mean_ranking(rankings: list[Ranking], fingerprint: str) -> Ranking:
    """Average subset scores across window rankings, then re-rank."""
    first = rankings[0]
    totals = {e.subset: 0.0 for e in first.entries}
    for ranking in rankings:
        for entry in ranking.entries:
            totals[entry.subset] += entry.score
    scored = [
        ScoredSubset(subset=s, score=total / len(rankings))
        for s, total in totals.items()
    ]
    return build_ranking(
        scored,
        n_activities=first.n_activities,
        series_length=first.series_length,
        roster=first.roster,
        fingerprint=fingerprint,
    )


def rank_window_sets(window_sets, config: RunConfig) -> Ranking:
    """Score all configured subsets, averaging over windows when several."""
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    fingerprint = config.fingerprint()
    rankings = [
        rank_placements(ws, subsets, fingerprint=fingerprint)
        for ws in window_sets
    ]
    if len(rankings) == 1:
        return rankings[0]
    return _mean_ranking(rankings, fingerprint)


def rank_report_payload(ranking: Ranking, config: RunConfig, diagnostics, n_windows: int) -> dict:
    return {
        "kind": "placement-ranking",
        "fingerprint": ranking.fingerprint,
        "rng": RNG_NAME,
        "config": {
            "roster": list(config.roster),
            "series_length": config.series_length,
            "sample_rate": config.sample_rate,
            "confidence_threshold": config.confidence_threshold,
            "max_gap": config.max_gap,
            "subset_sizes": list(config.subset_sizes),
            "subsample": config.subsample,
            "multi_window": config.multi_window,
            "allow_head": config.allow_head,
        },
        "tie_break": ranking.tie_break,
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


# --- compare -------------------------------------------------------------------

def run_compare(first_path, second_path, scope: str = "per-size", top_k: int = 3, out_dir=None):
    """Kendall's tau between two ranking files, per comparison scope."""
    first = pio.ranking_labels(pio.read_ranking_file(first_path))
    second = pio.ranking_labels(pio.read_ranking_file(second_path))
    reports = compare_rankings(first, second, scope=scope, top_k=top_k)
    payload = {
        "kind": "ranking-agreement",
        "scope": scope,
        "first": str(first_path),
        "second": str(second_path),
        "results": {
            key: {
                "tau": r.tau,
                "n": r.n,
                "pairs": r.pairs,
                "concordant": r.concordant,
                "discordant": r.discordant,
            }
            for key, r in sorted(reports.items())
        },
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        pio.write_tau_table(out_dir / TAU_TABLE_FILENAME, reports)
        pio.write_json_report(out_dir / TAU_REPORT_FILENAME, payload)
    return reports, payload


def render_compare_text(payload: dict) -> str:
    lines = [
        "ranking agreement (Kendall's tau)",
        f"  first:  {payload['first']}",
        f"  second: {payload['second']}",
        f"  scope:  {payload['scope']}",
    ]
    for key, r in payload["results"].items():
        lines.append(
            f"  {key}: tau={r['tau']:+.6f}  n={r['n']}"
            f"  concordant={r['concordant']}  discordant={r['discordant']}"
        )
    return "\n".join(lines) + "\n"


# --- synth ----------------------------------------------------------------------

# Fixed detail offsets used to expand the 12 sites back to 17 keypoints.
# The facial offsets sum to zero so consolidation recovers the head point;
# the hip offsets are symmetric around the pelvis.
_FACE_OFFSETS = (
    (0.0, 0.0),        # nose
    (0.01, -0.01),     # left eye
    (-0.01, -0.01),    # right eye
    (0.02, 0.01),      # left ear
    (-0.02, 0.01),     # right ear
)
_HIP_OFFSET = 0.03

# site -> COCO keypoint index for the ten pass-through sites
_DIRECT_KEYPOINTS = {
    "LS": 5, "RS": 6, "LE": 7, "RE": 8, "LW": 9,
    "RW": 10, "LK": 13, "RK": 14, "LF": 15, "RF": 16,
}


def series_to_frames(series: SkeletonSeries, drift: bool = True):
    """Expand a 12-site series into raw 17-keypoint frames.

    The five facial keypoints are placed around the head point with
    zero-sum offsets and the two hips symmetrically around the pelvis, so
    consolidation recovers the original sites. With ``drift`` a smooth
    whole-body translation is added per frame; per-frame centralization
    removes it on ingestion. All confidences are 1.0.
    """
    if set(series.sites) != set(SITE_ORDER):
        raise ValueError("keypoint export needs a series covering all 12 sites")
    row = {site: series.sites.index(site) for site in series.sites}
    L = series.length
    t = np.arange(L, dtype=np.float64) / series.sample_rate
    if drift:
        dx = 0.05 * np.sin(2.0 * np.pi * 0.2 * t) + 0.001 * t
        dy = 0.05 * np.cos(2.0 * np.pi * 0.3 * t)
    else:
        dx = np.zeros(L)
        dy = np.zeros(L)

    frames = []
    for i in range(L):
        kps = np.ones((17, 3), dtype=np.float64)
        head = series.points[row["HD"], i]
        for k, (ox, oy) in enumerate(_FACE_OFFSETS):
            kps[k, 0] = head[0] + ox + dx[i]
            kps[k, 1] = head[1] + oy + dy[i]
        pelvis = series.points[row["PE"], i]
        kps[11, 0] = pelvis[0] - _HIP_OFFSET + dx[i]
        kps[11, 1] = pelvis[1] + dy[i]
        kps[12, 0] = pelvis[0] + _HIP_OFFSET + dx[i]
        kps[12, 1] = pelvis[1] + dy[i]
        for site, k in _DIRECT_KEYPOINTS.items():
            p = series.points[row[site], i]
            kps[k, 0] = p[0] + dx[i]
            kps[k, 1] = p[1] + dy[i]
        frames.append(RawPoseFrame(t=float(t[i]), keypoints=kps))
    return frames


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
    the manifest path and a summary payload.
    """
    out_dir = Path(out_dir)
    specs = separable_specs(
        n_activities,
        discriminative_sites,
        seed=seed,
        noise_sigma=noise_sigma,
        length=length,
        sample_rate=sample_rate,
        roster=SITE_ORDER,
    )
    extension = "csv" if style == "csv" else "txt"
    manifest_lines = []
    for spec in specs:
        series = generate_activity(spec)
        frames = series_to_frames(series, drift=drift)
        filename = f"{spec.activity_id}.{extension}"
        pio.write_keypoint_file(out_dir / filename, frames, style=style)
        manifest_lines.append(f"{spec.activity_id} {filename}")
    manifest_path = out_dir / MANIFEST_FILENAME
    pio.atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    payload = {
        "kind": "synthetic-corpus",
        "rng": RNG_NAME,
        "seed": seed,
        "activities": n_activities,
        "discriminative_sites": list(discriminative_sites),
        "noise_sigma": noise_sigma,
        "length": length,
        "sample_rate": sample_rate,
        "style": style,
        "drift": drift,
        "manifest": str(manifest_path),
    }
    return manifest_path, payload


# --- report ----------------------------------------------------------------------

def render_ranking_text(rows, title: str = "placement ranking") -> str:
    """Human-readable table for parsed ranking rows."""
    lines = [title, ""]
    width = max(len(r.label) for r in rows)
    for r in rows:
        names = ", ".join(SITE_NAMES.get(s, s) for s in r.label.split("+"))
        score = "" if r.score is None else f"  score={format(r.score, '.6f')}"
        lines.append(f"  {r.rank:>3}. {r.label:<{width}}{score}  ({names})")
    return "\n".join(lines) + "\n"


def run_report(ranking_path, out_path=None) -> str:
    """Render a ranking table as human-readable text."""
    rows = pio.read_ranking_file(ranking_path)
    text = render_ranking_text(rows, title=f"placement ranking: {ranking_path}")
    if out_path is not None:
        pio.atomic_write_text(out_path, text)
    return text
