"""The ``validate`` and ``rank`` runs behind the CLI.

Each run function is pure apart from its explicit output files: it parses
inputs, executes the pipeline, and returns the result plus a JSON-ready
report payload. Reports carry the resolved configuration fingerprint and
never embed timestamps, so equal inputs and config give byte-identical
outputs. ``compare`` and ``report`` run in ``tablerun``, which needs no
numpy, and ``synth`` runs in ``synth``.

On Linux with two or more usable CPUs, ``rank`` loads its recordings in two
processes: a forked child parses and preprocesses the second half of the
manifest's recordings while this process does the first, and sends its
series back over a pipe. The outputs and every error are those of one
process.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import asdict, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import io as pio
from .config import RNG_NAME, RunConfig
from .errors import ComputationError, DataError, ManifestError, TooShortError
from .scoring import TIE_BREAK, enumerate_subsets, mean_scores, sort_ranking
from .sites import SITE_ORDER
from .skeleton import ActivitySet, SkeletonSeries, merge_keypoints, preprocess_recording
from .textio import ranking_entries

RANKING_FILENAME = "ranking.csv"
RANK_REPORT_FILENAME = "report.json"


def _load_recording(path, activity_id: str,
                    config: RunConfig) -> tuple[np.ndarray, SkeletonSeries]:
    """Parse one keypoint file and preprocess it: ``(kp, series)``.

    A preprocessing DataError or ComputationError is raised again with the
    file's path in front; a parse error names the file already.
    """
    t, kp = pio.parse_keypoint_file(path)
    try:
        return kp, preprocess_recording(
            t, kp, activity_id, roster=config.roster, target_rate=config.sample_rate,
            confidence_threshold=config.confidence_threshold, max_gap=config.max_gap,
            allow_head=config.allow_head,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except ComputationError as exc:
        raise ComputationError(f"{path}: {exc}") from None


# --- validate ---------------------------------------------------------------

_HEAD = SITE_ORDER.index("HD")
_ANKLES = [SITE_ORDER.index("LF"), SITE_ORDER.index("RF")]


def _head_below_ankles(kp, confidence_threshold: float) -> tuple[int, int]:
    """``(below, frames)``: of the frames where the head site and at least
    one ankle site are confident, those where the head's y is greater than
    every confident ankle's, which in image coordinates puts it lower."""
    points, valid = merge_keypoints(kp, confidence_threshold)
    frames = valid[:, _HEAD] & valid[:, _ANKLES].any(axis=1)
    ankle_y = np.where(valid[:, _ANKLES], points[:, _ANKLES, 1], -np.inf).max(axis=1)
    return int(np.count_nonzero(frames & (points[:, _HEAD, 1] > ankle_y))), int(frames.sum())


def validate_recording(path, config: RunConfig) -> tuple[int, list[str]]:
    """Parse one keypoint file and preprocess it as ``rank`` would.

    Returns its frame count and its warnings: one for coordinate and one for
    confidence values outside [0, 1], which are legal but usually mean an
    estimator or scaling problem, and one when the head lies below the
    ankles in more than half the frames that show both, which usually means
    y points up. A file that fails raises the error ``_load_recording``
    gives, naming it. Window length is not checked: ``rank`` applies it per
    activity, across recordings.
    """
    kp, _ = _load_recording(path, str(path), config)
    outside = np.count_nonzero((kp < 0.0) | (kp > 1.0), axis=(0, 1))  # x, y, confidence
    counts = {"coordinate": outside[0] + outside[1], "confidence": outside[2]}
    warnings = [f"{n} {what} values outside [0, 1]" for what, n in counts.items() if n]
    below, frames = _head_below_ankles(kp, config.confidence_threshold)
    if 2 * below > frames:
        warnings.append(f"head below the ankles in {below} of {frames} frames "
                        "(is y pointing up?)")
    return len(kp), warnings


# --- rank --------------------------------------------------------------------

def _load_series(jobs, config: RunConfig) -> list:
    """The preprocessed series of each ``(path, activity_id)`` job, or None
    where ``_load_recording`` raised."""
    loaded = []
    for path, activity_id in jobs:
        try:
            loaded.append(_load_recording(path, activity_id, config)[1])
        except Exception:  # the caller loads it again and gets the error
            loaded.append(None)
    return loaded


def _load_in_two_processes(jobs, config: RunConfig) -> list:
    """``_load_series(jobs)``, with a forked child loading the second half.

    The child sends its list back as one pickle and ends with ``os._exit``.
    If it dies or its data arrives incomplete, each of its jobs reads None.
    The child is reaped before this returns or raises. Where the process
    cannot fork, may run on one CPU only, or has fewer than two jobs, every
    job is loaded here.
    """
    if not (len(jobs) >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return _load_series(jobs, config)
    half = len(jobs) // 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _load_series(jobs, config)
    if pid == 0:  # the child
        try:
            os.close(read_fd)
            # it shares the parent's standard output and error, whose lines
            # belong to the parent alone
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_load_series(jobs[half:], config), pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            loaded = _load_series(jobs[:half], config)
            data = pipe.read()
        finally:
            # the child has sent all it will, or is no longer wanted
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    try:
        theirs = pickle.loads(data)
    except Exception:  # an empty or truncated pickle: the child died
        theirs = [None] * (len(jobs) - half)
    return loaded + theirs


def load_window_sets(manifest_entries, config: RunConfig):
    """Preprocess each activity's recordings and cut the windows the run
    scores: ``(window_sets, diagnostics)``, one diagnostic per activity.

    Every recording is parsed and preprocessed, so a bad one is reported
    naming its file; with two or more usable CPUs a forked child loads the
    second half of them (``_load_in_two_processes``). Activities are then
    taken in manifest order, and a recording that failed is loaded again
    here, so each error is the one a single process gives. Windows are
    L-frame views of the recordings' points, L being ``series_length``:
    each recording holds consecutive disjoint windows from its first frame,
    and none spans recordings. The k-th listed recordings of all activities
    are paired: window set (k, w) holds window w of each, for w below the
    smallest count at position k, and sets come in (k, w) order. With
    ``multi_window`` every set is scored, and every activity must list as
    many recordings; otherwise only the first set is built. Either way some
    position must hold a full window of every activity. Per-activity
    failures are reported together on one line, joined by ``; ``.
    """
    if len(manifest_entries) < 2:
        raise ManifestError(
            f"need at least two activities to rank, manifest lists {len(manifest_entries)}"
        )
    if config.multi_window:
        first_id, first_paths = manifest_entries[0]
        for activity_id, paths in manifest_entries[1:]:
            if len(paths) != len(first_paths):
                raise ManifestError(
                    f"multi_window pairs recordings by manifest position, but {activity_id} "
                    f"lists {len(paths)} and {first_id} lists {len(first_paths)}"
                )
    L = config.series_length
    loaded = iter(_load_in_two_processes(
        [(path, activity_id) for activity_id, paths in manifest_entries for path in paths],
        config))
    kept, failures, diagnostics = [], [], []
    for activity_id, paths in manifest_entries:
        cached = list(islice(loaded, len(paths)))
        try:
            series = [full if full is not None else _load_recording(path, activity_id, config)[1]
                      for path, full in zip(paths, cached)]
            windows = [[replace(full, points=full.points[:, a:a + L])
                        for a in range(0, full.length - L + 1, L)] for full in series]
            n_windows = sum(map(len, windows))
            if not n_windows:
                raise TooShortError(sum(full.length for full in series), L)
        except DataError as exc:
            failures.append(f"{activity_id}: {exc}")
            continue
        kept.append(windows)
        diagnostics.append({"activity": activity_id, "recordings": len(paths),
                            "windows": n_windows})
    if failures:
        raise ManifestError("; ".join(failures))
    sets = (ActivitySet(activities=ws) for position in zip(*kept) for ws in zip(*position))
    window_sets = list(sets if config.multi_window else islice(sets, 1))
    if not window_sets:
        raise ManifestError("no manifest position holds a full window of every activity")
    return window_sets, diagnostics


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
