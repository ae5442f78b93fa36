"""The ``validate`` and ``rank`` runs behind the CLI.

Each run function is pure apart from its explicit output files: it parses
inputs, executes the pipeline, and returns the result plus a JSON-ready
report payload. Reports carry the resolved configuration fingerprint and
never embed timestamps, so equal inputs and config give byte-identical
outputs. ``compare`` and ``report`` run in ``textio``, which needs no
numpy, and ``synth`` runs in ``synth``.

On Linux with two or more usable CPUs, ``rank`` and ``validate`` load their
recordings in two processes: a forked child parses and preprocesses the
second half of them while this process does the first, and sends back over
a pipe each one's result or error. The outputs and every error are those of
one process.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import numpy as np

from . import io as pio
from .config import RunConfig
from .errors import ComputationError, DataError, ManifestError
from .scoring import TIE_BREAK, rank_placements
from .sites import SITE_ORDER, enumerate_subsets
from .skeleton import WindowSets, merge_keypoints, preprocess_recording

RANKING_FILENAME = "ranking.csv"
RANK_REPORT_FILENAME = "report.json"


def _load_recording(path, config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Parse one keypoint file and preprocess it: ``(kp, points)``, its raw
    keypoints and the (sites, frames, 2) points of its ``SkeletonSeries``.

    A preprocessing DataError or ComputationError is raised again with the
    file's path in front; a parse error names the file already.
    """
    t, kp = pio.parse_keypoint_file(path)
    try:
        return kp, preprocess_recording(
            t, kp, roster=config.roster, target_rate=config.sample_rate,
            confidence_threshold=config.confidence_threshold, max_gap=config.max_gap,
            allow_head=config.allow_head,
        ).points
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
    kp, _ = _load_recording(path, config)
    outside = np.count_nonzero((kp < 0.0) | (kp > 1.0), axis=(0, 1))  # x, y, confidence
    counts = {"coordinate": outside[0] + outside[1], "confidence": outside[2]}
    warnings = [f"{n} {what} values outside [0, 1]" for what, n in counts.items() if n]
    below, frames = _head_below_ankles(kp, config.confidence_threshold)
    if 2 * below > frames:
        warnings.append(f"head below the ankles in {below} of {frames} frames "
                        "(is y pointing up?)")
    return len(kp), warnings


# --- rank --------------------------------------------------------------------

def _load_each(load, jobs) -> list:
    """``load(*job)`` for each job, or the DataError or ComputationError it
    raised as that family's base class with the same message, which pickles
    and holds no traceback. Any other exception propagates: a fault."""
    loaded = []
    for job in jobs:
        try:
            loaded.append(load(*job))
        except (DataError, ComputationError) as exc:
            loaded.append((ComputationError if isinstance(exc, ComputationError)
                           else DataError)(str(exc)))
    return loaded


def _load_in_two_processes(load, jobs) -> list:
    """``_load_each(load, jobs)``, a forked child loading the second half.

    The child sends its list back as one pickle and ends with ``os._exit``.
    If it raises, dies or its data arrives incomplete, its jobs are loaded
    here instead. The child is reaped before this returns or raises. Where
    the process cannot fork, may run on one CPU only, or has fewer than two
    jobs, every job is loaded here.
    """
    if not (len(jobs) >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return _load_each(load, jobs)
    half = len(jobs) // 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _load_each(load, jobs)
    if pid == 0:  # the child
        try:
            os.close(read_fd)
            # it shares the parent's standard output and error, whose lines
            # belong to the parent alone
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_load_each(load, jobs[half:]), pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            loaded = _load_each(load, jobs[:half])
            data = pipe.read()
        finally:
            # the child has sent all it will, or is no longer wanted
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    try:
        theirs = pickle.loads(data)
    except Exception:  # an empty or truncated pickle: the child died
        theirs = _load_each(load, jobs[half:])
    return loaded + theirs


def _reject_copies(paths, recordings) -> None:
    """Raise a DataError naming the first two ``paths`` whose ``recordings``
    are equal, grouped by shape and hash of bytes: a copy adds 0 to every score."""
    seen = {}
    for i, points in enumerate(recordings):
        group = seen.setdefault((points.shape, hash(points.tobytes())), [])
        for j in group:
            if np.array_equal(recordings[j], points):
                raise DataError(f"{paths[j]} and {paths[i]} hold the same points "
                                "after preprocessing; is one a copy of the other?")
        group.append(i)


def load_window_sets(manifest_entries, config: RunConfig):
    """Preprocess each activity's recordings and cut the windows the run
    scores: ``(points, diagnostics)``, the points of a ``WindowSets`` over
    the manifest's ids and the roster, and one diagnostic per activity.

    Every recording is parsed and preprocessed once, so a bad one is
    reported naming its file; with two or more usable CPUs a forked child
    loads the second half of them (``_load_in_two_processes``). Activities
    are then taken in manifest order, each failing on its first recording's
    error, as in one process; their failures are reported together on one
    line, joined by ``; ``. Two recordings with equal points are then an
    error (``_reject_copies``). Each recording holds consecutive disjoint
    windows of ``series_length`` frames from its first frame. Window set
    (k, w) holds window w of the k-th listed recording of every activity,
    for w below the smallest count at position k, and sets come in (k, w)
    order. With ``multi_window`` every set is kept, and every activity must
    list as many recordings; otherwise only the first set is.
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
    all_paths = [path for _, paths in manifest_entries for path in paths]
    loaded = _load_in_two_processes(lambda path: _load_recording(path, config)[1],
                                    [(path,) for path in all_paths])
    recordings = iter(loaded)
    kept, failures, diagnostics = [], [], []
    for activity_id, paths in manifest_entries:
        series = list(islice(recordings, len(paths)))
        try:
            if errors := [full for full in series if isinstance(full, Exception)]:
                raise errors[0]
            n_windows = sum(full.shape[1] // L for full in series)
            if not n_windows:
                frames = sum(full.shape[1] for full in series)
                raise DataError(f"series has {frames} frames, needs at least {L}")
        except DataError as exc:
            failures.append(f"{activity_id}: {exc}")
            continue
        kept.append(series)
        diagnostics.append({"activity": activity_id, "recordings": len(paths),
                            "windows": n_windows})
    if failures:
        raise ManifestError("; ".join(failures))
    _reject_copies(all_paths, loaded)
    sets = [(k, w) for k, position in enumerate(zip(*kept))
            for w in range(min(full.shape[1] for full in position) // L)]
    if not sets:
        raise ManifestError("no manifest position holds a full window of every activity")
    sets = sets if config.multi_window else sets[:1]
    points = np.empty((len(sets), len(kept), len(config.roster), L, 2))
    for s, (k, w) in enumerate(sets):
        for a, recordings in enumerate(kept):
            points[s, a] = recordings[k][:, w * L:(w + 1) * L]
    return points, diagnostics


def rank_report_payload(config: RunConfig, diagnostics, n_windows: int) -> dict:
    """The report of a ranking, which explains the run; the ranking itself
    goes to the ranking table only. ``diagnostics`` holds one entry per
    activity."""
    return {
        "kind": "placement-ranking",
        "fingerprint": config.fingerprint(),
        "config": asdict(config),
        "tie_break": TIE_BREAK,
        "n_activities": len(diagnostics),
        "n_windows": n_windows,
        "activities": diagnostics,
    }


def run_rank(manifest_path, config: RunConfig, out_dir=None):
    """Full pipeline: manifest -> preprocess -> score -> ranked placements.

    Returns ``((labels, scores), payload)``, the ranking best first; when
    ``out_dir`` is given, also writes the ranking table and the structured
    report there. Subsets are enumerated before the manifest is opened.
    """
    labels = enumerate_subsets(config.roster, config.subset_sizes)
    entries = pio.parse_manifest(manifest_path)
    points, diagnostics = load_window_sets(entries, config)
    ids = tuple(activity_id for activity_id, _ in entries)
    labels, scores = rank_placements(WindowSets(ids, config.roster, points), labels)
    payload = rank_report_payload(config, diagnostics, len(points))
    if out_dir is not None:
        out_dir = Path(out_dir)
        pio.write_ranking_file(out_dir / RANKING_FILENAME, labels, scores)
        pio.write_json_report(out_dir / RANK_REPORT_FILENAME, payload)
    return (labels, scores), payload
