"""File formats: keypoint recordings, manifests, ranking tables, reports.

Keypoint files come in two line-oriented flavors. The plain form is CSV,
one frame per line, 52 fields: ``t,kp0_x,kp0_y,kp0_c,...,kp16_x,kp16_y,
kp16_c``. The labeled form carries the same 52 fields per line as
whitespace-separated ``key=value`` tokens in any order. Ranking tables are
CSV with header ``rank,score,sites`` (sites as ``+``-joined canonical ids);
external rankings may omit the score column (``rank,sites``).

All writers go through a write-then-rename step so consumers never observe
a partial file, and no output embeds a timestamp.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    InvalidRankError,
    MalformedLineError,
    ManifestError,
    NonMonotoneTimeError,
)
from .skeleton import NUM_KEYPOINTS, RawPoseFrame

# Field names shared by both keypoint formats, in CSV column order.
KEYPOINT_FIELDS = ("t",) + tuple(
    f"kp{i}_{axis}" for i in range(NUM_KEYPOINTS) for axis in ("x", "y", "c")
)
FIELDS_PER_FRAME = len(KEYPOINT_FIELDS)  # 52


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_float(x: float) -> str:
    """Shortest decimal text that parses back to the same float."""
    return repr(float(x))


# --- keypoint files ---------------------------------------------------------

def _parse_float(text: str, path, line_no: int, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedLineError(path, line_no, f"field {field!r}: not a number: {text!r}")
    if not math.isfinite(value):
        raise MalformedLineError(path, line_no, f"field {field!r}: non-finite value")
    return value


def _frame_from_values(values, path, line_no) -> RawPoseFrame:
    t = values[0]
    kps = np.array(values[1:], dtype=np.float64).reshape(NUM_KEYPOINTS, 3)
    try:
        return RawPoseFrame(t=t, keypoints=kps)
    except (ValueError, DataError) as exc:
        raise MalformedLineError(path, line_no, str(exc)) from exc


def _parse_csv_line(line: str, path, line_no: int) -> RawPoseFrame:
    parts = line.split(",")
    if len(parts) != FIELDS_PER_FRAME:
        raise MalformedLineError(
            path, line_no, f"expected {FIELDS_PER_FRAME} fields, got {len(parts)}"
        )
    values = [
        _parse_float(p.strip(), path, line_no, KEYPOINT_FIELDS[i])
        for i, p in enumerate(parts)
    ]
    return _frame_from_values(values, path, line_no)


def _parse_labeled_line(line: str, path, line_no: int) -> RawPoseFrame:
    found = {}
    for token in line.split():
        key, sep, raw = token.partition("=")
        if not sep or not key:
            raise MalformedLineError(path, line_no, f"expected key=value, got {token!r}")
        if key not in _FIELD_INDEX:
            raise MalformedLineError(path, line_no, f"unknown field {key!r}")
        if key in found:
            raise MalformedLineError(path, line_no, f"field {key!r} repeated")
        found[key] = _parse_float(raw, path, line_no, key)
    if len(found) != FIELDS_PER_FRAME:
        missing = [f for f in KEYPOINT_FIELDS if f not in found]
        raise MalformedLineError(
            path, line_no, f"missing fields: {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )
    return _frame_from_values([found[f] for f in KEYPOINT_FIELDS], path, line_no)


_FIELD_INDEX = {name: i for i, name in enumerate(KEYPOINT_FIELDS)}


def parse_keypoint_file(path) -> list[RawPoseFrame]:
    """Parse a keypoint recording in either the CSV or the labeled format.

    The format is detected from the first data line: lines containing
    ``=`` are labeled, everything else is CSV. Timestamps must strictly
    increase; violations raise with the offending line number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read keypoint file {path}: {exc}") from exc

    frames: list[RawPoseFrame] = []
    labeled = None
    prev_t = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if labeled is None:
            labeled = "=" in line
        frame = (
            _parse_labeled_line(line, path, line_no)
            if labeled
            else _parse_csv_line(line, path, line_no)
        )
        if prev_t is not None and frame.t <= prev_t:
            raise NonMonotoneTimeError(path, line_no, prev_t, frame.t)
        prev_t = frame.t
        frames.append(frame)
    if not frames:
        raise DataError(f"keypoint file {path} contains no frames")
    return frames


@dataclass(frozen=True)
class FileCheck:
    """Validation result for one keypoint file."""

    path: str
    n_frames: int
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


def validate_keypoint_file(path) -> FileCheck:
    """Parse a keypoint file and collect soft warnings.

    Malformed lines and non-monotone timestamps still raise; coordinates
    outside [0, 1] and confidences outside [0, 1] are legal but reported,
    since they usually indicate an estimator or scaling problem.
    """
    frames = parse_keypoint_file(path)
    warnings = []
    out_coord = 0
    out_conf = 0
    for frame in frames:
        xy = frame.keypoints[:, :2]
        conf = frame.keypoints[:, 2]
        out_coord += int(np.count_nonzero((xy < 0.0) | (xy > 1.0)))
        out_conf += int(np.count_nonzero((conf < 0.0) | (conf > 1.0)))
    if out_coord:
        warnings.append(f"{out_coord} coordinate values outside [0, 1]")
    if out_conf:
        warnings.append(f"{out_conf} confidence values outside [0, 1]")
    return FileCheck(path=str(path), n_frames=len(frames), warnings=tuple(warnings))


def format_keypoint_frame(frame: RawPoseFrame, style: str = "csv") -> str:
    """Render one frame as a CSV or labeled line."""
    values = [frame.t] + [float(v) for v in frame.keypoints.reshape(-1)]
    if style == "csv":
        return ",".join(format_float(v) for v in values)
    if style == "labeled":
        return " ".join(
            f"{name}={format_float(v)}" for name, v in zip(KEYPOINT_FIELDS, values)
        )
    raise ValueError(f"unknown keypoint file style {style!r}")


def write_keypoint_file(path, frames, style: str = "csv") -> None:
    lines = [format_keypoint_frame(f, style=style) for f in frames]
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- manifests ---------------------------------------------------------------

def parse_manifest(path) -> list[tuple[str, list[Path]]]:
    """Parse an activity manifest: ``activity_id path [path ...]`` per line.

    Relative paths resolve against the manifest's directory. Order of
    appearance is preserved; duplicate activity ids are rejected.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc

    base = path.parent
    entries: list[tuple[str, list[Path]]] = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ManifestError(
                f"{path}:{line_no}: expected 'activity_id path [path ...]', got {line!r}"
            )
        activity_id = tokens[0]
        if activity_id in seen:
            raise ManifestError(f"{path}:{line_no}: duplicate activity id {activity_id!r}")
        seen.add(activity_id)
        entries.append((activity_id, [base / tok for tok in tokens[1:]]))
    if not entries:
        raise ManifestError(f"manifest {path} lists no activities")
    return entries


# --- ranking tables ----------------------------------------------------------

RANKING_HEADER = "rank,score,sites"
EXTERNAL_HEADER = "rank,sites"


@dataclass(frozen=True)
class RankRow:
    """One parsed row of a ranking table."""

    rank: int
    label: str
    score: float | None = None


def render_ranking_table(ranking) -> str:
    lines = [RANKING_HEADER]
    for pos, entry in enumerate(ranking.entries, start=1):
        lines.append(f"{pos},{format_float(entry.score)},{entry.subset.label}")
    return "\n".join(lines) + "\n"


def write_ranking_file(path, ranking) -> None:
    atomic_write_text(path, render_ranking_table(ranking))


def read_ranking_file(path) -> list[RankRow]:
    """Read a ranking table in either the scored or the external format.

    Accepts 3-field rows ``rank,score,sites`` or 2-field rows
    ``rank,sites``; an optional header line is skipped. Ranks must be a
    permutation of 1..n; rows come back sorted by rank.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read ranking file {path}: {exc}") from exc

    rows: list[RankRow] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in (RANKING_HEADER, EXTERNAL_HEADER):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 3:
            rank_text, score_text, label = parts
        elif len(parts) == 2:
            rank_text, label = parts
            score_text = None
        else:
            raise MalformedLineError(
                path, line_no, f"expected 2 or 3 comma-separated fields, got {len(parts)}"
            )
        try:
            rank = int(rank_text)
        except ValueError:
            raise MalformedLineError(path, line_no, f"bad rank {rank_text!r}")
        score = None
        if score_text is not None:
            score = _parse_float(score_text, path, line_no, "score")
        if not label:
            raise MalformedLineError(path, line_no, "empty sites field")
        rows.append(RankRow(rank=rank, label=label, score=score))

    if not rows:
        raise DataError(f"ranking file {path} contains no rows")
    ranks = sorted(r.rank for r in rows)
    if ranks != list(range(1, len(rows) + 1)):
        raise InvalidRankError(
            f"{path}: ranks must be a permutation of 1..{len(rows)}, got {ranks}"
        )
    labels = [r.label for r in rows]
    if len(set(labels)) != len(labels):
        raise InvalidRankError(f"{path}: duplicate site subsets in ranking")
    return sorted(rows, key=lambda r: r.rank)


def ranking_labels(rows: list[RankRow]) -> list[str]:
    """Subset labels in rank order from parsed ranking rows."""
    return [r.label for r in rows]


# --- structured reports --------------------------------------------------------

def write_json_report(path, payload: dict) -> None:
    """Write a report as pretty-printed JSON (stable key order as given)."""
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_tau_table(path, reports: dict) -> None:
    """Machine-readable tau table: one row per comparison scope."""
    lines = ["scope,tau,n,pairs,concordant,discordant"]
    for key in sorted(reports):
        r = reports[key]
        lines.append(
            f"{key},{format_float(r.tau)},{r.n},{r.pairs},{r.concordant},{r.discordant}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
