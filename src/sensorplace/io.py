"""File formats: keypoint recordings and manifests.

Keypoint files come in two line-oriented flavors. The plain form is CSV,
one frame per line, 52 fields: ``t,kp0_x,kp0_y,kp0_c,...,kp16_x,kp16_y,
kp16_c``. The labeled form carries the same 52 fields per line as
whitespace-separated ``key=value`` tokens in any order. A parsed recording
is two arrays, timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``; the
writer takes the same arrays. Ranking tables, tau tables and JSON reports
live in ``textio``, which needs no numpy.

A keypoint file is converted in blocks of 64 data lines: each block is
joined and split with ``str`` methods, checked for its structure (52
comma-separated fields per line, or 52 ``key=value`` tokens per line split
by single ASCII spaces in the first line's key order) and converted with
one ``np.array`` call. Any block that fails its check or its conversion
sends the whole file to the line-by-line parser, so every error, and the
result for a file with another layout, comes from that parser.

Every reader turns a missing, unreadable or non-UTF-8 file, and every
malformed line, into a ``DataError`` with a one-line message; line-level
faults carry the line number. All writers go through a write-then-rename
step so consumers never observe a partial file, and no output embeds a
timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedLineError, ManifestError, NonMonotoneTimeError
from .skeleton import NUM_KEYPOINTS
from .textio import _number, _read_text, atomic_write_text, format_float

# re-exported because perfbench's tracer times rank's two writes here
from .textio import write_json_report, write_ranking_file  # noqa: F401

# Field names shared by both keypoint formats, in CSV column order.
KEYPOINT_FIELDS = ("t",) + tuple(
    f"kp{i}_{axis}" for i in range(NUM_KEYPOINTS) for axis in ("x", "y", "c")
)
FIELDS_PER_FRAME = len(KEYPOINT_FIELDS)  # 52


# --- keypoint files ---------------------------------------------------------

def _frame_values(texts, path, line_no: int) -> list[float]:
    """The 52 numbers of one frame in field order. ``_check_frames`` finds
    non-finite values over the whole file at once."""
    return [_number(x, path, line_no, f) for f, x in zip(KEYPOINT_FIELDS, texts)]


def _csv_values(line: str, path, line_no: int) -> list[float]:
    parts = line.split(",")
    if len(parts) != FIELDS_PER_FRAME:
        raise MalformedLineError(
            path, line_no, f"expected {FIELDS_PER_FRAME} fields, got {len(parts)}"
        )
    return _frame_values(parts, path, line_no)


def _labeled_values(line: str, path, line_no: int) -> list[float]:
    found = {}
    for token in line.split():
        key, sep, raw = token.partition("=")
        if not sep or not key:
            raise MalformedLineError(path, line_no, f"expected key=value, got {token!r}")
        if key not in _FIELD_INDEX:
            raise MalformedLineError(path, line_no, f"unknown field {key!r}")
        if key in found:
            raise MalformedLineError(path, line_no, f"field {key!r} repeated")
        found[key] = raw
    if len(found) != FIELDS_PER_FRAME:
        missing = [f for f in KEYPOINT_FIELDS if f not in found]
        raise MalformedLineError(
            path, line_no, f"missing fields: {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )
    return _frame_values([found[f] for f in KEYPOINT_FIELDS], path, line_no)


_FIELD_INDEX = {name: i for i, name in enumerate(KEYPOINT_FIELDS)}


def _check_frames(values: np.ndarray, line_nos: list[int], path) -> None:
    """Raise for the first line that holds a non-finite value or a
    timestamp that does not increase, as a line-by-line scan would."""
    finite = np.isfinite(values)
    t = values[:, 0]
    stalled = np.concatenate(([False], t[1:] <= t[:-1]))
    faults = np.flatnonzero(~finite.all(axis=1) | stalled)
    if not faults.size:
        return
    row = int(faults[0])
    if not finite[row].all():
        field = KEYPOINT_FIELDS[int(np.argmin(finite[row]))]
        raise MalformedLineError(path, line_nos[row], f"field {field!r}: non-finite value")
    raise NonMonotoneTimeError(path, line_nos[row], float(t[row - 1]), float(t[row]))


def _parse_lines(lines: list[str], path) -> np.ndarray:
    """The line-by-line parser, and the one source of every error.

    Returns the ``(n, 52)`` values of a file's ``lines`` in field order, or
    raises for the first faulty line.
    """
    rows: list[list[float]] = []
    line_nos: list[int] = []
    parse_line = None
    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if parse_line is None:
                parse_line = _labeled_values if "=" in line else _csv_values
            rows.append(parse_line(line, path, line_no))
            line_nos.append(line_no)
    except MalformedLineError:
        # a fault on an earlier line is reported first
        _check_frames(np.array(rows).reshape(-1, FIELDS_PER_FRAME), line_nos, path)
        raise
    if not rows:
        raise DataError(f"keypoint file {path} contains no frames")
    values = np.array(rows)
    _check_frames(values, line_nos, path)
    return values


# Data lines converted at once on the block path. A whole file at once would
# hold the text of every value; at 64 lines the block path's allocation peak
# stays below the line parser's.
_BLOCK_LINES = 64

# Bytes deleted to leave a labeled block's separators: every ASCII byte but
# '=' and whitespace. Non-ASCII bytes stay, so they fail the pattern check.
_TOKEN_BYTES = bytes(b for b in range(128) if chr(b) != "=" and not chr(b).isspace())


def _csv_block(block: list[str]) -> list[str] | None:
    """The block's value texts in field order, or None unless every line
    has exactly 52 comma-separated fields."""
    if any(line.count(",") != FIELDS_PER_FRAME - 1 for line in block):
        return None
    return ",".join(block).split(",")


def _labeled_block(block: list[str], keys: list[str]) -> list[str] | None:
    """The block's value texts in ``keys`` order, or None unless every line
    has 52 '=' and the block is ASCII ``key=value`` tokens split by single
    spaces, with the keys in ``keys`` order on every line.

    The separators alternate '=' and ' ', so every token holds one '=' and
    the pieces alternate key and value; 52 '=' per line puts 52 tokens on
    every line. Empty keys fail the key check and empty values the
    conversion. Any other whitespace, a doubled '=' or a token without one
    breaks the alternation.
    """
    n = len(block)
    if any(line.count("=") != FIELDS_PER_FRAME for line in block):
        return None
    text = " ".join(block)
    tokens = FIELDS_PER_FRAME * n
    if text.encode().translate(None, _TOKEN_BYTES) != b"= " * (tokens - 1) + b"=":
        return None
    pieces = text.replace("=", " ").split(" ")
    if pieces[0::2] != keys * n:
        return None
    return pieces[1::2]


def _parse_blocks(lines: list[str], line_nos: list[int]) -> np.ndarray | None:
    """The ``(n, 52)`` values of the data lines ``line_nos`` (1-based) in
    field order, converted ``_BLOCK_LINES`` lines at a time; None when any
    block fails its structural check or a value is not a number.

    A labeled file takes this path only when every line carries its first
    line's key order.
    """
    first = lines[line_nos[0] - 1].strip()
    keys, columns = None, slice(None)
    if "=" in first:
        keys = [token.partition("=")[0] for token in first.split()]
        if sorted(keys) != sorted(KEYPOINT_FIELDS):
            return None
        columns = np.array([_FIELD_INDEX[key] for key in keys])
    values = np.empty((len(line_nos), FIELDS_PER_FRAME))
    for start in range(0, len(line_nos), _BLOCK_LINES):
        block = [lines[i - 1].strip() for i in line_nos[start : start + _BLOCK_LINES]]
        texts = _csv_block(block) if keys is None else _labeled_block(block, keys)
        if texts is None:
            return None
        try:
            converted = np.array(texts, dtype=np.float64)
        except ValueError:
            return None
        values[start : start + len(block), columns] = converted.reshape(len(block), -1)
    return values


def parse_keypoint_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a keypoint recording in either the CSV or the labeled format.

    Returns ``(t, kp)``: timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``
    (x, y, confidence in COCO order). The format is detected from the first
    data line: lines containing ``=`` are labeled, everything else is CSV.
    Every value must be a finite number and timestamps must strictly
    increase; the first faulty line is reported by number.

    Values are converted in blocks of data lines. When a block fails a
    structural check or a conversion, the line parser reruns on the whole
    file and raises the error it finds.
    """
    lines = _read_text(path, "keypoint file").splitlines()
    line_nos = [
        i for i, raw in enumerate(lines, start=1) if (line := raw.strip()) and line[0] != "#"
    ]
    values = _parse_blocks(lines, line_nos) if line_nos else None
    if values is None:
        values = _parse_lines(lines, path)
    else:
        _check_frames(values, line_nos, path)
    return values[:, 0].copy(), values[:, 1:].reshape(-1, NUM_KEYPOINTS, 3)


@dataclass(frozen=True)
class FileCheck:
    """Validation result for one keypoint file."""

    path: str
    n_frames: int
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


def check_keypoints(path, t: np.ndarray, kp: np.ndarray) -> FileCheck:
    """Collect soft warnings on a parsed keypoint file.

    Coordinates outside [0, 1] and confidences outside [0, 1] are legal
    but reported, since they usually indicate an estimator or scaling
    problem.
    """
    warnings = []
    out_coord = int(np.count_nonzero((kp[:, :, :2] < 0.0) | (kp[:, :, :2] > 1.0)))
    out_conf = int(np.count_nonzero((kp[:, :, 2] < 0.0) | (kp[:, :, 2] > 1.0)))
    if out_coord:
        warnings.append(f"{out_coord} coordinate values outside [0, 1]")
    if out_conf:
        warnings.append(f"{out_conf} confidence values outside [0, 1]")
    return FileCheck(path=str(path), n_frames=len(t), warnings=tuple(warnings))


def format_keypoint_frame(t: float, keypoints: np.ndarray, style: str = "csv") -> str:
    """Render one frame, a timestamp and its (17, 3) keypoint row, as a
    CSV or labeled line."""
    values = [float(t)] + [float(v) for v in np.reshape(keypoints, -1)]
    if style == "csv":
        return ",".join(format_float(v) for v in values)
    if style == "labeled":
        return " ".join(
            f"{name}={format_float(v)}" for name, v in zip(KEYPOINT_FIELDS, values)
        )
    raise ValueError(f"unknown keypoint file style {style!r}")


def write_keypoint_file(path, t, kp, style: str = "csv") -> None:
    """Write timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``, one line
    per frame."""
    lines = [format_keypoint_frame(ti, row, style=style) for ti, row in zip(t, kp)]
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- manifests ---------------------------------------------------------------

def parse_manifest(path) -> list[tuple[str, list[Path]]]:
    """Parse an activity manifest: ``activity_id path [path ...]`` per line.

    Relative paths resolve against the manifest's directory. Order of
    appearance is preserved; duplicate activity ids are rejected, and so is
    a file listed twice, under one activity or two.
    """
    path = Path(path)
    text = _read_text(path, "manifest", ManifestError)

    base = path.parent
    entries: list[tuple[str, list[Path]]] = []
    seen = set()
    listed: dict[Path, int] = {}
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
        paths = [base / tok for tok in tokens[1:]]
        for recording in paths:
            key = recording.resolve()
            if key in listed:
                raise ManifestError(
                    f"{path}:{line_no}: {recording} is already listed on line {listed[key]}"
                )
            listed[key] = line_no
        entries.append((activity_id, paths))
    if not entries:
        raise ManifestError(f"manifest {path} lists no activities")
    return entries
