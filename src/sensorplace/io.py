"""File formats: keypoint recordings and manifests.

Keypoint files come in two line-oriented flavors. The plain form is CSV,
one frame per line, 52 fields: ``t,kp0_x,kp0_y,kp0_c,...,kp16_x,kp16_y,
kp16_c``. The labeled form carries the same 52 fields per line as
``key=value`` tokens split by blanks, in any order. A parsed recording
is two arrays, timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``; the
writer, which ``synth`` uses, takes the same arrays. ``validate`` makes
its own checks of the values. Ranking tables, tau tables and JSON reports
live in ``textio``, which needs no numpy.

A keypoint file's data lines are converted by one call to numpy's C text
reader, ``np.loadtxt``, once ``bytes.translate`` keeps them to what the
line parser accepts: deleting every printable ASCII byte but ``_`` and
the separators must leave each line the format's separators alone, so
values are printable ASCII without ``_`` (numpy skips some control bytes
that ``float()`` rejects). A CSV line leaves 51 commas; a labeled line
leaves the first line's ``_=`` or ``=`` per token split by single spaces,
and its keys must come in the first line's order. A reader declines a
file that fails a check or a conversion by raising ``ValueError``; the
line-by-line parser then reads it, so every error, and the result for a
file with another layout, comes from that parser.

Every reader takes its data lines from ``textio.data_lines`` and turns a
missing, unreadable or non-UTF-8 file, and every malformed line, into a
``DataError`` with a one-line message; line-level faults carry the line
number. All writers go through a write-then-rename step so consumers
never observe a partial file, and no output embeds a timestamp.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedLineError, ManifestError
from .sites import _rule
from .skeleton import NUM_KEYPOINTS
from .textio import (_lines_leave, _number, _read_text, atomic_write_text, data_lines,
                     format_float, words)

# re-exported because perfbench's tracer times rank's two writes here
from .textio import write_json_report, write_ranking_file  # noqa: F401

# Field names shared by both keypoint formats, in CSV column order.
KEYPOINT_FIELDS = ("t",) + tuple(
    f"kp{i}_{axis}" for i in range(NUM_KEYPOINTS) for axis in ("x", "y", "c")
)
FIELDS_PER_FRAME = len(KEYPOINT_FIELDS)  # 52
_FIELD_INDEX = {name: i for i, name in enumerate(KEYPOINT_FIELDS)}


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
    for token in words(line):
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
    raise MalformedLineError(
        path, line_nos[row],
        f"timestamp {float(t[row])!r} does not increase over {float(t[row - 1])!r}",
    )


def _parse_lines(line_nos: list[int], lines: list[str], path, parse_line) -> np.ndarray:
    """The line-by-line parser, and the one source of every error.

    Returns the ``(n, 52)`` values of a file's numbered data ``lines`` in
    field order, each read by ``parse_line`` (``_csv_values`` or
    ``_labeled_values``), or raises for the first faulty line.
    """
    rows: list[list[float]] = []
    try:
        for line_no, line in zip(line_nos, lines):
            rows.append(parse_line(line, path, line_no))
    except MalformedLineError:
        # a fault on an earlier line is reported first
        _check_frames(np.array(rows).reshape(-1, FIELDS_PER_FRAME), line_nos, path)
        raise
    values = np.array(rows)
    _check_frames(values, line_nos, path)
    return values


# Bytes deleted to leave what numpy's reader may read differently from the
# line parser, and a format's separators: every printable ASCII byte but '_'
# and the separators. Non-ASCII bytes, '_' and control bytes stay; numpy
# skips '\x1f' as whitespace where float() rejects it.
_CSV_BYTES = bytes(range(0x20, 0x7F)).translate(None, b"_,")
_TOKEN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b"_= ")

# One labeled line with each '=' read as a space: 52 (key, value) pairs. A
# key longer than the longest field name stays longer after the truncation.
_PAIRS = np.dtype([("pairs", [("key", "S7"), ("value", "f8")], (FIELDS_PER_FRAME,))])


def _read_csv(data: list[str]) -> np.ndarray:
    """The ``(n, 52)`` values of CSV data lines; raises ValueError unless
    every line is 52 numbers in ASCII without ``_`` or control bytes."""
    if not _lines_leave(data, _CSV_BYTES, b"," * (FIELDS_PER_FRAME - 1)):
        raise ValueError("not 52 ASCII fields per line")
    return np.loadtxt(data, delimiter=",", comments=None, ndmin=2)


def _read_labeled(data: list[str]) -> np.ndarray:
    """The ``(n, 52)`` values of labeled data lines in field order; raises
    ValueError unless every line is 52 ASCII ``key=value`` tokens split by
    single spaces, in the first line's key order, with no ``_`` in a value.

    Each line must leave the first line's skeleton once all but ``_``,
    ``=`` and the space are deleted: ``_=`` for a key with ``_``, ``=`` for
    ``t``, and single spaces between. So every token holds one '=' and the
    pieces alternate key and value; numpy's reader takes exactly 104
    pieces per line. Empty keys fail the key check and empty values the
    conversion. Any other whitespace or control byte, a doubled '=', a
    token without one, or a ``_`` outside a key breaks the skeleton.
    """
    keys = [token.partition("=")[0] for token in data[0].split(" ")]
    if sorted(keys) != sorted(KEYPOINT_FIELDS):
        raise ValueError("the first line does not hold the 52 fields")
    skeleton = " ".join("_=" if "_" in key else "=" for key in keys).encode()
    if not _lines_leave(data, _TOKEN_BYTES, skeleton):
        raise ValueError("a line leaves another skeleton")
    pairs = np.loadtxt((line.replace("=", " ") for line in data), dtype=_PAIRS,
                       delimiter=" ", comments=None, ndmin=1)["pairs"]
    if not (pairs["key"] == np.array(keys, dtype="S7")).all():
        del pairs  # the line parser runs while this error's traceback lives
        raise ValueError("a line's keys are not in the first line's order")
    values = np.empty((len(data), FIELDS_PER_FRAME))
    values[:, [_FIELD_INDEX[key] for key in keys]] = pairs["value"]
    return values


def parse_keypoint_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a keypoint recording in either the CSV or the labeled format.

    Returns ``(t, kp)``: timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``
    (x, y, confidence in COCO order). The format is detected from the first
    data line: lines containing ``=`` are labeled, everything else is CSV.
    Every value must be a finite number and timestamps must strictly
    increase; the first faulty line is reported by number.

    numpy's text reader converts the data lines. When they fail its
    structural checks or a conversion, the line parser reruns on them and
    raises the error it finds.
    """
    line_nos, lines = data_lines(_read_text(path, "keypoint file"))
    if not lines:
        raise DataError(f"keypoint file {path} contains no frames")
    labeled = "=" in lines[0]
    try:
        values = (_read_labeled if labeled else _read_csv)(lines)
    except ValueError:
        values = _parse_lines(line_nos, lines, path, _labeled_values if labeled else _csv_values)
    else:
        _check_frames(values, line_nos, path)
    return values[:, 0].copy(), values[:, 1:].reshape(-1, NUM_KEYPOINTS, 3)


_check_style = _rule(lambda s: s in ("csv", "labeled"),
                     "style must be csv or labeled, got {!r}", str)


def format_keypoint_frame(t: float, keypoints: np.ndarray, style: str = "csv") -> str:
    """Render one frame, a timestamp and its (17, 3) keypoint row, as a
    CSV or labeled line."""
    style = _check_style(style)
    values = [float(t)] + [float(v) for v in np.reshape(keypoints, -1)]
    if style == "csv":
        return ",".join(format_float(v) for v in values)
    return " ".join(f"{name}={format_float(v)}" for name, v in zip(KEYPOINT_FIELDS, values))


def write_keypoint_file(path, t, kp, style: str = "csv") -> None:
    """Write timestamps ``t[n]`` and keypoints ``kp[n, 17, 3]``, one line
    per frame in ``style``, which is checked before any file is written."""
    style = _check_style(style)
    lines = [format_keypoint_frame(ti, row, style=style) for ti, row in zip(t, kp)]
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- manifests ---------------------------------------------------------------

def parse_manifest(path) -> list[tuple[str, list[Path]]]:
    """Parse an activity manifest: ``activity_id path [path ...]`` per line.

    Relative paths resolve against the manifest's directory. Order of
    appearance is preserved; duplicate activity ids are rejected, and so is
    a file listed twice, under one activity or two. Tokens are split by
    blanks and hold only printable characters.
    """
    path = Path(path)
    text = _read_text(path, "manifest", ManifestError)

    base = path.parent
    entries: list[tuple[str, list[Path]]] = []
    seen = set()
    listed: dict[str, int] = {}  # real path -> line
    for line_no, line in zip(*data_lines(text)):
        tokens = words(line)
        if len(tokens) < 2 or not "".join(tokens).isprintable():
            raise ManifestError(
                f"{path}:{line_no}: expected 'activity_id path [path ...]', got {line!r}"
            )
        activity_id = tokens[0]
        if activity_id in seen:
            raise ManifestError(f"{path}:{line_no}: duplicate activity id {activity_id!r}")
        seen.add(activity_id)
        paths = [base / tok for tok in tokens[1:]]
        for recording in paths:
            key = os.path.realpath(recording)  # unlike Path.resolve, never raises on a loop
            if key in listed:
                raise ManifestError(
                    f"{path}:{line_no}: {recording} is already listed on line {listed[key]}"
                )
            listed[key] = line_no
        entries.append((activity_id, paths))
    if not entries:
        raise ManifestError(f"manifest {path} lists no activities")
    return entries
