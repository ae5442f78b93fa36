"""Text files that need no array code: UTF-8 reading, atomic writes,
ranking and tau tables, and JSON reports; and the runs behind ``compare``
and ``report``, which only read and write ranking tables.

Ranking tables are CSV with header ``rank,score,sites`` (sites as
``+``-joined canonical ids); external rankings may omit the score column
(``rank,sites``). A table is written and read as one ordering, ``(labels,
scores)``: its labels best first and their scores. Ranks are ASCII
digits, and every number read is ASCII without ``_``. Tau tables and
``tau.json`` hold one result per comparison scope, its fields those of
``TAU_FIELDS`` in order. Every input file is read by ``_read_text`` and
``data_lines``, the one line grammar. Readers turn a missing, unreadable
or non-UTF-8 file, and every malformed line, into a ``DataError`` with a
one-line message. All writers go through a write-then-rename step so
consumers never observe a partial file, and no output embeds a timestamp.

Like the runs in ``run``, each run returns its result and writes only its
explicit output files. This module and its imports load no numpy, so
``compare`` and ``report`` start without it.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import tempfile
from pathlib import Path

from .errors import DataError, InvalidRankError, MalformedLineError, UnknownSiteError
from .sites import BLANKS, SITE_NAMES, canonical_label, number, subset_labels


def _read_text(path, what: str, error=DataError) -> str:
    """Read a UTF-8 text file, dropping a leading byte-order mark; a
    missing, unreadable or non-UTF-8 file raises ``error`` with a one-line
    message. Universal newlines read ``\\r\\n`` and ``\\r`` as ``\\n``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def data_lines(text: str) -> tuple[list[int], list[str]]:
    """The line grammar of every input file: the numbers (from 1) and texts
    of the data lines of ``text`` as ``_read_text`` returns it. Only
    ``\\n`` ends a line. Blanks (spaces and tabs) around a line are
    dropped; blank lines and lines starting with ``#`` are not data. Any
    other whitespace or control byte stays, for the reader to reject."""
    line_nos, lines = [], []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(BLANKS)
        if line and line[0] != "#":
            line_nos.append(line_no)
            lines.append(line)
    return line_nos, lines


def words(line: str) -> list[str]:
    """The tokens of a data line: its text split by runs of blanks."""
    return [word for word in line.replace("\t", " ").split(" ") if word]


# Lines joined per check: a whole keypoint file would hold its text twice
# more, and at 64 lines a reader's peak stays below the line parser's.
_GUARD_LINES = 64


def _lines_leave(lines: list[str], delete: bytes, skeleton: bytes) -> bool:
    """Whether every line leaves exactly ``skeleton`` once the bytes in
    ``delete`` are deleted: one ``bytes.translate`` over each
    ``_GUARD_LINES`` lines joined."""
    for start in range(0, len(lines), _GUARD_LINES):
        block = lines[start : start + _GUARD_LINES]
        if "\n".join(block).encode().translate(None, delete) != b"\n".join([skeleton] * len(block)):
            return False
    return True


def _number(text: str, path, line_no: int, field: str) -> float:
    """One field as a float, spelled as ``sites.number`` reads it;
    non-finite values pass, callers check them."""
    try:
        return number(text)
    except ValueError as exc:
        raise MalformedLineError(path, line_no, f"field {field!r}: {exc}") from None


def _rank(text: str, path, line_no: int) -> int:
    """A rank field as an int, spelled in ASCII digits."""
    text = text.strip(BLANKS)
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedLineError(path, line_no, f"field 'rank': not a rank: {text!r}")


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename; a
    failure removes the temp file, and an OSError raises DataError."""
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
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # its own text would name the temp file
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def format_float(x: float) -> str:
    """Shortest decimal text that parses back to the same float."""
    return repr(float(x))


# --- ranking tables ----------------------------------------------------------

RANKING_HEADER = "rank,score,sites"
EXTERNAL_HEADER = "rank,sites"


def render_ranking_table(labels, scores) -> str:
    """A scored ranking table of ``(labels, scores)`` best first, ranked by
    position."""
    rows = (
        f"{rank},{format_float(score)},{label}"
        for rank, (label, score) in enumerate(zip(labels, scores), start=1)
    )
    return "\n".join([RANKING_HEADER, *rows]) + "\n"


def write_ranking_file(path, labels, scores) -> None:
    atomic_write_text(path, render_ranking_table(labels, scores))


# The bytes of a clean table's fields: ASCII letters, digits, '+', '.' and
# '-', so no whitespace and no '_'.
_CLEAN_BYTES = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz+.-"


def _read_clean_table(lines: list[str]) -> tuple[list[str], list[float | None]] | None:
    """The ordering of a clean ranking table, from its data lines, checked
    with whole-table string operations, or None for any other table.

    A clean table has an optional header on its first data line only, then
    rows that all have the first row's 2 or 3 fields. Its ranks are ASCII
    digits forming a permutation of 1..n, its labels are canonical and
    distinct, and its scores are finite and do not rise with rank.
    Whatever it accepts, the row loop returns alike.
    """
    if lines and lines[0] in (RANKING_HEADER, EXTERNAL_HEADER):
        lines = lines[1:]
    if not lines:
        return None
    width = lines[0].count(",") + 1
    if width not in (2, 3) or not _lines_leave(lines, _CLEAN_BYTES, b"," * (width - 1)):
        return None
    fields = ",".join(lines).split(",")
    rank_texts, labels = fields[0::width], fields[width - 1::width]
    if not all(map(str.isdigit, rank_texts)):  # also rejects an empty rank
        return None
    try:
        ranks = list(map(int, rank_texts))
        scores = list(map(float, fields[1::3])) if width == 3 else [None] * len(lines)
    except ValueError:  # a rank past int()'s digit limit, or not a number
        return None
    n = len(ranks)
    if len(set(ranks)) != n or min(ranks) != 1 or max(ranks) != n:
        return None
    distinct = set(labels)
    if len(distinct) != n or not subset_labels().keys() >= distinct:
        return None
    if ranks != list(range(1, n + 1)):
        order = sorted(range(n), key=ranks.__getitem__)
        labels = [labels[i] for i in order]
        scores = [scores[i] for i in order]
    if width == 3 and not (
        all(map(math.isfinite, scores)) and all(map(operator.ge, scores, scores[1:]))
    ):
        return None
    return labels, scores


def _read_table_rows(line_nos, lines, path) -> tuple[list[str], list[float | None]]:
    """The row loop behind ``read_ranking_file``: reads any table it
    accepts and is the one source of every error."""
    ranks: dict[str, int] = {}  # label -> rank, in file order
    scores: list[float | None] = []
    row_line_nos: list[int] = []
    for line_no, line in zip(line_nos, lines):
        if line in (RANKING_HEADER, EXTERNAL_HEADER):
            continue
        parts = line.split(",")
        if len(parts) == 3:
            rank_text, score_text, label = parts
        elif len(parts) == 2:
            rank_text, label = parts
            score_text = None
        else:
            raise MalformedLineError(
                path, line_no, f"expected 2 or 3 comma-separated fields, got {len(parts)}"
            )
        rank = _rank(rank_text, path, line_no)
        score = None
        if score_text is not None:
            score = _number(score_text, path, line_no, "score")
            if not math.isfinite(score):
                raise MalformedLineError(path, line_no, "field 'score': non-finite value")
        label = label.strip(BLANKS)
        try:
            label = canonical_label(label)
        except UnknownSiteError as exc:
            raise MalformedLineError(path, line_no, f"sites {label!r}: {exc}") from None
        if label in ranks:
            raise InvalidRankError(f"{path}:{line_no}: {label} already has rank {ranks[label]}")
        ranks[label] = rank
        scores.append(score)
        row_line_nos.append(line_no)

    if not ranks:
        raise DataError(f"ranking file {path} contains no rows")
    given = list(ranks.values())
    if sorted(given) != list(range(1, len(given) + 1)):
        raise InvalidRankError(
            f"{path}: ranks must be a permutation of 1..{len(given)}, got {sorted(given)}"
        )
    order = sorted(range(len(given)), key=given.__getitem__)
    in_file_order = list(ranks)
    labels = [in_file_order[i] for i in order]
    scores = [scores[i] for i in order]
    scored = [k for k, score in enumerate(scores) if score is not None]
    for before, k in zip(scored, scored[1:]):
        if scores[k] > scores[before]:
            raise InvalidRankError(
                f"{path}:{row_line_nos[order[k]]}: score {scores[k]!r} at rank {k + 1} is above "
                f"score {scores[before]!r} at rank {before + 1}; scores must not rise with rank"
            )
    return labels, scores


def read_ranking_file(path) -> tuple[list[str], list[float | None]]:
    """Read a ranking table in either the scored or the external format.

    Accepts 3-field rows ``rank,score,sites`` or 2-field rows
    ``rank,sites``; an optional header line is skipped. Returns ``(labels,
    scores)`` best first: a row's rank, ASCII digits, is its position once
    the ranks are checked to be a permutation of 1..n, and ``scores`` holds
    each row's score or ``None`` for a row without one. A label names
    known sites, each once, and is read in canonical site order; no subset
    may be ranked twice. In rank order, no score may be above the previous
    scored row's score; equal scores are ties.

    A clean table is read in one pass over the whole text; any other goes
    through the row loop, which names the line of the first fault.
    """
    line_nos, lines = data_lines(_read_text(path, "ranking file"))
    return _read_clean_table(lines) or _read_table_rows(line_nos, lines, path)


# --- structured reports --------------------------------------------------------

def write_json_report(path, payload: dict) -> None:
    """Write a report as ``json.dumps(payload, indent=2)``, keys in the
    order given."""
    import json  # here, so that report does not load it

    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# A tau result's fields, in the order tau.csv and tau.json write them.
TAU_FIELDS = ("tau", "n", "pairs", "concordant", "discordant")


def write_tau_table(path, reports: dict) -> None:
    """Machine-readable tau table: one row per comparison scope, in the
    order of ``reports``, and one column per ``TAU_FIELDS`` entry."""
    lines = [",".join(["scope", *TAU_FIELDS])]
    lines += [",".join([key, format_float(r.tau), *(str(getattr(r, f)) for f in TAU_FIELDS[1:])])
              for key, r in reports.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- the compare command -----------------------------------------------------

TAU_TABLE_FILENAME = "tau.csv"
TAU_REPORT_FILENAME = "tau.json"


def run_compare(first_path, second_path, scope: str = "per-size", top_k: int = 3, out_dir=None):
    """Kendall's tau between two ranking files, per comparison scope. The
    scopes keep ``compare_rankings``' order (``size-1``, ``size-2``, ...)
    in the payload, ``tau.csv`` and the text."""
    from .rankcorr import compare_rankings  # here, so that report does not load it

    first, _ = read_ranking_file(first_path)
    second, _ = read_ranking_file(second_path)
    reports = compare_rankings(first, second, scope=scope, top_k=top_k)
    payload = {
        "kind": "ranking-agreement",
        "scope": scope,
        "first": str(first_path),
        "second": str(second_path),
        "results": {key: {field: getattr(r, field) for field in TAU_FIELDS}
                    for key, r in reports.items()},
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_tau_table(out_dir / TAU_TABLE_FILENAME, reports)
        write_json_report(out_dir / TAU_REPORT_FILENAME, payload)
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


# --- the report command ------------------------------------------------------

def render_ranking_text(labels, scores, title: str = "placement ranking") -> str:
    """Human-readable table of a ranking read as ``(labels, scores)``, best
    first; rows are numbered by position."""
    lines = [title, ""]
    width = max(map(len, labels))
    for rank, (label, score) in enumerate(zip(labels, scores), start=1):
        names = ", ".join(SITE_NAMES[s] for s in label.split("+"))
        shown = "" if score is None else f"  score={format(score, '.6f')}"
        lines.append(f"  {rank:>3}. {label:<{width}}{shown}  ({names})")
    return "\n".join(lines) + "\n"


def run_report(ranking_path, out_path=None) -> str:
    """Render a ranking table as human-readable text."""
    labels, scores = read_ranking_file(ranking_path)
    text = render_ranking_text(labels, scores, title=f"placement ranking: {ranking_path}")
    if out_path is not None:
        atomic_write_text(out_path, text)
    return text
