"""Text files that need no array code: UTF-8 reading, atomic writes,
ranking and tau tables, and JSON reports.

Ranking tables are CSV with header ``rank,score,sites`` (sites as
``+``-joined canonical ids); external rankings may omit the score column
(``rank,sites``). A table is written and read as one ordering, ``(labels,
scores)``: its labels best first and their scores. Ranks are ASCII
digits, and every number read is ASCII without ``_``. Tau tables hold one
row per comparison scope. Readers drop a leading byte-order mark and turn
a missing, unreadable or non-UTF-8 file, and every malformed line, into a
``DataError`` with a one-line message. All writers go through a
write-then-rename step so consumers never observe a partial file, and no
output embeds a timestamp.

This module and its imports load no numpy, so ``compare`` and ``report``
start without it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

from .errors import DataError, InvalidRankError, MalformedLineError, UnknownSiteError
from .sites import canonical_label, subset_labels


def _read_text(path, what: str, error=DataError) -> str:
    """Read a UTF-8 text file, dropping a leading byte-order mark; a
    missing, unreadable or non-UTF-8 file raises ``error`` with a one-line
    message."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _number(text: str, path, line_no: int, field: str) -> float:
    """One field as a float, spelled in ASCII without ``_``; non-finite
    values pass, callers check them."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise MalformedLineError(path, line_no, f"field {field!r}: not a number: {text.strip()!r}")


def _rank(text: str, path, line_no: int) -> int:
    """A rank field as an int, spelled in ASCII digits."""
    text = text.strip()
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedLineError(path, line_no, f"field 'rank': not a rank: {text!r}")


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
    """
    text = _read_text(path, "ranking file")

    known = subset_labels()
    ranks: dict[str, int] = {}  # label -> rank, in file order
    scores: list[float | None] = []
    line_nos: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#" or line in (RANKING_HEADER, EXTERNAL_HEADER):
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
        label = label.strip()
        if label not in known:
            try:
                label = canonical_label(label)
            except UnknownSiteError as exc:
                raise MalformedLineError(path, line_no, f"sites {label!r}: {exc}") from None
        if label in ranks:
            raise InvalidRankError(f"{path}:{line_no}: {label} already has rank {ranks[label]}")
        ranks[label] = rank
        scores.append(score)
        line_nos.append(line_no)

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
                f"{path}:{line_nos[order[k]]}: score {scores[k]!r} at rank {k + 1} is above "
                f"score {scores[before]!r} at rank {before + 1}; scores must not rise with rank"
            )
    return labels, scores


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
