"""Text files that need no array code: UTF-8 reading, atomic writes,
ranking and tau tables, and JSON reports.

Ranking tables are CSV with header ``rank,score,sites`` (sites as
``+``-joined canonical ids); external rankings may omit the score column
(``rank,sites``). Tau tables hold one row per comparison scope. Readers
drop a leading byte-order mark and turn a missing, unreadable or
non-UTF-8 file, and every malformed line, into a ``DataError`` with a
one-line message. All writers go through a write-then-rename step so
consumers never observe a partial file, and no output embeds a timestamp.

This module and its imports load no numpy, so ``compare`` and ``report``
start without it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, InvalidRankError, MalformedLineError, UnknownSiteError
from .sites import canonical_sites, check_roster, subset_labels


def _read_text(path, what: str, error=DataError) -> str:
    """Read a UTF-8 text file, dropping a leading byte-order mark; a
    missing, unreadable or non-UTF-8 file raises ``error`` with a one-line
    message."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _number(text: str, path, line_no: int, field: str) -> float:
    """One field as a float; non-finite values pass, callers check them."""
    try:
        return float(text)
    except ValueError:
        raise MalformedLineError(
            path, line_no, f"field {field!r}: not a number: {text.strip()!r}"
        ) from None


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
    permutation of 1..n; rows come back sorted by rank. A label names
    known sites, each once, and is read in canonical site order; no subset
    may be ranked twice.
    """
    text = _read_text(path, "ranking file")

    rows: dict[str, RankRow] = {}
    known = subset_labels()
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
            score = _number(score_text, path, line_no, "score")
            if not math.isfinite(score):
                raise MalformedLineError(path, line_no, "field 'score': non-finite value")
        if label not in known:
            try:
                label = "+".join(canonical_sites(check_roster(label.split("+"), allow_head=True)))
            except UnknownSiteError as exc:
                raise MalformedLineError(path, line_no, f"sites {label!r}: {exc}") from None
        if label in rows:
            raise InvalidRankError(f"{path}:{line_no}: {label} already has rank {rows[label].rank}")
        rows[label] = RankRow(rank=rank, label=label, score=score)

    if not rows:
        raise DataError(f"ranking file {path} contains no rows")
    ranks = sorted(r.rank for r in rows.values())
    if ranks != list(range(1, len(rows) + 1)):
        raise InvalidRankError(
            f"{path}: ranks must be a permutation of 1..{len(rows)}, got {ranks}"
        )
    return sorted(rows.values(), key=lambda r: r.rank)


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
