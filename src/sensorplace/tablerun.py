"""The runs behind ``compare`` and ``report``, which only read and write
ranking tables.

Neither run computes on arrays, and neither this module nor its imports
load numpy, so both commands start without it. Like the runs in ``run``,
each returns its result and writes only its explicit output files, and no
output embeds a timestamp.
"""

from __future__ import annotations

from pathlib import Path

from . import textio
from .rankcorr import compare_rankings
from .sites import SITE_NAMES

TAU_TABLE_FILENAME = "tau.csv"
TAU_REPORT_FILENAME = "tau.json"


# --- compare -------------------------------------------------------------------

def run_compare(first_path, second_path, scope: str = "per-size", top_k: int = 3, out_dir=None):
    """Kendall's tau between two ranking files, per comparison scope."""
    first = [row.label for row in textio.read_ranking_file(first_path)]
    second = [row.label for row in textio.read_ranking_file(second_path)]
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
        textio.write_tau_table(out_dir / TAU_TABLE_FILENAME, reports)
        textio.write_json_report(out_dir / TAU_REPORT_FILENAME, payload)
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


# --- report ----------------------------------------------------------------------

def render_ranking_text(rows, title: str = "placement ranking") -> str:
    """Human-readable table for parsed ranking rows."""
    lines = [title, ""]
    width = max(len(r.label) for r in rows)
    for r in rows:
        names = ", ".join(SITE_NAMES[s] for s in r.label.split("+"))
        score = "" if r.score is None else f"  score={format(r.score, '.6f')}"
        lines.append(f"  {r.rank:>3}. {r.label:<{width}}{score}  ({names})")
    return "\n".join(lines) + "\n"


def run_report(ranking_path, out_path=None) -> str:
    """Render a ranking table as human-readable text."""
    rows = textio.read_ranking_file(ranking_path)
    text = render_ranking_text(rows, title=f"placement ranking: {ranking_path}")
    if out_path is not None:
        textio.atomic_write_text(out_path, text)
    return text
