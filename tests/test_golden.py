"""Golden runs: the bytes each command writes on fixed inputs, pinned by sha256.

The inputs are built here from exact values. Coordinates are integers over
2**10, drawn with a seeded ``rng.integers``; timestamps are k / 10; a few
zero-confidence runs, shorter than the default max gap, are repaired. They
are written with ``io.write_keypoint_file``, and their digests are pinned
too, so a change to the inputs is told apart from a change to the
pipeline. ``synth`` is not used: its sin and cos come from the platform's
libm.

The runs: ``rank`` on a 13-activity CSV corpus (default roster, sizes
1-5), on all 12 sites (4095 subsets), and with ``--multi-window`` on a
labeled corpus with two equal-length recordings per activity;
``compare`` of the first and the third table with ``--scope all``,
``per-size`` and ``top --top-k 30``, and of the 12-site table with itself
``per-size``, whose 11 keys must come in size order; and ``report`` of
the first table. ``golden/SHA256SUMS`` holds the digest of every file,
and ``golden/ranking.csv`` the first table as text.

A change that moves output on purpose rewrites both files with
``PYTHONPATH=src python tests/test_golden.py`` and declares the move.
"""

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from sensorplace import cli
from sensorplace import io as pio
from sensorplace.sites import SITE_ORDER
from sensorplace.skeleton import NUM_KEYPOINTS

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = "rank/ranking.csv"  # committed as golden/ranking.csv
SIZES = "1,2,3,4,5"
RUNS = (
    ["rank", "csv/manifest.txt", "--out-dir", "rank", "--length", "100", "--sizes", SIZES],
    ["rank", "csv/manifest.txt", "--out-dir", "rank-12", "--length", "100",
     "--roster", ",".join(SITE_ORDER), "--allow-head",
     "--sizes", ",".join(str(k) for k in range(1, len(SITE_ORDER) + 1))],
    ["rank", "labeled/manifest.txt", "--out-dir", "rank-windows", "--length", "50",
     "--multi-window", "--sizes", SIZES],
    ["compare", TABLE, "rank-windows/ranking.csv", "--scope", "all", "--out-dir", "tau-all"],
    ["compare", TABLE, "rank-windows/ranking.csv", "--scope", "per-size",
     "--out-dir", "tau-per-size"],
    # below 30 rows the two tables' tops hold different subsets, an input error
    ["compare", TABLE, "rank-windows/ranking.csv", "--scope", "top", "--top-k", "30",
     "--out-dir", "tau-top"],
    ["compare", "rank-12/ranking.csv", "rank-12/ranking.csv", "--scope", "per-size",
     "--out-dir", "tau-per-size-12"],
    ["report", TABLE, "--out", "report.txt"],
)


def _recording(rng, pose, frames):
    """Timestamps k / 10 and keypoints ``(pose + noise) / 2**10``, every
    keypoint confident but for two runs of 1-3 frames on one keypoint."""
    t = np.arange(frames) / 10
    kp = np.ones((frames, NUM_KEYPOINTS, 3))
    kp[:, :, :2] = (pose + rng.integers(-32, 33, size=(frames, NUM_KEYPOINTS, 2))) / 2**10
    for _ in range(2):
        start, length = rng.integers(10, frames - 10), rng.integers(1, 4)
        kp[start:start + length, rng.integers(NUM_KEYPOINTS), 2] = 0.0
    return t, kp


def _write_corpus(root, style, recordings, frames, seed):
    """13 activities, each with its own pose, as ``recordings`` files of
    ``frames`` frames, and their manifest."""
    rng = np.random.default_rng(seed)
    root.mkdir()
    lines = []
    for a in range(1, 14):
        pose = rng.integers(256, 768, size=(NUM_KEYPOINTS, 2))
        names = [f"act{a:02d}-{r}.{'csv' if style == 'csv' else 'txt'}" for r in range(recordings)]
        for name in names:
            pio.write_keypoint_file(root / name, *_recording(rng, pose, frames), style=style)
        lines.append(" ".join([f"act{a:02d}", *names]))
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


def golden_runs(root: Path) -> dict[str, str]:
    """Build the inputs in ``root``, run every command there, and return
    the sha256 of each file, by its path relative to ``root``."""
    _write_corpus(root / "csv", "csv", recordings=1, frames=120, seed=1)
    _write_corpus(root / "labeled", "labeled", recordings=2, frames=100, seed=2)
    # run from root, so the paths that tau.json and the report text name are
    # the same on every run
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in RUNS:
            assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _pinned() -> dict[str, str]:
    lines = (GOLDEN / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def _scores(lines: list[str]) -> dict[str, float]:
    return {label: float(score) for _, score, label in (line.split(",") for line in lines[1:])}


def _table_change(golden: str, now: str) -> str:
    """Where a ranking table moved: its first differing row, and the largest
    relative change of a subset's score."""
    old, new = golden.splitlines(), now.splitlines()
    row = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    before, after = (lines[row] if row < len(lines) else "(no row)" for lines in (old, new))
    old_scores, new_scores = _scores(old), _scores(new)
    shared = old_scores.keys() & new_scores.keys()
    change, label = max((abs(new_scores[k] / old_scores[k] - 1), k) for k in shared)
    return (f"{TABLE}: first differing row {row}: {before!r} became {after!r}; "
            f"largest relative score change {change:.3g} ({label}); "
            f"{len(old_scores.keys() ^ new_scores.keys())} subsets in one table only")


def test_golden_runs_write_the_pinned_bytes(tmp_path):
    pinned = _pinned()
    assert hashlib.sha256((GOLDEN / "ranking.csv").read_bytes()).hexdigest() == pinned[TABLE]
    digests = golden_runs(tmp_path)
    moved = sorted(name for name in pinned.keys() | digests.keys()
                   if pinned.get(name) != digests.get(name))
    notes = [f"moved: {name}" for name in moved]
    if TABLE in moved and TABLE in digests:
        notes.append(_table_change((GOLDEN / "ranking.csv").read_text(),
                                   (tmp_path / TABLE).read_text()))
    assert not moved, "\n".join(notes)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_runs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / "ranking.csv").write_bytes((Path(tmp) / TABLE).read_bytes())
    (GOLDEN / "SHA256SUMS").write_text("".join(f"{d}  {name}\n" for name, d in digests.items()))
