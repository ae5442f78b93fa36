"""Output checks computed apart from the program.

The reference reads the generated files with its own parser and applies
the pipeline as README.md defines it: merge the 17 keypoints to 12 sites,
move the centroid of each frame's visible sites to (0.5, 0.5), select the
roster, trim to the all-valid envelope, fill gaps linearly, decimate by the
integer stride, cut windows and average window scores. A subset's score is
the sum over activity pairs of ``|1 - cos(u, v)|``, taken pair by pair.
Nothing here imports the program.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from inputs import FIELDS, PLANTED_SITE, SITES, SOURCES

THRESHOLD = 0.3
MAX_GAP = 10
TARGET_RATE = 10.0
REL_TOL = 1e-9
SAMPLE_ROWS = 40


# --- parsing and preprocessing ------------------------------------------------

def read_keypoints(path):
    """(t[n], kp[n, 17, 3]) from a CSV or labeled keypoint file."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if "=" in lines[0]:
        rows = []
        for ln in lines:
            found = dict(tok.split("=") for tok in ln.split())
            rows.append([float(found[f]) for f in FIELDS])
        values = np.array(rows)
    else:
        values = np.array([ln.split(",") for ln in lines], dtype=float)
    return values[:, 0], values[:, 1:].reshape(-1, 17, 3)


def preprocess(t, kp, roster):
    """Gap-free (frames, sites, 2) trajectories at the target rate."""
    confident = kp[:, :, 2] >= THRESHOLD
    points = np.zeros((len(t), len(SITES), 2))
    valid = np.zeros((len(t), len(SITES)), dtype=bool)
    for s, site in enumerate(SITES):
        mask = confident[:, list(SOURCES[site])]
        count = mask.sum(axis=1)
        total = (kp[:, list(SOURCES[site]), :2] * mask[:, :, None]).sum(axis=1)
        valid[:, s] = count > 0
        points[valid[:, s], s] = total[valid[:, s]] / count[valid[:, s], None]
    seen = valid.sum(axis=1)
    has = seen > 0
    offset = (points * valid[:, :, None]).sum(axis=1)[has] / seen[has, None] - 0.5
    offset[np.abs(offset).max(axis=1) <= 1e-12] = 0.0
    points[has] -= offset[:, None, :] * valid[has][:, :, None]

    cols = [SITES.index(s) for s in roster]
    points, valid = points[:, cols], valid[:, cols]
    full = np.flatnonzero(valid.all(axis=1))
    lo, hi = full[0], full[-1] + 1
    points, valid = points[lo:hi], valid[lo:hi]
    frames = np.arange(hi - lo)
    for s in range(len(roster)):
        known = valid[:, s]
        missing = np.flatnonzero(~known)
        if missing.size == 0:
            continue
        runs = np.split(missing, np.flatnonzero(np.diff(missing) > 1) + 1)
        if max(len(r) for r in runs) > MAX_GAP:
            raise ValueError(f"gap longer than {MAX_GAP} frames at site {roster[s]}")
        for axis in range(2):
            points[missing, s, axis] = np.interp(missing, frames[known], points[known, s, axis])

    rate = 1.0 / float(np.median(np.diff(t)))
    stride = round(rate / TARGET_RATE)
    return points[::stride]


def window_sets(manifest, roster, length, multi_window):
    """Per window set, one (frames, sites, 2) array per activity."""
    per_activity = []
    for line in Path(manifest).read_text().splitlines():
        _, *names = line.split()
        windows = []
        for name in names:
            series = preprocess(*read_keypoints(Path(manifest).parent / name), roster)
            windows += [series[w * length:(w + 1) * length] for w in range(len(series) // length)]
        per_activity.append(windows)
    count = min(len(w) for w in per_activity) if multi_window else 1
    return [[acts[w] for acts in per_activity] for w in range(count)]


def subset_score(sets, roster, label):
    """Mean over window sets of the summed pairwise |1 - cos(u, v)|."""
    cols = [roster.index(s) for s in label.split("+")]
    total = 0.0
    for activities in sets:
        vectors = [a[:, cols].transpose(1, 0, 2).reshape(-1) for a in activities]
        for u, v in combinations(vectors, 2):
            total += abs(1.0 - float(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return total / len(sets)


# --- checks -----------------------------------------------------------------------

def expected_labels(roster, sizes):
    return {"+".join(c) for k in sizes for c in combinations(roster, k)}


def check_ranking(text, sets, roster, sizes, activities, rng):
    """Problems found in one ``ranking.csv``; empty when it is correct."""
    lines = text.splitlines()
    if not lines or lines[0] != "rank,score,sites":
        return ["missing header rank,score,sites"]
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != 3 for r in rows):
        return ["row without three fields"]
    ranks = [int(r[0]) for r in rows]
    scores = [float(r[1]) for r in rows]
    labels = [r[2] for r in rows]
    problems = []
    want = expected_labels(roster, sizes)
    if len(rows) != sum(math.comb(len(roster), k) for k in sizes):
        problems.append(f"{len(rows)} rows, want {sum(math.comb(len(roster), k) for k in sizes)}")
    if ranks != list(range(1, len(rows) + 1)):
        problems.append("ranks are not 1..n in order")
    if set(labels) != want or len(set(labels)) != len(labels):
        problems.append("subset labels are not each wanted subset once, in canonical order")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores increase down the table")
    top = 2.0 * math.comb(activities, 2)
    if any(not 0.0 <= s <= top for s in scores):
        problems.append(f"a score lies outside [0, {top}]")
    singles = [lab for lab in labels if "+" not in lab]
    if not singles or singles[0] != PLANTED_SITE:
        problems.append(f"best singleton is {singles[:1]}, want {PLANTED_SITE}")
    if not labels or PLANTED_SITE not in labels[0].split("+"):
        problems.append(f"top subset {labels[:1]} lacks {PLANTED_SITE}")
    if problems:
        return problems

    if len(rows) <= SAMPLE_ROWS + 2:
        picked = list(range(len(rows)))
    else:
        middle = rng.choice(np.arange(1, len(rows) - 1), size=SAMPLE_ROWS, replace=False)
        picked = [0, len(rows) - 1] + sorted(int(i) for i in middle)
    ref = {i: subset_score(sets, roster, labels[i]) for i in picked}
    for i, r in ref.items():
        if abs(scores[i] - r) > REL_TOL * max(abs(r), abs(scores[i])):
            problems.append(f"{labels[i]}: score {scores[i]!r}, reference {r!r}")
    for i, j in combinations(sorted(picked), 2):
        if ref[j] > ref[i] * (1 + REL_TOL):
            problems.append(f"{labels[i]} ranks above {labels[j]} but scores lower")
    return problems


def check_tau_table(text, expect):
    """Problems in one ``tau.csv`` against the known construction."""
    lines = text.splitlines()
    if lines[:1] != ["scope,tau,n,pairs,concordant,discordant"] or len(lines) != 2:
        return ["tau.csv is not one 'all' row under the expected header"]
    scope, tau, n, pairs, conc, disc = lines[1].split(",")
    got = {"n": int(n), "pairs": int(pairs), "concordant": int(conc), "discordant": int(disc)}
    problems = [f"{k} = {v}, want {expect[k]}" for k, v in got.items() if v != expect[k]]
    want_tau = float(Fraction(expect["concordant"] - expect["discordant"], expect["pairs"]))
    if scope != "all" or abs(float(tau) - want_tau) > 1e-12:
        problems.append(f"tau {tau}, want {want_tau!r}")
    if abs(float(tau) - expect["scipy_tau"]) > 1e-12:
        problems.append(f"tau {tau}, scipy gives {expect['scipy_tau']!r}")
    return problems


def scipy_tau(first, second):
    """Kendall's tau from scipy over the two orders, matched by item."""
    from scipy.stats import kendalltau

    pos = {label: r for r, label in enumerate(second)}
    return float(kendalltau(np.arange(len(first)), [pos[label] for label in first]).statistic)
