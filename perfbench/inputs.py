"""Seeded inputs for the benchmark workloads.

Motion comes from the program's own generator (``sensorplace.synth``), the
only program code the set-up calls; its time is reported as
``synth.generate_s``. Everything else here is the benchmark's own: the
17-keypoint expansion, the confidence dropouts and the file writers, so the
bytes the program parses do not depend on its writer.
"""

from __future__ import annotations

import dataclasses
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np

SITES = ("LW", "RW", "PE", "LF", "RF", "HD", "LE", "LK", "LS", "RE", "RK", "RS")
DEFAULT_ROSTER = SITES[:5]

# COCO-17 keypoints feeding each placement site (README.md, "Pipeline").
SOURCES = {
    "LW": (9,), "RW": (10,), "PE": (11, 12), "LF": (15,), "RF": (16,),
    "HD": (0, 1, 2, 3, 4), "LE": (7,), "LK": (13,), "LS": (5,),
    "RE": (8,), "RK": (14,), "RS": (6,),
}

# Offsets around the head and pelvis points. They sum to zero per group,
# so averaging a whole group gives the site point back.
FACE_OFFSETS = ((0.0, 0.0), (0.01, -0.01), (-0.01, -0.01), (0.02, 0.01), (-0.02, 0.01))
HIP_OFFSETS = ((-0.03, 0.0), (0.03, 0.0))

FIELDS = ("t",) + tuple(f"kp{i}_{a}" for i in range(17) for a in ("x", "y", "c"))

PLANTED_SITE = "LW"
NOISE_SIGMA = 0.01


@dataclasses.dataclass(frozen=True)
class Corpus:
    """What the set-up wrote, and what the reference needs to know of it."""

    manifest: Path
    activities: int
    files: dict  # path -> (frames, bytes)
    stride: int


def _motions(n_activities, length, rate, seed):
    """One 12-site (sites, frames, 2) array per activity, from the program's
    generator. Frequencies are chosen for 10 Hz and sampled at ``rate``."""
    # Imported here, not at the top: reference.py shares this module's
    # constants and must not load the program.
    from sensorplace.synth import generate_activity, separable_specs

    specs = separable_specs(n_activities, (PLANTED_SITE,), seed=seed,
                            noise_sigma=NOISE_SIGMA, length=length, sample_rate=10.0,
                            roster=SITES)
    if rate != 10.0:
        specs = [dataclasses.replace(s, sample_rate=rate) for s in specs]
    out = []
    for spec in specs:
        series = generate_activity(spec)
        order = [series.sites.index(s) for s in SITES]
        out.append(np.asarray(series.points)[order])
    return out


def expand_keypoints(points, rate, rng, dropouts):
    """(12, n, 2) site trajectories -> (n, 17, 3) keypoints with drift,
    seeded confidences and ``dropouts`` short low-confidence runs."""
    n = points.shape[1]
    t = np.arange(n) / rate
    drift = np.stack([0.05 * np.sin(2 * np.pi * 0.2 * t) + 0.001 * t,
                      0.05 * np.cos(2 * np.pi * 0.3 * t)], axis=1)
    kp = np.empty((n, 17, 3))
    for row, site in enumerate(SITES):
        offsets = FACE_OFFSETS if site == "HD" else HIP_OFFSETS if site == "PE" else ((0.0, 0.0),)
        for k, off in zip(SOURCES[site], offsets):
            kp[:, k, :2] = points[row] + drift + off
    kp[:, :, 2] = rng.uniform(0.6, 1.0, size=(n, 17))
    # Each dropout hides every keypoint of one site for 1-6 frames. Runs sit
    # in separate segments away from both ends, so no two merge into a gap
    # longer than the repair limit and the all-valid envelope is the whole
    # recording.
    if dropouts:
        edges = np.linspace(10, n - 10, dropouts + 1).astype(int)
        for lo, hi in zip(edges[:-1], edges[1:]):
            site = SITES[rng.integers(len(SITES))]
            span = int(rng.integers(1, 7))
            start = int(rng.integers(lo + 1, hi - span - 1))
            kp[start:start + span, SOURCES[site], 2] = rng.uniform(0.0, 0.25)
    return t, kp


def write_keypoints(path, t, kp, labeled, rng):
    """Write one recording as CSV or as labeled text in a seeded key order."""
    values = np.concatenate([t[:, None], kp.reshape(len(t), -1)], axis=1)
    fmts = ["%.6f"] + ["%.6f", "%.6f", "%.4f"] * 17
    if labeled:
        order = rng.permutation(len(FIELDS))
        fmt = " ".join(f"{FIELDS[i]}={fmts[i]}" for i in order)
        lines = [fmt % tuple(row[order]) for row in values]
    else:
        fmt = ",".join(fmts)
        lines = [fmt % tuple(row) for row in values]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(lines), len(text.encode("utf-8"))


def make_corpus(out_dir, seed, activities, subjects, frames, rate, labeled, dropouts,
                extra_frames=0):
    """Write a corpus and its manifest; return it with the time spent in
    the program's generator. Subject k's recordings are ``frames + k *
    extra_frames`` long."""
    out_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 1])
    files = {}
    per_activity = [[] for _ in range(activities)]
    synth_s = 0.0
    for subject in range(subjects):
        start = time.perf_counter()
        motions = _motions(activities, frames + subject * extra_frames, rate,
                           seed=seed * 100 + subject)
        synth_s += time.perf_counter() - start
        for a, points in enumerate(motions):
            t, kp = expand_keypoints(points, rate, rng, dropouts)
            name = f"s{subject + 1}_act{a + 1:02d}.{'txt' if labeled else 'csv'}"
            files[str(out_dir / name)] = write_keypoints(out_dir / name, t, kp, labeled, rng)
            per_activity[a].append(name)
    manifest = out_dir / "manifest.txt"
    manifest.write_text("".join(f"act{a + 1:02d} {' '.join(names)}\n"
                                for a, names in enumerate(per_activity)))
    corpus = Corpus(manifest=manifest, activities=activities, files=files,
                    stride=round(rate / 10.0))
    return corpus, synth_s


# --- compare_full ---------------------------------------------------------------

def all_subset_labels():
    return ["+".join(c) for k in range(1, len(SITES) + 1) for c in combinations(SITES, k)]


def make_rankings(out_dir, seed):
    """Two rankings over all 4095 subsets with known pair counts.

    The first is a scored table in a seeded order. The second takes the
    same order and reverses disjoint seeded blocks of it, so exactly the
    pairs inside a reversed block are discordant. Its rows are written in
    a seeded shuffled order, in the external ``rank,sites`` form.
    """
    out_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 2])
    labels = all_subset_labels()
    order = [labels[i] for i in rng.permutation(len(labels))]
    scores = np.cumsum(rng.uniform(0.001, 0.05, size=len(order)))[::-1]
    first = out_dir / "first.csv"
    first.write_text("rank,score,sites\n" + "".join(
        f"{r},{s!r},{label}\n" for r, (s, label) in enumerate(zip(scores.tolist(), order), 1)))

    second_order, discordant, pos = [], 0, 0
    while pos < len(order):
        size = int(rng.integers(1, 200))
        block = order[pos:pos + size]
        if rng.random() < 0.5:
            block = block[::-1]
            discordant += math.comb(len(block), 2)
        second_order.extend(block)
        pos += size
    rows = [f"{r},{label}\n" for r, label in enumerate(second_order, 1)]
    second = out_dir / "second.csv"
    second.write_text("rank,sites\n" + "".join(rows[i] for i in rng.permutation(len(rows))))
    n = len(order)
    return first, second, {"n": n, "pairs": math.comb(n, 2),
                           "concordant": math.comb(n, 2) - discordant,
                           "discordant": discordant,
                           "first": order, "second": second_order}
