"""Acceptance criteria for the placement-ranking pipeline.

Each test checks one release criterion and prints a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them). Criteria:
oracle equivalence of the subset score, exact cosine geometry, scale
invariance of the ranking, subset enumeration counts, exact rank
correlation, recovery of a known discriminative site, preprocessing
invariants, single-threaded speed, and byte-identical outputs run to
run.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from conftest import make_windows
from oracles import kendall_tau_ref, pairwise_distance_sum_ref
from sensorplace import io as pio
from sensorplace import run as runner
from sensorplace import synth, textio
from sensorplace.config import RunConfig
from sensorplace.errors import ManifestError
from sensorplace.rankcorr import kendall_tau
from sensorplace.scoring import mean_scores, rank_placements
from sensorplace.sites import enumerate_subsets
from sensorplace.skeleton import (
    DEFAULT_ROSTER,
    centralize,
    merge_keypoints,
    preprocess_recording,
)
from sensorplace.synth import make_separable_set


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_activity_set(rng):
    n = int(rng.integers(2, 7))      # activities
    s = int(rng.integers(1, 4))      # sites
    L = int(rng.integers(1, 21))     # frames
    sites = DEFAULT_ROSTER[:s]
    arrays = rng.normal(size=(n, s, L, 2)) + 2.0
    return make_windows(arrays, sites), sites, arrays


def test_01_subset_score_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    instances = 220
    worst = 0.0
    start = time.perf_counter()
    for _ in range(instances):
        aset, sites, arrays = _random_activity_set(rng)
        got = mean_scores(aset, ["+".join(sites)])[0]
        want = pairwise_distance_sum_ref([a.reshape(-1) for a in arrays])
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        "subset score equals brute-force definition",
        worst <= 1e-9 and elapsed < 5.0,
        f"{instances} instances, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_cosine_geometry_is_exact():
    # two activities at one site: the score is their one pair's |1 - cos|
    u = np.array([0.3, -1.2, 2.5, 4.0]).reshape(1, 2, 2)

    def score(a, b):
        return mean_scores(make_windows([a, b], ("LW",)), ["LW"])[0]

    errs = (
        score(u, u),
        abs(score([[[1.0, 0.0]]], [[[0.0, 1.0]]]) - 1.0),
        abs(score(u, -u) - 2.0),
    )
    _verdict(
        "cosine distance hits 0/1/2 for identical/orthogonal/antiparallel",
        all(e <= 1e-12 for e in errs),
        f"errors {tuple(float(f'{e:.2e}') for e in errs)}",
    )


def test_03_scaling_an_activity_changes_nothing():
    rng = np.random.default_rng(7)
    arrays = rng.uniform(0.2, 0.8, size=(5, 5, 50, 2))
    aset = make_windows(arrays, DEFAULT_ROSTER)
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    base = rank_placements(aset, subsets)
    worst = 0.0
    orders_equal = True
    for idx in range(arrays.shape[0]):
        for c in (1e-3, 1.0, 1e3):
            scaled = arrays.copy()
            scaled[idx] *= c
            r = rank_placements(make_windows(scaled, DEFAULT_ROSTER), subsets)
            orders_equal &= r[0] == base[0]
            for a, b in zip(base[1], r[1]):
                denom = max(abs(a), 1e-300)
                worst = max(worst, abs(a - b) / denom)
    _verdict(
        "per-activity scaling preserves scores and ranking order",
        worst <= 1e-9 and orders_equal,
        f"worst rel score change {worst:.2e}",
    )


def test_04_subset_enumeration_counts():
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    pairs = [s for s in subsets if s.count("+") + 1 == 2]
    _verdict(
        "5-site roster enumerates 31 subsets, 10 of size 2",
        len(subsets) == 31 and len(pairs) == 10,
        f"got {len(subsets)} total, {len(pairs)} pairs",
    )


def test_05_rank_correlation_is_exact(tmp_path):
    ok = True
    detail = []
    # exhaustive agreement with pair counting for n <= 6
    for n in range(2, 7):
        x = tuple(range(1, n + 1))
        items = [f"i{k}" for k in range(n)]  # item k has rank x[k] in the first ordering
        for y in permutations(x):
            second = [items[k] for k in sorted(range(n), key=y.__getitem__)]
            got = kendall_tau(items, second).tau
            if abs(got - kendall_tau_ref(x, y)) > 1e-15:
                ok = False
    detail.append("exhaustive n<=6")
    # identity and reversal exactly
    items = [f"i{k}" for k in range(6)]
    ok &= kendall_tau(items, list(items)).tau == 1.0
    ok &= kendall_tau(items, items[::-1]).tau == -1.0
    detail.append("identity=1, reversal=-1")
    # two sources publishing identical orders agree fully through `compare`
    for rows, scope in (
        (["1,LW", "2,RW", "3,LF"], "all"),
        (["1,LW+RW+PE+LF", "2,LW+RW+PE+RF", "3,LW+RW+LF+RF"], "per-size"),
    ):
        a = tmp_path / f"a-{scope}.csv"
        a.write_text("\n".join(rows) + "\n")
        reports, _ = textio.run_compare(a, a, scope=scope)
        ok &= all(r.tau == 1.0 for r in reports.values())
    detail.append("identical rankings -> tau=1.0 via compare")
    _verdict("Kendall's tau is exact", ok, "; ".join(detail))


def test_06_discriminative_site_is_recovered():
    singletons = enumerate_subsets(DEFAULT_ROSTER, sizes=(1,))
    clean_hits = 0
    noisy_hits = 0
    runs = 100
    for k in range(runs):
        aset = make_separable_set(13, ["LW"], seed=k, noise_sigma=0.0)
        if rank_placements(aset, singletons)[0][0] == "LW":
            clean_hits += 1
        noisy = make_separable_set(13, ["LW"], seed=10_000 + k, noise_sigma=0.01)
        if rank_placements(noisy, singletons)[0][0] == "LW":
            noisy_hits += 1
    _verdict(
        "discriminative wrist site ranks first",
        clean_hits == runs and noisy_hits >= 95,
        f"clean {clean_hits}/{runs}, sigma=0.01 {noisy_hits}/{runs}",
    )


def test_07_preprocessing_invariants(tmp_path):
    rng = np.random.default_rng(11)
    ok = True
    worst_centroid = 0.0
    worst_shift = 0.0
    draws = [(rng.uniform(-2.0, 3.0, size=(17, 2)), rng.uniform(-4.0, 4.0, size=2))
             for _ in range(50)]
    xy = np.array([d[0] for d in draws])
    offset = np.array([d[1] for d in draws])[:, None, :]
    points, valid = merge_keypoints(_raw(xy))
    frame = centralize(points, valid)
    centroid = np.array([f[v].mean(axis=0) for f, v in zip(frame, valid)])
    worst_centroid = float(np.abs(centroid - 0.5).max())
    moved = centralize(*merge_keypoints(_raw(xy + offset)))
    worst_shift = float(np.abs(moved - frame).max())
    ok &= worst_centroid <= 1e-9 and worst_shift <= 1e-9

    # two activities recorded for 500 frames give one 500-frame window each,
    # the whole preprocessed recording; at 499 frames neither has a window
    for frames in (500, 499):
        entries = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}{frames}.csv"
            pio.write_keypoint_file(path, np.arange(frames) / 10.0,
                                    _raw(rng.uniform(size=(frames, 17, 2))))
            entries.append((name, [path]))
        try:
            windows, _ = runner.load_window_sets(entries, RunConfig())
        except ManifestError as exc:
            ok &= frames == 499 and str(exc) == "; ".join(
                f"{name}: series has 499 frames, needs at least 500" for name in ("a", "b"))
            continue
        ok &= frames == 500 and len(windows) == 1
        for window, (name, [path]) in zip(windows[0], entries):
            full = preprocess_recording(*pio.parse_keypoint_file(path))
            ok &= window.shape[1] == 500 and np.array_equal(window, full.points)
    _verdict(
        "centralization and 500-frame boundary behave",
        ok,
        f"centroid err {worst_centroid:.2e}, translation err {worst_shift:.2e}",
    )


def _raw(xy):
    kps = np.ones(xy.shape[:-1] + (3,))
    kps[..., :2] = xy
    return kps


def test_08_ranking_speed(tmp_path):
    aset = make_separable_set(13, ["LW"], seed=0, noise_sigma=0.01)
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    rank_placements(aset, subsets)  # warm every code path once
    start = time.perf_counter()
    rank_placements(aset, subsets)
    core = time.perf_counter() - start

    manifest = synth.run_synth(
        tmp_path / "corpus", n_activities=13, discriminative_sites=("LW",),
        seed=1, noise_sigma=0.01, length=500,
    )
    config = RunConfig(subset_sizes=(1, 2, 3, 4, 5))
    start = time.perf_counter()
    runner.run_rank(manifest, config, out_dir=tmp_path / "out")
    full = time.perf_counter() - start
    _verdict(
        "31-subset ranking is fast",
        core < 1.0 and full < 5.0,
        f"scoring {core*1000:.0f}ms, full pipeline {full:.2f}s",
    )


def test_09_rank_output_is_deterministic(tmp_path):
    manifest = synth.run_synth(
        tmp_path / "corpus", n_activities=5, discriminative_sites=("LW",),
        seed=2, noise_sigma=0.005, length=500,
    )
    blobs = []
    for tag in "abcd":
        out = tmp_path / tag
        runner.run_rank(manifest, RunConfig(subset_sizes=(1, 2, 3, 4, 5)), out_dir=out)
        blobs.append((out / runner.RANKING_FILENAME).read_bytes())
    _verdict(
        "ranking tables are byte-identical run to run",
        all(b == blobs[0] for b in blobs[1:]),
        f"{len(blobs)} runs",
    )
