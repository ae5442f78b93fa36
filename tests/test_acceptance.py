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

from conftest import make_series
from oracles import kendall_tau_ref, pairwise_distance_sum_ref
from sensorplace import run as runner
from sensorplace import tablerun
from sensorplace.config import RunConfig
from sensorplace.errors import TooShortError
from sensorplace.rankcorr import kendall_tau
from sensorplace.scoring import (
    PlacementSubset,
    cosine_distance,
    enumerate_subsets,
    rank_placements,
    score_subset,
)
from sensorplace.skeleton import (
    DEFAULT_ROSTER,
    ActivitySet,
    centralize,
    merge_keypoints,
    truncate_series,
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
    aset = ActivitySet(
        activities=tuple(
            make_series(f"a{i}", arr, sites=sites) for i, arr in enumerate(arrays)
        )
    )
    return aset, sites, arrays


def test_01_subset_score_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    instances = 220
    worst = 0.0
    start = time.perf_counter()
    for _ in range(instances):
        aset, sites, arrays = _random_activity_set(rng)
        got = score_subset(aset, PlacementSubset(sites)).score
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
    u = np.array([0.3, -1.2, 2.5, 4.0])
    errs = (
        cosine_distance(u, u),
        abs(cosine_distance([1.0, 0.0], [0.0, 1.0]) - 1.0),
        abs(cosine_distance(u, -u) - 2.0),
    )
    _verdict(
        "cosine distance hits 0/1/2 for identical/orthogonal/antiparallel",
        all(e <= 1e-12 for e in errs),
        f"errors {tuple(float(f'{e:.2e}') for e in errs)}",
    )


def test_03_scaling_an_activity_changes_nothing():
    rng = np.random.default_rng(7)
    arrays = rng.uniform(0.2, 0.8, size=(5, 5, 50, 2))
    aset = ActivitySet(
        activities=tuple(
            make_series(f"a{i}", arr, sites=DEFAULT_ROSTER) for i, arr in enumerate(arrays)
        )
    )
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    base = rank_placements(aset, subsets)
    worst = 0.0
    orders_equal = True
    for idx in range(arrays.shape[0]):
        for c in (1e-3, 1.0, 1e3):
            scaled = arrays.copy()
            scaled[idx] *= c
            sset = ActivitySet(
                activities=tuple(
                    make_series(f"a{i}", arr, sites=DEFAULT_ROSTER)
                    for i, arr in enumerate(scaled)
                )
            )
            r = rank_placements(sset, subsets)
            orders_equal &= r.labels() == base.labels()
            for a, b in zip(base.entries, r.entries):
                denom = max(abs(a.score), 1e-300)
                worst = max(worst, abs(a.score - b.score) / denom)
    _verdict(
        "per-activity scaling preserves scores and ranking order",
        worst <= 1e-9 and orders_equal,
        f"worst rel score change {worst:.2e}",
    )


def test_04_subset_enumeration_counts():
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    pairs = [s for s in subsets if s.size == 2]
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
        reports, _ = tablerun.run_compare(a, a, scope=scope)
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
        if rank_placements(aset, singletons).labels()[0] == "LW":
            clean_hits += 1
        noisy = make_separable_set(13, ["LW"], seed=10_000 + k, noise_sigma=0.01)
        if rank_placements(noisy, singletons).labels()[0] == "LW":
            noisy_hits += 1
    _verdict(
        "discriminative wrist site ranks first",
        clean_hits == runs and noisy_hits >= 95,
        f"clean {clean_hits}/{runs}, sigma=0.01 {noisy_hits}/{runs}",
    )


def test_07_preprocessing_invariants():
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

    series_500 = make_series("a", rng.uniform(size=(2, 500, 2)))
    ok &= truncate_series(series_500, 500).length == 500
    try:
        truncate_series(make_series("a", rng.uniform(size=(2, 499, 2))), 500)
        ok = False
    except TooShortError:
        pass
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

    manifest = runner.run_synth(
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
    manifest = runner.run_synth(
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
