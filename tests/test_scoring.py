"""Cosine distance, subset scoring, and ranking."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_series
from oracles import pairwise_distance_sum_ref
from sensorplace import _kernels
from sensorplace.errors import (
    ComputationError,
    ConfigError,
    LengthMismatchError,
    SiteNotPresentError,
    ZeroNormError,
    ZeroVectorError,
)
from sensorplace.scoring import (
    SUBSET_CHUNK,
    PlacementSubset,
    _site_grams,
    build_ranking,
    cosine_distance,
    enumerate_subsets,
    max_score,
    rank_placements,
    score_subset,
    score_subsets,
    ScoredSubset,
)
from sensorplace.sites import canonical_sites
from sensorplace.skeleton import ActivitySet, DEFAULT_ROSTER, SITE_ORDER
from sensorplace.synth import make_separable_set


def _set_from_arrays(arrays, sites):
    return ActivitySet(
        activities=tuple(
            make_series(f"a{i}", arr, sites=sites) for i, arr in enumerate(arrays)
        )
    )


# --- cosine distance -------------------------------------------------------------

def test_cosine_identical_orthogonal_antiparallel():
    u = np.array([1.0, 2.0, 3.0])
    assert cosine_distance(u, u) <= 1e-12
    assert abs(cosine_distance([1.0, 0.0], [0.0, 1.0]) - 1.0) <= 1e-12
    assert abs(cosine_distance(u, -u) - 2.0) <= 1e-12


def test_cosine_rejects_zero_norm_and_length_mismatch():
    with pytest.raises(ZeroNormError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(LengthMismatchError):
        cosine_distance([1.0, 0.0, 0.0], [1.0, 0.0])


nonzeroish = st.one_of(
    st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3)
)


@given(
    st.lists(nonzeroish, min_size=2, max_size=16).filter(lambda vs: any(vs)),
    st.floats(1e-3, 1e3),
)
def test_cosine_positive_scale_invariance(values, c):
    u = np.asarray(values)
    v = np.linspace(1.0, 2.0, u.size)
    d1 = cosine_distance(u, v)
    d2 = cosine_distance(u * c, v)
    assert d2 == pytest.approx(d1, rel=1e-9, abs=1e-12)


@given(st.integers(0, 1000))
def test_cosine_symmetry_and_range(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 8))
    d = cosine_distance(u, v)
    assert d == cosine_distance(v, u)
    assert 0.0 <= d <= 2.0 + 1e-12


# --- subset scoring -----------------------------------------------------------------

def test_score_three_orthogonal_activities_sums_to_three():
    # one site, one frame: activity vectors (1,0), (0,1), (-1,0) pairwise
    # distances 1 + 2 + 1... use truly orthogonal triple in 4 dims instead
    arrays = [
        [[[1.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 1.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [1.0, 0.0]]],
    ]
    aset = _set_from_arrays(arrays, sites=("LW",))
    scored = score_subset(aset, PlacementSubset(("LW",)))
    assert scored.score == pytest.approx(3.0, abs=1e-12)


def test_score_identical_activities_is_zero():
    arr = np.random.default_rng(5).uniform(0.1, 0.9, size=(2, 20, 2))
    aset = _set_from_arrays([arr, arr.copy(), arr.copy()], sites=("LW", "RW"))
    scored = score_subset(aset, PlacementSubset(("LW", "RW")))
    assert scored.score <= 1e-12


@given(st.integers(0, 500))
def test_score_matches_reference_implementation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    s = int(rng.integers(1, 4))
    L = int(rng.integers(1, 15))
    arrays = rng.normal(size=(n, s, L, 2)) + 2.0
    sites = DEFAULT_ROSTER[:s]
    aset = _set_from_arrays(arrays, sites=sites)
    scored = score_subset(aset, PlacementSubset(sites))
    ref = pairwise_distance_sum_ref([a.reshape(-1) for a in arrays])
    assert scored.score == pytest.approx(ref, rel=1e-9, abs=1e-12)


@given(st.integers(0, 300))
def test_score_within_pair_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    arrays = rng.normal(size=(n, 1, 6, 2)) + 1.5
    aset = _set_from_arrays(arrays, sites=("PE",))
    scored = score_subset(aset, PlacementSubset(("PE",)))
    assert 0.0 <= scored.score <= max_score(n) + 1e-12


def test_scale_one_activity_leaves_scores_and_order(seed=17):
    rng = np.random.default_rng(seed)
    arrays = rng.uniform(0.2, 0.8, size=(4, 2, 30, 2))
    sites = ("LW", "RW")
    subsets = enumerate_subsets(sites)
    base = rank_placements(_set_from_arrays(arrays, sites), subsets)
    for c in (1e-3, 1.0, 1e3):
        scaled = arrays.copy()
        scaled[2] *= c
        r = rank_placements(_set_from_arrays(scaled, sites), subsets)
        assert r.labels() == base.labels()
        for a, b in zip(base.entries, r.entries):
            assert b.score == pytest.approx(a.score, rel=1e-9, abs=1e-12)


# --- enumeration and ranking -----------------------------------------------------------

def test_enumerate_five_site_roster_gives_31():
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    assert len(subsets) == 31
    assert len([s for s in subsets if s.size == 2]) == 10


def test_enumerate_orders_by_size_then_canonically():
    labels = [s.label for s in enumerate_subsets(("LW", "RW", "PE"), sizes=(1, 2))]
    assert labels == ["LW", "RW", "PE", "LW+RW", "LW+PE", "RW+PE"]


def test_enumerate_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(0,))
    with pytest.raises(ConfigError):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(6,))


def test_ranking_sorts_desc_with_canonical_tie_break():
    scored = [
        ScoredSubset(PlacementSubset(("RW",)), 1.0),
        ScoredSubset(PlacementSubset(("LW",)), 1.0),
        ScoredSubset(PlacementSubset(("LW", "RW")), 1.0),
        ScoredSubset(PlacementSubset(("PE",)), 2.0),
    ]
    ranking = build_ranking(scored, n_activities=3)
    assert ranking.labels() == ["PE", "LW", "RW", "LW+RW"]


def test_rank_placements_is_repeatable():
    rng = np.random.default_rng(23)
    arrays = rng.uniform(0.1, 0.9, size=(5, 5, 40, 2))
    aset = _set_from_arrays(arrays, sites=DEFAULT_ROSTER)
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    first = rank_placements(aset, subsets)
    second = rank_placements(aset, subsets)
    assert first.labels() == second.labels()
    assert [e.score for e in first.entries] == [e.score for e in second.entries]


def test_rank_placements_rejects_site_missing_from_series():
    arrays = np.random.default_rng(3).uniform(0.1, 0.9, size=(3, 2, 5, 2))
    aset = _set_from_arrays(arrays, sites=("LW", "RW"))
    with pytest.raises(SiteNotPresentError, match="site 'PE' not in series roster"):
        rank_placements(aset, [PlacementSubset(("LW",)), PlacementSubset(("PE",))])


def _full_roster_set(seed):
    # all 12 sites, head included; activities differ only at LW, so most
    # pair terms are tiny and cancellation would expose a sloppy sum
    aset = make_separable_set(8, ["LW"], seed=seed, noise_sigma=0.01, length=40,
                              roster=SITE_ORDER)
    return aset, [series.points for series in aset.activities]


def test_score_subset_and_rank_placements_agree_bit_for_bit():
    aset, _ = _full_roster_set(29)
    subsets = enumerate_subsets(SITE_ORDER)
    ranked = {e.subset: e.score for e in rank_placements(aset, subsets).entries}
    assert len(ranked) == 4095
    for subset in subsets:
        assert score_subset(aset, subset).score == ranked[subset]


def test_full_roster_scores_match_reference():
    aset, arrays = _full_roster_set(31)
    subsets = enumerate_subsets(SITE_ORDER)
    ranked = {e.subset: e.score for e in rank_placements(aset, subsets).entries}
    rng = np.random.default_rng(37)
    for k in rng.choice(len(subsets), size=40, replace=False):
        subset = subsets[k]
        rows = [SITE_ORDER.index(site) for site in subset.sites]
        ref = pairwise_distance_sum_ref([a[rows].reshape(-1) for a in arrays])
        assert ranked[subset] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_zero_vector_subsets_are_rejected_and_others_still_score():
    rng = np.random.default_rng(41)
    arrays = rng.uniform(0.1, 0.9, size=(3, 3, 10, 2))
    arrays[1, 2] = 0.0  # activity a1 never moves its PE site off the origin
    sites = ("LW", "RW", "PE")
    aset = _set_from_arrays(arrays, sites=sites)
    zero = PlacementSubset(("PE",))
    with pytest.raises(ZeroVectorError, match="activity 'a1'"):
        score_subset(aset, zero)
    with pytest.raises(ZeroVectorError, match="activity 'a1'"):
        rank_placements(aset, enumerate_subsets(sites))
    others = [s for s in enumerate_subsets(sites) if s != zero]
    ranking = rank_placements(aset, others)
    assert len(ranking.entries) == 6
    for entry in ranking.entries:
        rows = [sites.index(site) for site in entry.subset.sites]
        ref = pairwise_distance_sum_ref([a[rows].reshape(-1) for a in arrays])
        assert entry.score == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_subset_label_and_canonical_order():
    subset = PlacementSubset(("RF", "LW", "PE"))
    assert subset.sites == ("LW", "PE", "RF")
    assert subset.label == "LW+PE+RF"
    assert subset.size == 3


# --- against the per-subset loop -----------------------------------------------------

def _reference_kernel(gram):
    """The kernel one subset at a time: Python floats, Kahan in ascending
    (i, j) order."""
    g = gram.tolist()
    n = len(g)
    norms = [math.sqrt(g[k][k]) for k in range(n)]
    total = 0.0
    comp = 0.0
    for i in range(n - 1):
        row = g[i]
        norm_i = norms[i]
        for j in range(i + 1, n):
            term = abs(1.0 - row[j] / (norm_i * norms[j]))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total


def _reference_scores(aset, subsets):
    """Each subset's Gram matrix summed site by site, then scored alone."""
    sites = canonical_sites({site for subset in subsets for site in subset.sites})
    gram = _site_grams(aset, sites)
    scored = []
    for subset in subsets:
        rows = [sites.index(site) for site in subset.sites]
        total = gram[rows[0]]
        for k in rows[1:]:
            total = total + gram[k]
        moving = np.diagonal(total) > 0
        if not moving.all():
            activity_id = aset.activities[int(np.argmin(moving))].activity_id
            raise ZeroVectorError(f"activity {activity_id!r}: vector is identically zero")
        scored.append(ScoredSubset(subset=subset, score=_reference_kernel(total)))
    return scored


def _assert_same_ranking(aset, subsets):
    got = rank_placements(aset, subsets)
    want = build_ranking(_reference_scores(aset, subsets), len(aset))
    assert got.labels() == want.labels()
    assert [e.score for e in got.entries] == [e.score for e in want.entries]
    assert all(type(e.score) is float for e in got.entries)


@pytest.mark.parametrize("n_activities", [13, 40])
def test_rank_placements_matches_per_subset_loop_bit_for_bit(n_activities):
    # 4095 subsets: fifteen full chunks and one of 255
    aset = make_separable_set(n_activities, ["LW", "RK"], seed=n_activities,
                              noise_sigma=0.01, length=60, roster=SITE_ORDER)
    subsets = enumerate_subsets(SITE_ORDER)
    assert len(subsets) == 15 * SUBSET_CHUNK + 255
    _assert_same_ranking(aset, subsets)


def test_shuffled_mixed_sizes_match_per_subset_loop_bit_for_bit():
    aset, _ = _full_roster_set(43)
    subsets = enumerate_subsets(SITE_ORDER)
    order = np.random.default_rng(47).permutation(len(subsets))[:700]
    shuffled = [subsets[k] for k in order]
    _assert_same_ranking(aset, shuffled)
    # three chunks, scores in list order
    assert score_subsets(aset, shuffled).tolist() == [score_subset(aset, s).score for s in shuffled]


def test_batch_of_one_matches_per_subset_loop_bit_for_bit():
    aset, _ = _full_roster_set(53)
    for subset in enumerate_subsets(SITE_ORDER)[::97]:
        assert score_subset(aset, subset) == _reference_scores(aset, [subset])[0]
        _assert_same_ranking(aset, [subset])


def test_kernel_scores_a_stack_like_its_matrices_one_by_one():
    aset, _ = _full_roster_set(59)
    gram = _site_grams(aset, SITE_ORDER)
    stacked = _kernels.pairwise_cosine_distance_sum(gram.reshape(3, 4, 8, 8))
    assert stacked.shape == (3, 4)
    assert stacked.reshape(-1).tolist() == [_reference_kernel(g) for g in gram]
    single = _kernels.pairwise_cosine_distance_sum(gram[5])
    assert type(single) is float and single == _reference_kernel(gram[5])


@pytest.mark.parametrize("scale, error, message", [
    (1e-170, ZeroVectorError, "squared vector norm underflows to zero"),
    (1e200, ComputationError, r"vector norm is not finite \(squared norm inf\)"),
], ids=["underflow", "overflow"])
def test_a_norm_out_of_float_range_is_an_error_not_a_score(scale, error, message):
    # a1's squared norm rounds to 0 or to inf: its cosines would read nan or 0
    rng = np.random.default_rng(71)
    arrays = rng.uniform(0.1, 0.9, size=(3, 2, 10, 2))
    arrays[1] *= scale
    aset = _set_from_arrays(arrays, sites=("LW", "RW"))
    with pytest.raises(error, match=f"^activity 'a1': {message}$"):
        score_subset(aset, PlacementSubset(("LW",)))
    with pytest.raises(error, match="^activity 'a1'"):
        rank_placements(aset, enumerate_subsets(("LW", "RW")))


def _zero_at(sites, zeros, n_activities=7, seed=61):
    """Activity set over ``sites`` where activity ``zeros[site]`` never moves
    that site off the origin."""
    rng = np.random.default_rng(seed)
    arrays = rng.uniform(0.1, 0.9, size=(n_activities, len(sites), 6, 2))
    for site, activity in zeros.items():
        arrays[activity, sites.index(site)] = 0.0
    return _set_from_arrays(arrays, sites=sites)


@pytest.mark.parametrize("rk_at,rs_at", [(3, 300), (3, 200), (300, 3)])
def test_zero_vector_error_names_the_first_zero_subset_in_list_order(rk_at, rs_at):
    # RK alone is zero for a5, RS alone for a1; whichever comes first names
    # its activity, even when a later subset's activity sorts first
    aset = _zero_at(SITE_ORDER, {"RK": 5, "RS": 1})
    rk, rs = PlacementSubset(("RK",)), PlacementSubset(("RS",))
    subsets = [s for s in enumerate_subsets(SITE_ORDER) if s not in (rk, rs)]
    for position, subset in sorted([(rk_at, rk), (rs_at, rs)]):
        subsets.insert(position, subset)
    want = "a5" if rk_at < rs_at else "a1"
    with pytest.raises(ZeroVectorError, match=f"^activity '{want}': vector is identically zero$"):
        rank_placements(aset, subsets)
    with pytest.raises(ZeroVectorError, match=f"activity '{want}'"):
        _reference_scores(aset, subsets)


def test_missing_site_is_reported_before_any_zero_subset():
    sites = tuple(s for s in SITE_ORDER if s != "HD")
    aset = _zero_at(sites, {"RK": 5})
    subsets = enumerate_subsets(sites)
    subsets.insert(3, PlacementSubset(("RK",)))
    subsets.insert(300, PlacementSubset(("HD",)))
    with pytest.raises(SiteNotPresentError,
                       match="^activity 'a0': site 'HD' not in series roster$"):
        rank_placements(aset, subsets)


def test_peak_memory_is_at_most_twice_the_per_subset_loops():
    # the Gram stack of 4095 subsets at once would be 5.5 MB; chunks hold
    # a few hundred kB beside the 1.25 MB of trajectories the Grams read
    aset = make_separable_set(13, ["LW"], seed=67, noise_sigma=0.01, roster=SITE_ORDER)
    subsets = enumerate_subsets(SITE_ORDER)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want = peak(lambda: build_ranking(_reference_scores(aset, subsets), len(aset)))
    got = peak(lambda: rank_placements(aset, subsets))
    assert got <= 2 * want, (got, want)
