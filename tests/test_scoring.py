"""Vector building, cosine distance, subset scoring, and ranking."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_series
from oracles import pairwise_distance_sum_ref
from sensorplace.errors import (
    ConfigError,
    LengthMismatchError,
    SiteNotPresentError,
    ZeroNormError,
    ZeroVectorError,
)
from sensorplace.scoring import (
    PlacementSubset,
    build_activity_vector,
    build_ranking,
    cosine_distance,
    enumerate_subsets,
    max_score,
    rank_placements,
    score_subset,
    ScoredSubset,
)
from sensorplace.skeleton import ActivitySet, DEFAULT_ROSTER, SITE_ORDER
from sensorplace.synth import make_separable_set


def _set_from_arrays(arrays, sites):
    return ActivitySet(
        activities=tuple(
            make_series(f"a{i}", arr, sites=sites) for i, arr in enumerate(arrays)
        )
    )


# --- vector layout -----------------------------------------------------------

def test_vector_layout_single_site_two_frames():
    series = make_series("a", [[[0.1, 0.2], [0.3, 0.4]]], sites=("LW",))
    vec = build_activity_vector(series, PlacementSubset(("LW",)))
    assert vec.values.tolist() == [0.1, 0.2, 0.3, 0.4]


def test_vector_layout_is_site_major():
    series = make_series(
        "a", [[[0.1, 0.2]], [[0.9, 0.8]]], sites=("LW", "RW")
    )
    vec = build_activity_vector(series, PlacementSubset(("RW", "LW")))
    # canonical order puts LW before RW regardless of subset spelling
    assert vec.values.tolist() == [0.1, 0.2, 0.9, 0.8]


@given(st.integers(1, 3), st.integers(1, 40))
def test_vector_length_is_two_s_l(s, L):
    rng = np.random.default_rng(s * 100 + L)
    sites = DEFAULT_ROSTER[:s]
    series = make_series("a", rng.uniform(0.1, 1, size=(s, L, 2)), sites=sites)
    vec = build_activity_vector(series, PlacementSubset(sites))
    assert vec.values.shape == (2 * s * L,)


def test_vector_missing_site_is_rejected():
    series = make_series("a", np.full((1, 4, 2), 0.5), sites=("LW",))
    with pytest.raises(SiteNotPresentError):
        build_activity_vector(series, PlacementSubset(("RW",)))


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
    ranking = build_ranking(scored, n_activities=3, series_length=10, roster=DEFAULT_ROSTER)
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
