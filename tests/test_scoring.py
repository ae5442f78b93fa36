"""Subset scoring and ranking."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_windows
from oracles import pairwise_distance_sum_ref
from sensorplace.errors import (
    ComputationError,
    ConfigError,
    DataError,
    InvalidRankError,
    UnknownSiteError,
)
from sensorplace.rankcorr import compare_rankings
from sensorplace.scoring import (
    SUBSET_CHUNK,
    _site_grams,
    mean_scores,
    rank_placements,
    sort_ranking,
)
from sensorplace.sites import canonical_label, canonical_sites, enumerate_subsets, subset_labels
from sensorplace.skeleton import DEFAULT_ROSTER, SITE_ORDER, WindowSets
from sensorplace.synth import make_separable_set


# --- subset scoring -----------------------------------------------------------------

def test_score_three_orthogonal_activities_sums_to_three():
    # one site, one frame: activity vectors (1,0), (0,1), (-1,0) pairwise
    # distances 1 + 2 + 1... use truly orthogonal triple in 4 dims instead
    arrays = [
        [[[1.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 1.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [1.0, 0.0]]],
    ]
    aset = make_windows(arrays, sites=("LW",))
    assert mean_scores(aset, ["LW"])[0] == pytest.approx(3.0, abs=1e-12)


def test_score_identical_activities_is_zero():
    arr = np.random.default_rng(5).uniform(0.1, 0.9, size=(2, 20, 2))
    aset = make_windows([arr, arr.copy(), arr.copy()], sites=("LW", "RW"))
    assert mean_scores(aset, ["LW+RW"])[0] <= 1e-12


@given(st.integers(0, 500))
def test_score_matches_reference_implementation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    s = int(rng.integers(1, 4))
    L = int(rng.integers(1, 15))
    arrays = rng.normal(size=(n, s, L, 2)) + 2.0
    sites = DEFAULT_ROSTER[:s]
    aset = make_windows(arrays, sites=sites)
    score = mean_scores(aset, ["+".join(sites)])[0]
    ref = pairwise_distance_sum_ref([a.reshape(-1) for a in arrays])
    assert score == pytest.approx(ref, rel=1e-9, abs=1e-12)


@given(st.integers(0, 300))
def test_score_within_pair_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    arrays = rng.normal(size=(n, 1, 6, 2)) + 1.5
    aset = make_windows(arrays, sites=("PE",))
    assert 0.0 <= mean_scores(aset, ["PE"])[0] <= 2 * math.comb(n, 2) + 1e-12


def test_scale_one_activity_leaves_scores_and_order(seed=17):
    rng = np.random.default_rng(seed)
    arrays = rng.uniform(0.2, 0.8, size=(4, 2, 30, 2))
    sites = ("LW", "RW")
    subsets = enumerate_subsets(sites)
    base = rank_placements(make_windows(arrays, sites), subsets)
    for c in (1e-3, 1.0, 1e3):
        scaled = arrays.copy()
        scaled[2] *= c
        labels, scores = rank_placements(make_windows(scaled, sites), subsets)
        assert labels == base[0]
        assert scores == pytest.approx(base[1], rel=1e-9, abs=1e-12)


# --- enumeration and ranking -----------------------------------------------------------

def test_enumerate_five_site_roster_gives_31():
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    assert len(subsets) == 31
    assert len([s for s in subsets if s.count("+") == 1]) == 10


def test_enumerate_orders_by_size_then_canonically():
    labels = enumerate_subsets(("RW", "PE", "LW"), sizes=(1, 2))
    assert labels == ["LW", "RW", "PE", "LW+RW", "LW+PE", "RW+PE"]


def test_enumeration_and_the_label_table_share_the_tie_break_order():
    # the table's order is TIE_BREAK's: size ascending, then canonical site order
    def tie_key(label):
        return label.count("+"), [SITE_ORDER.index(site) for site in label.split("+")]

    table = list(subset_labels())
    assert list(subset_labels().values()) == list(range(4095))
    assert table == sorted(table, key=tie_key) == enumerate_subsets(SITE_ORDER)
    rng = np.random.default_rng(73)
    for _ in range(50):
        roster = list(rng.choice(SITE_ORDER, size=rng.integers(1, 13), replace=False))
        labels = enumerate_subsets(roster)
        assert labels == sorted(labels, key=subset_labels().__getitem__)


def test_unknown_sites_are_rejected_by_name():
    with pytest.raises(UnknownSiteError, match="^unknown site id 'ZZ'$"):
        enumerate_subsets(("LW", "ZZ"))
    with pytest.raises(UnknownSiteError, match="^unknown site id 'ZZ'$"):
        canonical_sites(("ZZ", "LW"))


def test_enumerate_rejects_bad_sizes():
    # the sizes are checked as RunConfig checks them against its roster
    with pytest.raises(ConfigError):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(0,))
    with pytest.raises(ConfigError):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(6,))
    with pytest.raises(ConfigError, match="^subset size must be an integer, got 1.7$"):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(1.7,))
    with pytest.raises(ConfigError, match="^subset sizes must be a tuple or list of integers"):
        enumerate_subsets(DEFAULT_ROSTER, 3)
    with pytest.raises(ConfigError, match=re.escape("sizes (2, 7) out of range for a roster of 5")):
        enumerate_subsets(DEFAULT_ROSTER, sizes=(7, 2))


def test_nothing_to_enumerate_or_rank_is_an_error():
    aset = make_separable_set(3, ["LW"], length=20)
    with pytest.raises(ConfigError, match="^roster must not be empty$"):
        enumerate_subsets(())
    with pytest.raises(ConfigError, match="^at least one subset size is required$"):
        enumerate_subsets(DEFAULT_ROSTER, sizes=())
    with pytest.raises(ConfigError, match="^no subsets to rank$"):
        rank_placements(aset, [])
    assert mean_scores(aset, []).shape == (0,)
    # a subset named twice raises the error Kendall's tau raises for a repeat
    with pytest.raises(InvalidRankError, match="^item 'LW' appears twice in one ranking$"):
        rank_placements(aset, ["LW", "LW"])
    with pytest.raises(InvalidRankError, match=re.escape("item 'LW+RW' appears twice")):
        sort_ranking(["LW+RW", "RW+LW"], [1.0, 0.5])
    assert sort_ranking(["RW+LW"], [1.0]) == (["LW+RW"], [1.0])
    with pytest.raises(ConfigError, match="^top_k must be an integer, got 2.5$"):
        compare_rankings(["LW", "RW", "PE"], ["LW", "RW", "PE"], scope="top", top_k=2.5)


def test_no_window_sets_to_score_is_an_error():
    empty = WindowSets(("a0", "a1"), ("LW",), np.ones((0, 2, 1, 3, 2)))
    with pytest.raises(ConfigError, match="^no window sets to score$"):
        mean_scores(empty, ["LW"])


def _nan_in_last_set():
    points = np.ones((3, 2, 2, 4, 2))
    points[2, 1, 0, 3, 1] = np.nan
    return points


@pytest.mark.parametrize("field, value, error, message", [
    ("sites", "LW", ConfigError, "window sites must be a tuple or list of site ids, got 'LW'"),
    ("sites", ("LW", "ZZ"), UnknownSiteError, "unknown site id 'ZZ'"),
    ("sites", ("RW", "RW"), UnknownSiteError, "duplicate site ids in ('RW', 'RW')"),
    ("sites", ("LW",), ValueError,
     "expected (window sets, 2, 1, frames, 2) points, got (3, 2, 2, 4, 2)"),
    ("points", np.ones((3, 2, 2, 4)), ValueError,
     "expected (window sets, 2, 2, frames, 2) points, got (3, 2, 2, 4)"),
    ("points", np.ones((3, 2, 2, 0, 2)), ValueError, "series must contain at least one frame"),
    ("points", _nan_in_last_set(), ValueError, "series contains non-finite points"),
], ids=["sites-not-a-tuple", "unknown-site", "repeated-site", "site-axis", "no-xy-axis",
        "no-frame", "nan-in-last-set"])
def test_a_bad_record_is_an_error_before_any_gram(field, value, error, message):
    good = WindowSets(("a0", "a1"), ("LW", "RW"), np.ones((3, 2, 2, 4, 2)))
    assert mean_scores(good, ["LW", "LW+RW"]).tolist() == pytest.approx([0.0, 0.0], abs=1e-12)
    bad = good._replace(**{field: value})
    for score in (mean_scores, rank_placements):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            score(bad, ["LW"])


def test_sort_ranking_rejects_lists_of_unequal_length():
    # it once ranked the labels of the shorter list
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is shorter than argument 1$"):
        sort_ranking(["LW", "RW"], [1.0])


def test_ranking_sorts_desc_with_canonical_tie_break():
    ranking = sort_ranking(["RW", "LW", "LW+RW", "PE", "RF"], [1.0, 1.0, 1.0, 2.0, -0.0])
    assert ranking == (["PE", "LW", "RW", "LW+RW", "RF"], [2.0, 1.0, 1.0, 1.0, -0.0])


def test_rank_placements_breaks_ties_in_tie_break_order_from_any_input_order():
    # activity i moves only in frame i at every site, so the three are
    # orthogonal under every subset and each subset scores exactly 3: the
    # order is the tie-break alone, whatever order the labels come in
    arrays = np.zeros((3, len(SITE_ORDER), 3, 2))
    for i in range(3):
        arrays[i, :, i, 0] = 1.0
    aset = make_windows(arrays, sites=SITE_ORDER)
    labels = enumerate_subsets(SITE_ORDER)
    rng = np.random.default_rng(83)
    for _ in range(3):
        shuffled = [labels[k] for k in rng.permutation(len(labels))]
        got_labels, got_scores = rank_placements(aset, shuffled)
        assert set(got_scores) == {3.0}
        assert got_labels == labels


def test_rank_placements_reads_labels_in_any_site_order():
    arrays = np.random.default_rng(89).uniform(0.1, 0.9, size=(4, 3, 6, 2))
    aset = make_windows(arrays, sites=("LW", "RW", "PE"))
    canonical = rank_placements(aset, ["LW+PE", "RW", "LW+RW+PE"])
    assert rank_placements(aset, ["PE+LW", "RW", "PE+RW+LW"]) == canonical
    assert sorted(canonical[0]) == ["LW+PE", "LW+RW+PE", "RW"]
    with pytest.raises(UnknownSiteError, match="unknown site id 'ZZ'"):
        rank_placements(aset, ["LW", "LW+ZZ"])
    with pytest.raises(UnknownSiteError, match="duplicate site ids"):
        mean_scores(aset, ["LW+LW"])


def test_rank_placements_is_repeatable():
    rng = np.random.default_rng(23)
    arrays = rng.uniform(0.1, 0.9, size=(5, 5, 40, 2))
    aset = make_windows(arrays, sites=DEFAULT_ROSTER)
    subsets = enumerate_subsets(DEFAULT_ROSTER)
    assert rank_placements(aset, subsets) == rank_placements(aset, subsets)


def test_rank_placements_rejects_site_missing_from_series():
    arrays = np.random.default_rng(3).uniform(0.1, 0.9, size=(3, 2, 5, 2))
    aset = make_windows(arrays, sites=("LW", "RW"))
    with pytest.raises(DataError,
                       match=re.escape("site 'PE' not in the windows' sites ('LW', 'RW')")):
        rank_placements(aset, ["LW", "PE"])


def _full_roster_set(seed):
    # all 12 sites, head included; activities differ only at LW, so most
    # pair terms are tiny and cancellation would expose a sloppy sum
    aset = make_separable_set(8, ["LW"], seed=seed, noise_sigma=0.01, length=40,
                              roster=SITE_ORDER)
    return aset, aset.points[0]


def test_one_subset_scores_as_rank_placements_scores_it_bit_for_bit():
    aset, _ = _full_roster_set(29)
    subsets = enumerate_subsets(SITE_ORDER)
    ranked = dict(zip(*rank_placements(aset, subsets)))
    assert len(ranked) == 4095
    for subset in subsets:
        assert mean_scores(aset, [subset])[0] == ranked[subset]


def test_full_roster_scores_match_reference():
    aset, arrays = _full_roster_set(31)
    subsets = enumerate_subsets(SITE_ORDER)
    ranked = dict(zip(*rank_placements(aset, subsets)))
    rng = np.random.default_rng(37)
    for k in rng.choice(len(subsets), size=40, replace=False):
        subset = subsets[k]
        rows = [SITE_ORDER.index(site) for site in subset.split("+")]
        ref = pairwise_distance_sum_ref([a[rows].reshape(-1) for a in arrays])
        assert ranked[subset] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_zero_vector_subsets_are_rejected_and_others_still_score():
    rng = np.random.default_rng(41)
    arrays = rng.uniform(0.1, 0.9, size=(3, 3, 10, 2))
    arrays[1, 2] = 0.0  # activity a1 never moves its PE site off the origin
    sites = ("LW", "RW", "PE")
    aset = make_windows(arrays, sites=sites)
    with pytest.raises(ComputationError, match="^activity 'a1': vector is identically zero$"):
        mean_scores(aset, ["PE"])
    with pytest.raises(ComputationError, match="^activity 'a1': vector is identically zero$"):
        rank_placements(aset, enumerate_subsets(sites))
    others = [s for s in enumerate_subsets(sites) if s != "PE"]
    labels, scores = rank_placements(aset, others)
    assert len(labels) == 6
    for label, score in zip(labels, scores):
        rows = [sites.index(site) for site in label.split("+")]
        ref = pairwise_distance_sum_ref([a[rows].reshape(-1) for a in arrays])
        assert score == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_a_roster_in_any_order_scores_as_the_canonical_one():
    # the site axis follows the record's sites, which are never re-sorted
    arrays = np.random.default_rng(97).uniform(0.1, 0.9, size=(4, 5, 8, 2))
    arrays[2, DEFAULT_ROSTER.index("RF")] = 0.0  # a2 never moves RF off the origin
    canonical = make_windows(arrays, DEFAULT_ROSTER)
    order = [3, 0, 4, 2, 1]
    shuffled = make_windows(arrays[:, order], [DEFAULT_ROSTER[k] for k in order])
    assert shuffled.sites == ("LF", "LW", "RF", "PE", "RW")
    subsets = [s for s in enumerate_subsets(DEFAULT_ROSTER) if s != "RF"]
    assert mean_scores(shuffled, subsets).tolist() == mean_scores(canonical, subsets).tolist()
    for windows in (canonical, shuffled):
        with pytest.raises(ComputationError, match="^activity 'a2': vector is identically zero$"):
            mean_scores(windows, ["LW", "RF"])


def test_canonical_label():
    assert canonical_label("RF+LW+PE") == "LW+PE+RF"
    assert canonical_label("LW+PE+RF") == "LW+PE+RF"
    assert canonical_label("HD") == "HD"


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
    sites = canonical_sites({site for subset in subsets for site in subset.split("+")})
    gram = _site_grams(aset.points[0], [aset.sites.index(site) for site in sites])
    scores = []
    for subset in subsets:
        rows = [sites.index(site) for site in subset.split("+")]
        total = gram[rows[0]]
        for k in rows[1:]:
            total = total + gram[k]
        moving = np.diagonal(total) > 0
        if not moving.all():
            activity_id = aset.ids[int(np.argmin(moving))]
            raise ComputationError(f"activity {activity_id!r}: vector is identically zero")
        scores.append(_reference_kernel(total))
    return scores


def _reference_ranking(aset, subsets):
    """The reference scores sorted by score descending, then subset size,
    then canonical site order."""
    def key(pair):
        label, score = pair
        return -score, label.count("+"), [SITE_ORDER.index(s) for s in label.split("+")]

    ranked = sorted(zip(subsets, _reference_scores(aset, subsets)), key=key)
    return [label for label, _ in ranked], [score for _, score in ranked]


def _assert_same_ranking(aset, subsets):
    labels, scores = rank_placements(aset, subsets)
    assert (labels, scores) == _reference_ranking(aset, subsets)
    assert all(type(score) is float for score in scores)


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
    assert mean_scores(aset, shuffled).tolist() == [mean_scores(aset, [s])[0] for s in shuffled]


def test_batch_of_one_matches_per_subset_loop_bit_for_bit():
    aset, _ = _full_roster_set(53)
    for subset in enumerate_subsets(SITE_ORDER)[::97]:
        assert mean_scores(aset, [subset]).tolist() == _reference_scores(aset, [subset])
        _assert_same_ranking(aset, [subset])


def test_kernel_scores_a_stack_like_its_matrices_one_by_one():
    aset, _ = _full_roster_set(59)
    gram = _site_grams(aset.points[0], [aset.sites.index(site) for site in SITE_ORDER])
    stacked = mean_scores(aset, list(SITE_ORDER))
    assert stacked.shape == (12,)
    assert stacked.tolist() == [_reference_kernel(g) for g in gram]
    assert stacked.tolist() == [mean_scores(aset, [site])[0] for site in SITE_ORDER]


def _random_mat(seed, n=None, m=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 8))
    m = m or int(rng.integers(2, 60))
    return np.ascontiguousarray(rng.normal(size=(n, m)) + 1.0)


def _set_from_rows(mat):
    """One-site activity set whose activity vectors are ``mat``'s rows; an
    odd row length takes a trailing 0, which moves no dot product."""
    if mat.shape[1] % 2:
        mat = np.pad(mat, ((0, 0), (0, 1)))
    return make_windows(mat.reshape(len(mat), 1, -1, 2), sites=("LW",))


@given(st.integers(0, 400))
def test_kernel_matches_reference(seed):
    mat = _random_mat(seed)
    [got] = mean_scores(_set_from_rows(mat), ["LW"])
    want = pairwise_distance_sum_ref([row for row in mat])
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.integers(0, 200))
def test_kernel_is_bitwise_repeatable(seed):
    aset = _set_from_rows(_random_mat(seed))
    first, second = (mean_scores(aset, ["LW"]).tolist() for _ in range(2))
    assert first == second


def test_accumulation_stays_accurate_over_many_tiny_terms():
    # many near-identical rows: each pair term is ~1e-16, so naive float
    # summation noise would be visible against math.fsum. The terms are
    # rounding noise of the Gram matrix itself, so the exact sum is taken
    # over the terms of the Gram matrix the score reads.
    rng = np.random.default_rng(7)
    base = rng.normal(size=40)
    mat = np.tile(base, (50, 1)) + rng.normal(scale=1e-9, size=(50, 40))
    aset = _set_from_rows(mat)
    [gram] = _site_grams(aset.points[0], [0])
    [got] = mean_scores(aset, ["LW"])
    norms = np.sqrt(np.diagonal(gram))
    terms = [
        abs(1.0 - float(gram[i, j]) / (norms[i] * norms[j]))
        for i in range(49)
        for j in range(i + 1, 50)
    ]
    want = math.fsum(terms)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("scale, error, message, inputs", [
    (1e-170, ComputationError, "squared vector norm underflows to zero", [["LW"]]),
    # a first subset without LW never takes in LW's infinite Gram: 0 x inf
    # would make its norm nan
    (1e200, ComputationError, r"vector norm is not finite \(squared norm inf\)",
     [["LW"], ["RW", "LW"], ["RW", "LW+RW"]]),
], ids=["underflow", "overflow"])
def test_a_norm_out_of_float_range_is_an_error_not_a_score(scale, error, message, inputs):
    # a1's squared norm rounds to 0 or to inf: its cosines would read nan or 0
    rng = np.random.default_rng(71)
    arrays = rng.uniform(0.1, 0.9, size=(3, 2, 10, 2))
    arrays[1] *= scale
    aset = make_windows(arrays, sites=("LW", "RW"))
    for labels in inputs:
        with pytest.raises(error, match=f"^activity 'a1': {message}$"):
            mean_scores(aset, labels)
    with pytest.raises(error, match="^activity 'a1'"):
        rank_placements(aset, enumerate_subsets(("LW", "RW")))


def _zero_at(sites, zeros, n_activities=7, seed=61):
    """Activity set over ``sites`` where activity ``zeros[site]`` never moves
    that site off the origin."""
    rng = np.random.default_rng(seed)
    arrays = rng.uniform(0.1, 0.9, size=(n_activities, len(sites), 6, 2))
    for site, activity in zeros.items():
        arrays[activity, sites.index(site)] = 0.0
    return make_windows(arrays, sites=sites)


@pytest.mark.parametrize("rk_at,rs_at", [(3, 300), (3, 200), (300, 3)])
def test_zero_vector_error_names_the_first_zero_subset_in_list_order(rk_at, rs_at):
    # RK alone is zero for a5, RS alone for a1; whichever comes first names
    # its activity, even when a later subset's activity sorts first
    aset = _zero_at(SITE_ORDER, {"RK": 5, "RS": 1})
    rk, rs = "RK", "RS"
    subsets = [s for s in enumerate_subsets(SITE_ORDER) if s not in (rk, rs)]
    for position, subset in sorted([(rk_at, rk), (rs_at, rs)]):
        subsets.insert(position, subset)
    want = "a5" if rk_at < rs_at else "a1"
    with pytest.raises(ComputationError,
                       match=f"^activity '{want}': vector is identically zero$"):
        rank_placements(aset, subsets)
    with pytest.raises(ComputationError,
                       match=f"^activity '{want}': vector is identically zero$"):
        _reference_scores(aset, subsets)


def test_missing_site_is_reported_before_any_zero_subset():
    sites = tuple(s for s in SITE_ORDER if s != "HD")
    aset = _zero_at(sites, {"RK": 5})
    subsets = enumerate_subsets(sites)
    subsets.insert(3, "RK")
    subsets.insert(300, "HD")
    with pytest.raises(DataError, match="^site 'HD' not in the windows' sites \\("):
        rank_placements(aset, subsets)


def test_peak_memory_is_at_most_twice_the_per_subset_loops():
    # the packed stack of 4095 subsets at once would be about 3.0 MB; chunks
    # hold a few hundred kB beside the 1.25 MB of trajectories the Grams read
    aset = make_separable_set(13, ["LW"], seed=67, noise_sigma=0.01, roster=SITE_ORDER)
    subsets = enumerate_subsets(SITE_ORDER)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want = peak(lambda: _reference_ranking(aset, subsets))
    got = peak(lambda: rank_placements(aset, subsets))
    assert got <= 2 * want, (got, want)
