"""Kendall's tau between two orderings, and comparison scopes."""

import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import kendall_tau_ref
from sensorplace.errors import DataError, InvalidRankError
from sensorplace.rankcorr import TauReport, compare_rankings, kendall_tau


def _ordering(ranks):
    """Items i0, i1, ... ordered so that item k sits at rank ``ranks[k]``."""
    return [f"i{k}" for k in sorted(range(len(ranks)), key=ranks.__getitem__)]


def _tau(x, y):
    return kendall_tau(_ordering(x), _ordering(y))


# --- exact values ---------------------------------------------------------------

def test_identity_and_reversal_are_exact():
    x = (1, 2, 3, 4, 5)
    assert _tau(x, x).tau == 1.0
    assert _tau(x, tuple(reversed(x))).tau == -1.0


def test_single_swap_among_three():
    report = _tau((1, 2, 3), (2, 1, 3))
    assert report.concordant == 2
    assert report.discordant == 1
    assert report.tau == pytest.approx(1 / 3, abs=1e-15)


def test_pair_counts_add_up():
    report = _tau((1, 2, 3, 4), (2, 4, 1, 3))
    assert report.pairs == 6
    assert report.concordant + report.discordant == report.pairs


def test_exhaustive_against_pair_counting_oracle():
    x_base = (1, 2, 3, 4, 5, 6)
    for n in range(2, 7):
        x = x_base[:n]
        for y in permutations(range(1, n + 1)):
            got = _tau(x, y).tau
            want = kendall_tau_ref(x, y)
            assert got == pytest.approx(want, abs=1e-15), (x, y)


@given(st.permutations(list(range(1, 9))), st.permutations(list(range(1, 9))))
def test_tau_is_symmetric_and_bounded(x, y):
    a = _tau(tuple(x), tuple(y))
    b = _tau(tuple(y), tuple(x))
    assert a.tau == b.tau
    assert -1.0 <= a.tau <= 1.0


def _seeded_ranks(n, seed):
    rng = np.random.default_rng(seed)
    return (
        tuple(int(v) for v in rng.permutation(n) + 1),
        tuple(int(v) for v in rng.permutation(n) + 1),
    )


def test_seeded_permutation_matches_pair_counting_oracle():
    x, y = _seeded_ranks(301, seed=4)
    assert _tau(x, y).tau == pytest.approx(kendall_tau_ref(x, y), abs=1e-15)


@given(
    n=st.integers(2, 150),
    kind=st.sampled_from(["identity", "reversal", "seeded"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, kind="identity", seed=0)
@example(n=2, kind="reversal", seed=0)
def test_discordant_count_matches_pair_counting_oracle(n, kind, seed):
    x = tuple(range(1, n + 1))
    if kind == "identity":
        y = x
    elif kind == "reversal":
        y = x[::-1]
    else:
        y = tuple(int(v) for v in np.random.default_rng(seed).permutation(n) + 1)
    report = _tau(x, y)
    want = kendall_tau_ref(x, y)
    assert report.tau == pytest.approx(want, abs=1e-15)
    assert report.concordant - report.discordant == round(want * report.pairs)
    assert report.concordant + report.discordant == report.pairs


def _tau_and_peak(first, second):
    """Kendall's tau of two orderings and the traced memory peak it took."""
    tracemalloc.start()
    try:
        report = kendall_tau(first, second)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_linear_on_a_full_roster_ranking():
    # 4095 = every subset of 12 sites; an n x n int64 array alone is 128 MiB
    report, peak = _tau_and_peak(*(_ordering(r) for r in _seeded_ranks(4095, seed=5)))
    assert report.concordant + report.discordant == report.pairs
    assert peak < 16 * 2**20


def test_memory_stays_linear_on_a_reversed_full_roster_ranking():
    # a reversed pair is the most entries the discordant count moves
    items = [f"i{k}" for k in range(4095)]
    report, peak = _tau_and_peak(items, items[::-1])
    assert report.discordant == report.pairs == 8382465
    assert peak < 16 * 2**20


def test_tau_is_exact_rational():
    # 5 items -> denominator 10; float must equal the Fraction exactly
    report = _tau((1, 2, 3, 4, 5), (3, 1, 2, 5, 4))
    assert report.tau == float(
        Fraction(report.concordant - report.discordant, report.pairs)
    )


@given(st.integers(2, 300).flatmap(lambda n: st.permutations(range(n))))
def test_tau_is_the_correctly_rounded_fraction(order):
    # int true division rounds c - d over the pair count as Fraction does
    report = kendall_tau(list(range(len(order))), list(order))
    assert report.tau == float(Fraction(report.concordant - report.discordant, report.pairs))


def test_tau_report_is_a_positional_record():
    report = TauReport(0.5, 4, 4, 2)
    assert (report.tau, report.n, report.concordant, report.discordant, report.pairs) == (
        0.5, 4, 4, 2, 6
    )
    with pytest.raises(AttributeError):
        report.tau = 1.0


# --- validation ---------------------------------------------------------------------

def test_repeated_item_is_rejected():
    # an ordering cannot hold a tie; a repeated item is the nearest fault
    with pytest.raises(InvalidRankError, match="item 'b' appears twice"):
        kendall_tau(["a", "b", "b"], ["a", "b", "c"])
    with pytest.raises(InvalidRankError, match="item 'c' appears twice"):
        kendall_tau(["a", "b", "c"], ["c", "b", "c"])


def test_non_permutation_is_rejected():
    # the second ordering is not a permutation of the first
    with pytest.raises(DataError, match="^rankings cover different subsets; "
                       "only in first: b; only in second: c$"):
        kendall_tau(["a", "b"], ["a", "c"])


def test_single_item_is_rejected():
    with pytest.raises(InvalidRankError, match="need at least two items"):
        kendall_tau(["a"], ["a"])


# --- comparison scopes -------------------------------------------------------------------

def test_align_all_scope_matches_by_label():
    first = ["LW", "RW", "PE"]
    second = ["RW", "LW", "PE"]
    out = compare_rankings(first, second, scope="all")
    assert set(out) == {"all"}
    assert out["all"].tau == pytest.approx(1 / 3)


def test_align_per_size_groups_and_compresses_ranks():
    first = ["LW", "LW+RW", "RW", "LW+PE"]
    second = ["LW", "LW+PE", "RW", "LW+RW"]
    out = compare_rankings(first, second, scope="per-size")
    assert set(out) == {"size-1", "size-2"}
    assert out["size-1"].tau == 1.0
    assert out["size-2"].tau == -1.0


def test_align_per_size_skips_singleton_groups():
    first = ["LW", "RW", "LW+RW"]
    second = ["RW", "LW", "LW+RW"]
    out = compare_rankings(first, second, scope="per-size")
    assert set(out) == {"size-1"}


def test_align_top_scope_truncates_both():
    first = ["a1", "b1", "c1", "d1"]
    second = ["b1", "a1", "c1", "d1"]
    out = compare_rankings(first, second, scope="top", top_k=3)
    assert set(out) == {"top-3"}
    assert out["top-3"].tau == pytest.approx(1 / 3)


def test_align_detects_universe_mismatch():
    with pytest.raises(DataError, match="^rankings cover different subsets; "
                       "only in first: RW; only in second: PE$") as err:
        compare_rankings(["LW", "RW"], ["LW", "PE"], scope="all")
    assert "RW" in str(err.value) and "PE" in str(err.value)
    # per-size checks every size group, singletons included
    with pytest.raises(DataError, match="^rankings cover different subsets; "
                       "only in first: LW\\+RW; only in second: LW\\+PE$"):
        compare_rankings(["LW", "RW", "LW+RW"], ["RW", "LW", "LW+PE"], scope="per-size")


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidRankError):
        compare_rankings(["LW", "LW"], ["LW", "RW"], scope="all")
    # a repeat is found even in a size group too small to be compared
    with pytest.raises(InvalidRankError, match="'LW\\+RW' appears twice"):
        compare_rankings(["LW", "RW", "LW+RW"], ["LW", "RW", "LW+RW", "LW+RW"], scope="per-size")


@pytest.mark.parametrize("kwargs, message", [
    ({"scope": "top", "top_k": 1}, "top scope needs top_k >= 2"),
    ({"scope": "top", "top_k": None}, "top scope needs top_k >= 2"),
    ({"scope": "bogus"}, "unknown comparison scope 'bogus'"),
    ({"scope": "per-size"}, "no size group has two or more items"),
    ({"scope": "top", "top_k": 3}, "top_k 3 exceeds the 2 rows of the ranking"),
])
def test_compare_rejects_bad_scopes(kwargs, message):
    with pytest.raises(InvalidRankError, match=message):
        compare_rankings(["LW", "LW+RW"], ["LW", "LW+RW"], **kwargs)


# --- frozen comparison cases ----------------------------------------------------------------

def test_identical_singleton_rankings_agree_fully():
    # two sources that order the three sites the same way
    order = ["LW", "RW", "LF"]
    reports = compare_rankings(order, list(order), scope="all")
    assert reports["all"].tau == 1.0


def test_identical_quad_rankings_agree_fully():
    order = ["LW+RW+PE+LF", "LW+RW+PE+RF", "LW+RW+LF+RF"]
    reports = compare_rankings(order, list(order), scope="per-size")
    assert reports["size-4"].tau == 1.0


def test_known_disagreement_on_three_pairs():
    # ground truth vs predicted order of the same three two-site subsets;
    # one concordant pair, two discordant -> tau = -1/3
    truth = ["LW+PE", "RW+PE", "LW+RW"]
    predicted = ["LW+RW", "LW+PE", "RW+PE"]
    reports = compare_rankings(truth, predicted, scope="per-size")
    report = reports["size-2"]
    assert report.concordant == 1
    assert report.discordant == 2
    assert report.tau == pytest.approx(-1 / 3, abs=1e-15)
