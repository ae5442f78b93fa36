"""Kendall's tau agreement between two placement rankings.

A ranking is an ordering of subset labels, best first. tau =
(concordant - discordant) / (n(n-1)/2) over all item pairs, computed with
exact integer pair counting; 1 means identical orderings, -1 exactly
reversed. An ordering holds each item once, so there are no ties.

Discordant pairs are counted exactly with ``bisect`` over a sorted list, in
O(n) memory and plain Python: ``compare`` needs no numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .errors import DataError, InvalidRankError
from .sites import positions, whole


class TauReport(namedtuple("TauReport", "tau n concordant discordant")):
    """Kendall's tau with its exact pair counts.

    Per-size breakdowns are reported as one TauReport per size group; see
    ``compare_rankings``.
    """

    __slots__ = ()

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2


def _check_same_items(first, second) -> None:
    first, second = set(first), set(second)
    if first != second:
        parts = [f"only in {which}: {', '.join(sorted(items))}"
                 for which, items in (("first", first - second), ("second", second - first))
                 if items]
        raise DataError("rankings cover different subsets; " + "; ".join(parts))


def _discordant_pairs(order: list[int]) -> int:
    """Pairs ``i < j`` with ``order[j] < order[i]``, for a permutation
    ``order`` of ``0..n-1``.

    The earlier values are kept sorted: ``bisect_right`` counts those at or
    below each value, and the rest lie above it. That is n log n
    comparisons plus at most n(n-1)/2 entries moved by ``list.insert``, one
    memmove per value: 8 382 465 for the 4095 labels a ranking table holds
    at most, one per subset of 12 sites.
    """
    earlier: list[int] = []
    discordant = 0
    for seen, value in enumerate(order):
        at_or_below = bisect_right(earlier, value)
        discordant += seen - at_or_below
        earlier.insert(at_or_below, value)
    return discordant


def kendall_tau(first, second) -> TauReport:
    """Exact Kendall's tau between two orderings of the same items.

    With ``first``'s items replaced by their positions in ``second``, a
    pair is discordant exactly when its later item has the smaller
    position. Every other pair is concordant.
    """
    first_pos = positions(first)
    second_pos = positions(second)
    _check_same_items(first_pos, second_pos)
    n = len(first_pos)
    if n < 2:
        raise InvalidRankError("need at least two items to correlate")
    discordant = _discordant_pairs([second_pos[item] for item in first_pos])
    concordant = n * (n - 1) // 2 - discordant
    # int / int is the correctly rounded quotient, as float(Fraction(...)) is
    tau = (concordant - discordant) / (n * (n - 1) // 2)
    return TauReport(tau=tau, n=n, concordant=concordant, discordant=discordant)


def _by_size(ordering) -> dict[int, list[str]]:
    """The ordering split by subset size, each part in its original order."""
    groups: dict[int, list[str]] = {}
    for label in ordering:
        groups.setdefault(label.count("+") + 1, []).append(label)
    return groups


def compare_rankings(
    first,
    second,
    scope: str = "per-size",
    top_k: int | None = None,
) -> dict[str, TauReport]:
    """Kendall's tau for each scope key of two orderings (best first).

    Scopes: ``all`` compares the whole orderings (key ``all``); ``top``
    their first ``top_k`` items (key ``top-K``), which both must have;
    ``per-size`` each subset size's items in their order (keys ``size-1``,
    ``size-2``, ...), skipping sizes with fewer than two items. Whenever
    the items under a key differ, a universe-mismatch error lists the
    unmatched subsets.
    """
    first, second = list(first), list(second)
    if scope == "all":
        return {"all": kendall_tau(first, second)}
    if scope == "top":
        top_k = 0 if top_k is None else whole(top_k, "top_k")
        if top_k < 2:
            raise InvalidRankError("top scope needs top_k >= 2")
        rows = min(len(first), len(second))
        if top_k > rows:
            raise InvalidRankError(f"top_k {top_k} exceeds the {rows} rows of the ranking")
        return {f"top-{top_k}": kendall_tau(first[:top_k], second[:top_k])}
    if scope != "per-size":
        raise InvalidRankError(f"unknown comparison scope {scope!r}")
    positions(first)  # a repeated item is reported before any size group
    positions(second)
    groups_first, groups_second = _by_size(first), _by_size(second)
    out = {}
    for size in sorted(groups_first.keys() | groups_second.keys()):
        g1, g2 = groups_first.get(size, []), groups_second.get(size, [])
        _check_same_items(g1, g2)
        if len(g1) >= 2:
            out[f"size-{size}"] = kendall_tau(g1, g2)
    if not out:
        raise InvalidRankError("no size group has two or more items")
    return out
