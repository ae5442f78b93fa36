"""Kendall's tau agreement between two placement rankings.

tau = (concordant - discordant) / (n(n-1)/2) over all item pairs, computed
with exact integer pair counting; 1 means identical rankings, -1 exactly
reversed. Ties are rejected: upstream rankings are strict by construction,
and external rankings must be too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidRankError, TieError, UniverseMismatchError


@dataclass(frozen=True)
class RankAssignment:
    """Items with their 1-based ranks in two rankings.

    ``x`` and ``y`` must each be a permutation of 1..n over the same items.
    """

    items: tuple[str, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        items = tuple(self.items)
        x = tuple(int(v) for v in self.x)
        y = tuple(int(v) for v in self.y)
        n = len(items)
        if n < 2:
            raise InvalidRankError("need at least two items to correlate")
        if len(x) != n or len(y) != n:
            raise InvalidRankError("items and rank lists must have equal length")
        for name, ranks in (("first", x), ("second", y)):
            if len(set(ranks)) != len(ranks):
                raise TieError(f"{name} ranking contains tied ranks")
            if set(ranks) != set(range(1, n + 1)):
                raise InvalidRankError(f"{name} ranking is not a permutation of 1..{n}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class TauReport:
    """Kendall's tau with its exact pair counts.

    Per-size breakdowns are reported as one TauReport per size group; see
    ``compare_rankings``.
    """

    tau: float
    n: int
    concordant: int
    discordant: int

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2


def kendall_tau(assignment: RankAssignment) -> TauReport:
    """Exact Kendall's tau for a tie-free rank assignment.

    With ``y`` ordered by ``x``, a pair is discordant exactly when its later
    item has the smaller ``y``; one row is counted at a time, so memory
    stays O(n). Without ties every other pair is concordant.
    """
    x = np.asarray(assignment.x, dtype=np.int64)
    order = np.asarray(assignment.y, dtype=np.int64)[np.argsort(x)]
    n = order.size
    discordant = sum(int(np.count_nonzero(order[i + 1 :] < order[i])) for i in range(n - 1))
    concordant = n * (n - 1) // 2 - discordant
    tau = Fraction(concordant - discordant, n * (n - 1) // 2)
    return TauReport(tau=float(tau), n=int(n), concordant=concordant, discordant=discordant)


def _ranks_by_item(labels) -> dict[str, int]:
    ranks = {}
    for pos, label in enumerate(labels, start=1):
        if label in ranks:
            raise InvalidRankError(f"item {label!r} appears twice in one ranking")
        ranks[label] = pos
    return ranks


def _subset_size(label: str) -> int:
    return label.count("+") + 1


def align_rankings(
    first,
    second,
    scope: str = "per-size",
    top_k: int | None = None,
) -> dict[str, RankAssignment]:
    """Match two ordered item lists into rank assignments per scope.

    ``first`` and ``second`` are subset labels in rank order (best first).
    Scopes: ``all`` compares the full universes; ``per-size`` emits one
    assignment per subset size (keys ``size-1``, ``size-2``, ...), skipping
    sizes with fewer than two items; ``top`` truncates both lists to their
    first ``top_k`` items. Whenever the item sets under a scope differ, a
    universe-mismatch error lists the unmatched subsets.
    """
    first = list(first)
    second = list(second)

    if scope == "top":
        if not top_k or top_k < 2:
            raise InvalidRankError("top scope needs top_k >= 2")
        first = first[:top_k]
        second = second[:top_k]
        scope = "all"
        key_name = f"top-{top_k}"
    else:
        key_name = "all"

    r1 = _ranks_by_item(first)
    r2 = _ranks_by_item(second)

    if scope == "all":
        return {key_name: _paired(r1, r2)}
    if scope == "per-size":
        sizes = sorted({_subset_size(i) for i in r1} | {_subset_size(i) for i in r2})
        out = {}
        for size in sizes:
            g1 = {i: r for i, r in r1.items() if _subset_size(i) == size}
            g2 = {i: r for i, r in r2.items() if _subset_size(i) == size}
            if set(g1) != set(g2):
                raise UniverseMismatchError(set(g1) - set(g2), set(g2) - set(g1))
            if len(g1) < 2:
                continue
            out[f"size-{size}"] = _paired(_rerank(g1), _rerank(g2))
        if not out:
            raise InvalidRankError("no size group has two or more items")
        return out
    raise InvalidRankError(f"unknown comparison scope {scope!r}")


def _paired(r1: dict[str, int], r2: dict[str, int]) -> RankAssignment:
    if set(r1) != set(r2):
        raise UniverseMismatchError(set(r1) - set(r2), set(r2) - set(r1))
    items = tuple(sorted(r1))
    return RankAssignment(
        items=items,
        x=tuple(r1[i] for i in items),
        y=tuple(r2[i] for i in items),
    )


def _rerank(group: dict[str, int]) -> dict[str, int]:
    # Compress a size group's global ranks back to a 1..n permutation.
    ordered = sorted(group, key=group.__getitem__)
    return {item: pos for pos, item in enumerate(ordered, start=1)}


def compare_rankings(
    first,
    second,
    scope: str = "per-size",
    top_k: int | None = None,
) -> dict[str, TauReport]:
    """Kendall's tau for each scope key of two ordered label lists."""
    assignments = align_rankings(first, second, scope=scope, top_k=top_k)
    return {key: kendall_tau(a) for key, a in assignments.items()}
