"""Subset scoring and placement ranking.

Each candidate placement subset turns every activity into one flat vector:
the selected sites' trajectories concatenated site-major (canonical site
order), frames in time order within a site, x before y within a frame, so
a subset of s sites over L frames yields 2*s*L values. A subset's score is
the sum over all unordered activity pairs of the absolute cosine distance
|1 - cos(u, v)| between those vectors; more mutually distinct activities
under a subset mean a higher score, and subsets are ranked score-descending.

Because flattening is site-major, ``u_S . v_S`` is the sum over the sites
s in S of ``u_s . v_s``. Scoring therefore builds the per-site Gram tensor
once per activity set and scores each subset from the sum of its sites'
Gram matrices, never from the flattened vectors themselves. Subsets are
scored in chunks of ``SUBSET_CHUNK``: one stack of subset Gram matrices
and one Kahan pass of the kernel per chunk, the same bits as scoring each
subset alone. ``score_subsets`` returns the scores as one float64 array in
subset order; a mean over windows adds those arrays in window order and
divides by the window count, so one window is its own mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from operator import attrgetter
import math

import numpy as np

from . import _kernels
from .errors import (
    ComputationError,
    ConfigError,
    LengthMismatchError,
    SiteNotPresentError,
    UnknownSiteError,
    ZeroNormError,
    ZeroVectorError,
)
from .sites import canonical_sites, site_key
from .skeleton import ActivitySet

TIE_BREAK = "score desc, then subset size asc, then canonical site order"

# Subsets scored per kernel call; bounds the Gram stack a call holds.
SUBSET_CHUNK = 256


@dataclass(frozen=True)
class PlacementSubset:
    """A candidate set of placement sites, held in canonical order."""

    sites: tuple[str, ...]

    def __post_init__(self):
        sites = canonical_sites(self.sites)
        if not sites:
            raise UnknownSiteError("a placement subset must contain at least one site")
        object.__setattr__(self, "sites", sites)

    @property
    def size(self) -> int:
        return len(self.sites)

    @property
    def label(self) -> str:
        return "+".join(self.sites)

    def sort_key(self):
        return tuple(map(site_key, self.sites))

    @classmethod
    def _of_canonical(cls, sites: tuple[str, ...]) -> "PlacementSubset":
        """A subset of ``sites`` that are already distinct and in canonical
        order, built without checking them again."""
        subset = object.__new__(cls)
        object.__setattr__(subset, "sites", sites)
        return subset


@dataclass(frozen=True)
class ScoredSubset:
    subset: PlacementSubset
    score: float


@dataclass(frozen=True)
class Ranking:
    """Scored subsets in strict rank order (see ``TIE_BREAK``)."""

    entries: tuple[ScoredSubset, ...]
    n_activities: int

    def labels(self) -> list[str]:
        return [e.subset.label for e in self.entries]


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Absolute cosine distance |1 - u.v / (|u||v|)| between two vectors.

    0 for identical direction, 1 for orthogonal, 2 for antiparallel.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise LengthMismatchError(f"vector lengths differ: {u.size} vs {v.size}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormError("cosine distance is undefined for zero-norm vectors")
    return abs(1.0 - float(np.dot(u, v)) / (nu * nv))


def _site_grams(activity_set: ActivitySet, sites) -> np.ndarray:
    """Per-site Gram tensor of the activity set over ``sites``.

    ``gram[s, i, j]`` is the dot product of activities i and j restricted
    to site s. The einsum runs without ``optimize``, so no BLAS call is made
    and the bits do not depend on the thread count.
    """
    rows = []
    for site in sites:
        if site not in activity_set.sites:
            raise SiteNotPresentError(
                f"activity {activity_set.activities[0].activity_id!r}: "
                f"site {site!r} not in series roster"
            )
        rows.append(activity_set.sites.index(site))
    stacked = np.stack(
        [series.points[rows].reshape(len(rows), -1) for series in activity_set.activities], axis=1
    )
    return np.einsum("sik,sjk->sij", stacked, stacked)


def _bad_norm(activity_set: ActivitySet, subset: PlacementSubset, activity: int, norm2: float):
    """The error for an activity whose squared norm under ``subset`` is
    zero or not finite."""
    series = activity_set.activities[activity]
    name = repr(series.activity_id)
    if norm2 != 0:
        return ComputationError(f"activity {name}: vector norm is not finite (squared norm {norm2})")
    if series.points[[activity_set.sites.index(site) for site in subset.sites]].any():
        return ZeroVectorError(f"activity {name}: squared vector norm underflows to zero")
    return ZeroVectorError(f"activity {name}: vector is identically zero")


def score_subsets(activity_set: ActivitySet, subsets) -> np.ndarray:
    """Score the subsets from per-site Gram matrices built once.

    Returns one float64 score per subset, in subset order. Subsets are
    scored ``SUBSET_CHUNK`` at a time. A subset's Gram matrix is the sum of
    its sites' matrices, added in canonical site order: position k of every
    subset with more than k sites is added in one step. Its diagonal holds
    each activity's squared norm; the first subset in list order with a
    zero or non-finite one raises, naming the first such activity.
    """
    sites = canonical_sites({site for subset in subsets for site in subset.sites})
    gram = _site_grams(activity_set, sites)
    index = {site: k for k, site in enumerate(sites)}
    scores = np.empty(len(subsets))
    for begin in range(0, len(subsets), SUBSET_CHUNK):
        chunk = subsets[begin:begin + SUBSET_CHUNK]
        sizes = np.array([subset.size for subset in chunk])
        rows = np.fromiter(
            (index[site] for subset in chunk for site in subset.sites),
            dtype=np.intp, count=int(sizes.sum()),
        )
        starts = np.cumsum(sizes) - sizes
        total = gram[rows[starts]]
        for k in range(1, int(sizes.max())):
            longer = sizes > k
            total[longer] += gram[rows[starts[longer] + k]]
        norm2 = np.diagonal(total, axis1=1, axis2=2)
        usable = (norm2 > 0) & (norm2 < np.inf)
        if not usable.all():
            first = int(np.argmin(usable.all(axis=1)))
            activity = int(np.argmin(usable[first]))
            raise _bad_norm(activity_set, chunk[first], activity, float(norm2[first, activity]))
        scores[begin:begin + len(chunk)] = _kernels.pairwise_cosine_distance_sum(total)
    return scores


def score_subset(activity_set: ActivitySet, subset: PlacementSubset) -> ScoredSubset:
    """Score one subset: sum of pairwise absolute cosine distances.

    This is the same computation ``rank_placements`` does for each of its
    subsets, so the two agree bit for bit.
    """
    return ScoredSubset(subset, float(score_subsets(activity_set, [subset])[0]))


def enumerate_subsets(roster, sizes=None) -> list[PlacementSubset]:
    """All site combinations of the requested sizes.

    ``sizes=None`` means every size 1..len(roster). Output order is size
    ascending, then lexicographic in canonical site order; a 5-site roster
    with all sizes yields 31 subsets.
    """
    roster = canonical_sites(roster)
    if not roster:
        raise ConfigError("roster must not be empty")
    if sizes is None:
        wanted = range(1, len(roster) + 1)
    else:
        wanted = sorted(set(int(s) for s in sizes))
        for s in wanted:
            if s < 1 or s > len(roster):
                raise ConfigError(
                    f"subset size {s} outside valid range 1..{len(roster)}"
                )
    # combinations of a canonical roster are canonical themselves
    subsets = [
        PlacementSubset._of_canonical(combo)
        for s in wanted
        for combo in combinations(roster, s)
    ]
    if not subsets:
        raise ConfigError("subset size filter selects nothing")
    return subsets


def _tie_key(entry: ScoredSubset):
    return entry.subset.size, entry.subset.sort_key()


def build_ranking(scored, n_activities: int) -> Ranking:
    """Sort scored subsets into a strict ranking under the tie-break rule.

    One sort by score, best first; only a run of equal scores is sorted
    again, by size and canonical site order.
    """
    ordered = []
    by_score = sorted(scored, key=attrgetter("score"), reverse=True)
    for _, run in groupby(by_score, key=attrgetter("score")):
        run = list(run)
        if len(run) > 1:
            run.sort(key=_tie_key)
        ordered.extend(run)
    return Ranking(entries=tuple(ordered), n_activities=n_activities)


def rank_placements(activity_set: ActivitySet, subsets) -> Ranking:
    """Score every subset against the activity set and rank the results."""
    subsets = list(subsets)
    if not subsets:
        raise ConfigError("no subsets to rank")
    scores = score_subsets(activity_set, subsets).tolist()
    return build_ranking(map(ScoredSubset, subsets, scores), len(activity_set))


def max_score(n_activities: int) -> float:
    """Upper bound on a subset score: 2 per pair over all activity pairs."""
    return 2.0 * math.comb(n_activities, 2)
