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
subset alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from . import _kernels
from .errors import (
    ConfigError,
    LengthMismatchError,
    SiteNotPresentError,
    UnknownSiteError,
    ZeroNormError,
    ZeroVectorError,
)
from .skeleton import ActivitySet, canonical_sites, site_key

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
        return tuple(site_key(s) for s in self.sites)


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


def _site_grams(activity_set: ActivitySet, sites) -> tuple[np.ndarray, np.ndarray]:
    """Per-site Gram tensor of the activity set over ``sites``.

    Returns ``(gram, nonzero)``: ``gram[s, i, j]`` is the dot product of
    activities i and j restricted to site s, and ``nonzero[s, i]`` says
    whether activity i has any nonzero coordinate at site s. The einsum runs
    without ``optimize``, so no BLAS call is made and the bits do not depend
    on the thread count.
    """
    rows = []
    for site in sites:
        if site not in activity_set.sites:
            raise SiteNotPresentError(
                f"activity {activity_set.activities[0].activity_id!r}: "
                f"site {site!r} not in series roster"
            )
        rows.append(activity_set.sites.index(site))
    stacked = np.empty((len(rows), len(activity_set), 2 * activity_set.length))
    for i, series in enumerate(activity_set.activities):
        stacked[:, i] = series.points[rows].reshape(len(rows), -1)
    return np.einsum("sik,sjk->sij", stacked, stacked), stacked.any(axis=2)


def _score_subsets(activity_set: ActivitySet, subsets) -> list[ScoredSubset]:
    """Score the subsets from per-site Gram matrices built once.

    Subsets are scored ``SUBSET_CHUNK`` at a time. A subset's Gram matrix is
    the sum of its sites' matrices, added in canonical site order: position
    k of every subset with more than k sites is added in one step. Its
    vector for an activity is zero exactly when every one of its sites is
    zero for that activity; the first such subset in list order raises.
    """
    sites = canonical_sites({site for subset in subsets for site in subset.sites})
    gram, nonzero = _site_grams(activity_set, sites)
    index = {site: k for k, site in enumerate(sites)}
    scored = []
    for begin in range(0, len(subsets), SUBSET_CHUNK):
        chunk = subsets[begin:begin + SUBSET_CHUNK]
        sizes = np.array([subset.size for subset in chunk])
        rows = np.fromiter(
            (index[site] for subset in chunk for site in subset.sites),
            dtype=np.intp, count=int(sizes.sum()),
        )
        starts = np.cumsum(sizes) - sizes
        picked = rows[starts]
        total = gram[picked]
        moving = nonzero[picked]
        for k in range(1, int(sizes.max())):
            longer = sizes > k
            picked = rows[starts[longer] + k]
            total[longer] += gram[picked]
            moving[longer] |= nonzero[picked]
        if not moving.all():
            first = int(np.argmin(moving.all(axis=1)))
            activity_id = activity_set.activities[int(np.argmin(moving[first]))].activity_id
            raise ZeroVectorError(f"activity {activity_id!r}: vector is identically zero")
        scores = _kernels.pairwise_cosine_distance_sum(total).tolist()
        scored.extend(map(ScoredSubset, chunk, scores))
    return scored


def score_subset(activity_set: ActivitySet, subset: PlacementSubset) -> ScoredSubset:
    """Score one subset: sum of pairwise absolute cosine distances.

    This is the same computation ``rank_placements`` does for each of its
    subsets, so the two agree bit for bit.
    """
    return _score_subsets(activity_set, [subset])[0]


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
    subsets = [
        PlacementSubset(sites=combo)
        for s in wanted
        for combo in combinations(roster, s)
    ]
    if not subsets:
        raise ConfigError("subset size filter selects nothing")
    return subsets


def build_ranking(scored, n_activities: int) -> Ranking:
    """Sort scored subsets into a strict ranking under the tie-break rule."""
    ordered = sorted(
        scored,
        key=lambda e: (-e.score, e.subset.size, e.subset.sort_key()),
    )
    return Ranking(entries=tuple(ordered), n_activities=n_activities)


def rank_placements(activity_set: ActivitySet, subsets) -> Ranking:
    """Score every subset against the activity set and rank the results."""
    subsets = list(subsets)
    if not subsets:
        raise ConfigError("no subsets to rank")
    return build_ranking(_score_subsets(activity_set, subsets), len(activity_set))


def max_score(n_activities: int) -> float:
    """Upper bound on a subset score: 2 per pair over all activity pairs."""
    return 2.0 * math.comb(n_activities, 2)
