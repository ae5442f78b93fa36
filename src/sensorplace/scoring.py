"""Subset scoring and placement ranking.

A subset of placement sites is named by its label, its site ids joined by
``+`` in canonical order (``sites.canonical_label``). Each subset turns
every activity into one flat vector: the selected sites' trajectories
concatenated site-major (canonical site order), frames in time order
within a site, x before y within a frame, so a subset of s sites over L
frames yields 2*s*L values. A subset's score is the sum over all unordered
activity pairs of the absolute cosine distance |1 - cos(u, v)| between
those vectors; more mutually distinct activities under a subset mean a
higher score.

Because flattening is site-major, ``u_S . v_S`` is the sum over the sites
s in S of ``u_s . v_s``. Scoring therefore builds the per-site Gram tensor
once per window set and scores each subset from the sum of its sites'
Gram entries, never from the flattened vectors themselves. Each site's
Gram matrix is packed into one row: the n activities' squared norms, then
the n(n-1)/2 pair dots in ascending (i, j) order, the only entries a score
reads. The labels are read once per run, into a boolean membership matrix
of which subset holds which site. Subsets are scored in chunks of
``SUBSET_CHUNK``: each chunk's stack of packed rows starts at zero and
takes every site's row in canonical site order, masked to the subsets
that hold the site, then one Kahan pass in ascending pair order scores
it, each step one elementwise operation across the chunk. IEEE
``+ - * / sqrt abs`` round the same in numpy as in Python floats, so
every score has the bits of scoring its subset alone, the same in every
run. ``mean_scores`` reads every window set from the one array of a
``skeleton.WindowSets``, adds each set's scores in set order and divides
by the set count.

A ranking is two lists, ``(labels, scores)``, best first, as ranking
tables are read and written; ``sort_ranking`` puts one in ``TIE_BREAK``
order, whose subset order ``sites.enumerate_subsets`` alone generates.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .errors import ComputationError, ConfigError, DataError
from .sites import canonical_label, canonical_sites, positions, site_ids, subset_labels

TIE_BREAK = "score desc, then subset size asc, then canonical site order"

# Subsets scored per Kahan pass; bounds the packed stack a pass holds.
SUBSET_CHUNK = 256


def _site_grams(window_set: np.ndarray, rows) -> np.ndarray:
    """Per-site Gram tensor of one window set, (activities, sites, frames,
    2), over its sites at ``rows``.

    ``gram[s, i, j]`` is the dot product of activities i and j restricted
    to site ``rows[s]``. The einsum reads one contiguous (sites, activities,
    2 * frames) stack and runs without ``optimize``, so no BLAS call is made
    and the bits do not depend on the thread count.
    """
    stacked = np.ascontiguousarray(window_set.transpose(1, 0, 2, 3)[rows])
    stacked = stacked.reshape(len(rows), len(window_set), 2 * window_set.shape[2])
    return np.einsum("sik,sjk->sij", stacked, stacked)


def _bad_norm(activity_id, points: np.ndarray, norm2: float):
    """The error for an activity whose squared norm over ``points``, its
    points at a subset's sites, is zero or not finite."""
    name = repr(activity_id)
    if norm2 != 0:
        return ComputationError(f"activity {name}: vector norm is not finite (squared norm {norm2})")
    if points.any():
        return ComputationError(f"activity {name}: squared vector norm underflows to zero")
    return ComputationError(f"activity {name}: vector is identically zero")


def _cosine_distance_sums(stack: np.ndarray, first, second) -> np.ndarray:
    """Sum of |1 - cos| over all unordered activity pairs, per row of the
    packed stack: n squared norms, then the pair dots of activities
    ``first[p]`` and ``second[p]`` in ascending (i, j) order."""
    n = stack.shape[1] - len(first)
    norms = np.sqrt(stack[:, :n])
    terms = np.abs(1.0 - stack[:, n:] / (norms[:, first] * norms[:, second]))
    total = np.zeros(len(stack))
    comp = np.zeros_like(total)
    y = np.empty_like(total)
    t = np.empty_like(total)
    for pair in range(len(first)):
        np.subtract(terms[:, pair], comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, t = t, total
    return total


def _membership(labels) -> tuple[tuple[str, ...], np.ndarray]:
    """The sites ``labels`` name, in canonical order, and the boolean
    matrix of which label holds which of them. Its label tokens are freed
    on return, before any Gram is built."""
    labels = [canonical_label(label) for label in labels]
    tokens = "+".join(labels).split("+") if labels else []
    sites = canonical_sites(set(tokens))
    columns = np.fromiter(map(positions(sites).__getitem__, tokens), np.intp, len(tokens))
    owners = np.repeat(np.arange(len(labels)), [label.count("+") + 1 for label in labels])
    member = np.zeros((len(labels), len(sites)), dtype=bool)
    member[owners, columns] = True
    return sites, member


def mean_scores(windows, labels) -> np.ndarray:
    """Each subset's mean score over the window sets of ``windows``, a
    ``skeleton.WindowSets``, one float64 per label in label order. First the
    record must hold two or more distinct ids (else ConfigError), known and
    distinct sites, and finite points of shape (sets, ids, sites, frames, 2)
    with a set and a frame (else ValueError), and the labels no other site
    (else DataError); then the first subset in list order with a zero or
    non-finite squared norm raises, naming its first such activity."""
    ids = list(windows.ids)
    if len(ids) < 2:
        raise ConfigError("an activity set needs at least two activities")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate activity ids: {ids}")
    roster = site_ids(windows.sites, "window sites")
    canonical_sites(roster)  # known and distinct; the points keep their order
    points = np.asarray(windows.points, dtype=np.float64)
    if points.ndim != 5 or points.shape[1:3] != (len(ids), len(roster)) or points.shape[4] != 2:
        raise ValueError(f"expected (window sets, {len(ids)}, {len(roster)}, frames, 2) points, "
                         f"got {points.shape}")
    if not len(points):
        raise ConfigError("no window sets to score")
    if not points.shape[3]:
        raise ValueError("series must contain at least one frame")
    if not np.isfinite(points).all():
        raise ValueError("series contains non-finite points")
    sites, member = _membership(labels)
    if missing := [site for site in sites if site not in roster]:
        raise DataError(f"site {missing[0]!r} not in the windows' sites {roster}")
    rows = [roster.index(site) for site in sites]
    first, second = np.triu_indices(len(ids), 1)
    total = np.zeros(len(member))
    for window_set in points:
        gram = _site_grams(window_set, rows)
        norms2 = np.diagonal(gram, axis1=1, axis2=2)
        packed = np.concatenate([norms2, gram[:, first, second]], axis=1)
        for begin in range(0, len(member), SUBSET_CHUNK):
            chunk = member[begin:begin + SUBSET_CHUNK]
            stack = np.zeros((len(chunk), packed.shape[1]))
            for s, row in enumerate(packed):
                np.add(stack, row, out=stack, where=chunk[:, s, None])
            norm2 = stack[:, :len(ids)]
            usable = (norm2 > 0) & (norm2 < np.inf)
            if not usable.all():
                first_bad, activity = np.argwhere(~usable)[0]  # row-major: first subset first
                raise _bad_norm(ids[activity], window_set[activity, rows][chunk[first_bad]],
                                float(norm2[first_bad, activity]))
            total[begin:begin + len(chunk)] += _cosine_distance_sums(stack, first, second)
    return total / len(points)


def sort_ranking(labels, scores) -> tuple[list[str], list[float]]:
    """Order ``labels`` and their ``scores`` best first under ``TIE_BREAK``,
    with canonical labels; a subset named twice raises InvalidRankError,
    and lists of unequal length ValueError.

    The pairs are put in tie-break order, the order of ``subset_labels``,
    which takes linear time for labels already in it, as
    ``sites.enumerate_subsets`` gives them. One stable sort by score,
    descending, then keeps equal scores in that order.
    """
    position = subset_labels()
    labels = [canonical_label(label) for label in labels]
    if len(set(labels)) < len(labels):
        positions(labels)  # raises, naming the first subset given twice
    pairs = sorted(zip(labels, scores, strict=True), key=lambda pair: position[pair[0]])
    pairs.sort(key=itemgetter(1), reverse=True)
    return [label for label, _ in pairs], [score for _, score in pairs]


def rank_placements(windows, labels) -> tuple[list[str], list[float]]:
    """Score the subsets named by ``labels`` by their mean over the window
    sets of ``windows`` (``mean_scores``, which checks the record) and rank
    them: ``(labels, scores)`` best first, with canonical labels."""
    labels = list(labels)
    if not labels:
        raise ConfigError("no subsets to rank")
    return sort_ranking(labels, mean_scores(windows, labels).tolist())

