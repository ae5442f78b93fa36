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
run. ``mean_scores`` adds each window set's scores in window order and
divides by the window count.

A ranking is two lists, ``(labels, scores)``, best first, as ranking
tables are read and written; ``sort_ranking`` puts one in ``TIE_BREAK``
order, whose subset order ``sites.enumerate_subsets`` alone generates.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

import numpy as np

from .errors import ComputationError, ConfigError, DataError
from .sites import canonical_label, canonical_sites, positions, subset_labels

TIE_BREAK = "score desc, then subset size asc, then canonical site order"

# Subsets scored per Kahan pass; bounds the packed stack a pass holds.
SUBSET_CHUNK = 256


def _site_grams(window_set, sites) -> np.ndarray:
    """Per-site Gram tensor of the window set over ``sites``.

    ``gram[s, i, j]`` is the dot product of activities i and j restricted
    to site s. The einsum runs without ``optimize``, so no BLAS call is made
    and the bits do not depend on the thread count.
    """
    roster = window_set[0].sites
    rows = []
    for site in sites:
        if site not in roster:
            raise DataError(
                f"activity {window_set[0].activity_id!r}: site {site!r} not in series roster"
            )
        rows.append(roster.index(site))
    stacked = np.stack(
        [a.points[rows].reshape(len(rows), 2 * a.length) for a in window_set], axis=1
    )
    return np.einsum("sik,sjk->sij", stacked, stacked)


def _bad_norm(window_set, sites, activity: int, norm2: float):
    """The error for an activity whose squared norm under the subset of
    ``sites`` is zero or not finite."""
    series = window_set[activity]
    name = repr(series.activity_id)
    if norm2 != 0:
        return ComputationError(f"activity {name}: vector norm is not finite (squared norm {norm2})")
    if series.points[[window_set[0].sites.index(site) for site in sites]].any():
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


def mean_scores(window_sets, labels) -> np.ndarray:
    """Each subset's mean score over ``window_sets``, one float64 per label
    of ``labels`` in label order; a window set is a tuple or list of
    ``SkeletonSeries``, one per activity. Before any Gram is built, every
    set is checked, a failure raising ConfigError: set 0 holds two or more
    distinct ids, every set holds them in its order, and the series of each
    set share one roster, length and rate, a mismatch naming both ids. Then
    the first subset in list order with a zero or non-finite squared norm
    raises, naming the first such activity."""
    if not window_sets:
        raise ConfigError("no window sets to score")
    ids = [series.activity_id for series in window_sets[0]]
    if len(ids) < 2:
        raise ConfigError("an activity set needs at least two activities")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate activity ids: {ids}")
    for index, window_set in enumerate(window_sets):
        if [series.activity_id for series in window_set] != ids:
            raise ConfigError(f"window set {index}: activity ids differ from window set 0's")
    for window_set in window_sets:
        lead = window_set[0]
        for a in window_set[1:]:
            if a.sites != lead.sites:
                raise ConfigError(
                    f"site roster mismatch: {a.activity_id!r} has {a.sites}, "
                    f"{lead.activity_id!r} has {lead.sites}"
                )
            if a.length != lead.length:
                raise ConfigError(
                    f"length mismatch: {a.activity_id!r} has {a.length} frames, "
                    f"{lead.activity_id!r} has {lead.length}"
                )
            if a.sample_rate != lead.sample_rate:
                raise ConfigError(
                    f"sample rate mismatch: {a.activity_id!r} is at {a.sample_rate} Hz, "
                    f"{lead.activity_id!r} at {lead.sample_rate} Hz"
                )
    sites, member = _membership(labels)
    n = len(ids)
    first, second = np.triu_indices(n, 1)
    total = np.zeros(len(member))
    for window_set in window_sets:
        gram = _site_grams(window_set, sites)
        norms2 = np.diagonal(gram, axis1=1, axis2=2)
        packed = np.concatenate([norms2, gram[:, first, second]], axis=1)
        for begin in range(0, len(member), SUBSET_CHUNK):
            chunk = member[begin:begin + SUBSET_CHUNK]
            stack = np.zeros((len(chunk), packed.shape[1]))
            for s, row in enumerate(packed):
                np.add(stack, row, out=stack, where=chunk[:, s, None])
            norm2 = stack[:, :n]
            usable = (norm2 > 0) & (norm2 < np.inf)
            if not usable.all():
                first_bad, activity = np.argwhere(~usable)[0]  # row-major: first subset first
                held = compress(sites, chunk[first_bad])
                raise _bad_norm(window_set, held, activity, float(norm2[first_bad, activity]))
            total[begin:begin + len(chunk)] += _cosine_distance_sums(stack, first, second)
    return total / len(window_sets)


def sort_ranking(labels, scores) -> tuple[list[str], list[float]]:
    """Order ``labels`` and their ``scores`` best first under ``TIE_BREAK``,
    with canonical labels; a subset named twice raises InvalidRankError.

    The pairs are put in tie-break order, the order of ``subset_labels``,
    which takes linear time for labels already in it, as
    ``sites.enumerate_subsets`` gives them. One stable sort by score,
    descending, then keeps equal scores in that order.
    """
    position = subset_labels()
    labels = [canonical_label(label) for label in labels]
    if len(set(labels)) < len(labels):
        positions(labels)  # raises, naming the first subset given twice
    pairs = sorted(zip(labels, scores), key=lambda pair: position[pair[0]])
    pairs.sort(key=itemgetter(1), reverse=True)
    return [label for label, _ in pairs], [score for _, score in pairs]


def rank_placements(window_sets, labels) -> tuple[list[str], list[float]]:
    """Score the subsets named by ``labels`` by their mean over
    ``window_sets`` (``mean_scores``, which checks the window sets) and
    rank them: ``(labels, scores)`` best first, with canonical labels."""
    labels = list(labels)
    if not labels:
        raise ConfigError("no subsets to rank")
    return sort_ranking(labels, mean_scores(window_sets, labels).tolist())

