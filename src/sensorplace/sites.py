"""Placement sites: their ids, names and canonical order.

Plain Python with no array code, so the commands that only read and write
rankings (``compare``, ``report``) and the run configuration can use it
without loading numpy.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .errors import SiteExcludedError, UnknownSiteError

# Placement sites in canonical order: the five-site evaluation roster first
# (left wrist, right wrist, pelvis, left ankle, right ankle), then the
# remaining sites alphabetically. Subset labels, tie-breaks, and vector
# layouts all follow this order.
SITE_ORDER = ("LW", "RW", "PE", "LF", "RF", "HD", "LE", "LK", "LS", "RE", "RK", "RS")

SITE_NAMES = {
    "LW": "left wrist",
    "RW": "right wrist",
    "PE": "pelvis",
    "LF": "left ankle",
    "RF": "right ankle",
    "HD": "head",
    "LE": "left elbow",
    "LK": "left knee",
    "LS": "left shoulder",
    "RE": "right elbow",
    "RK": "right knee",
    "RS": "right shoulder",
}

DEFAULT_ROSTER = ("LW", "RW", "PE", "LF", "RF")

_SITE_INDEX = {site: i for i, site in enumerate(SITE_ORDER)}


def site_key(site: str) -> tuple[int, str]:
    """Sort key realizing the canonical site order; unknown ids sort last,
    alphabetically."""
    return (_SITE_INDEX.get(site, len(SITE_ORDER)), site)


def canonical_sites(sites) -> tuple[str, ...]:
    """Return ``sites`` sorted canonically, rejecting duplicates."""
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise UnknownSiteError(f"duplicate site ids in {sites!r}")
    return tuple(sorted(sites, key=site_key))


@cache
def subset_labels() -> frozenset[str]:
    """The label of every subset of the 12 sites, in canonical order."""
    sizes = range(1, len(SITE_ORDER) + 1)
    return frozenset("+".join(c) for k in sizes for c in combinations(SITE_ORDER, k))


def check_roster(roster, allow_head: bool = False) -> tuple[str, ...]:
    """Return ``roster`` as a tuple after checking that it is a non-empty
    set of known placement sites.

    The head site is excluded from placement unless ``allow_head`` is set.
    """
    roster = tuple(roster)
    if not roster:
        raise UnknownSiteError("roster must not be empty")
    if len(set(roster)) != len(roster):
        raise UnknownSiteError(f"duplicate site ids in {roster!r}")
    for site in roster:
        if site not in _SITE_INDEX:
            raise UnknownSiteError(f"unknown site id {site!r}")
        if site == "HD" and not allow_head:
            raise SiteExcludedError("the head site is excluded from placement")
    return roster
