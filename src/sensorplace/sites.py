"""Placement sites: their ids, names and canonical order, and the parsers
of the values flags and config files give: site lists, subset sizes and
numbers.

Plain Python with no array code, so the commands that only read and write
rankings (``compare``, ``report``) and the CLI's parser can use it without
loading numpy or the run configuration.
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

BLANKS = " \t"  # the only blanks in any input, see ``textio.data_lines``

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
def subset_labels() -> dict[str, int]:
    """The label of every subset of the 12 sites, in canonical order, mapped
    to its place in the tie-break order: size ascending, then canonical
    site order."""
    sizes = range(1, len(SITE_ORDER) + 1)
    labels = ("+".join(c) for k in sizes for c in combinations(SITE_ORDER, k))
    return {label: place for place, label in enumerate(labels)}


def canonical_label(label: str) -> str:
    """The canonical label of the subset ``label`` names: its sites joined
    by ``+`` in canonical order. Each site must be known and given once, in
    any order; otherwise ``UnknownSiteError``."""
    if label in subset_labels():
        return label
    return "+".join(canonical_sites(check_roster(label.split("+"), allow_head=True)))


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


def integer(text: str) -> int:
    """An int spelled as ASCII digits with an optional leading ``-``;
    surrounding blanks are dropped."""
    digits = text.strip(BLANKS)
    if digits.isascii() and digits.removeprefix("-").isdigit():
        return int(digits)  # ValueError past int()'s digit limit
    raise ValueError(f"not an integer: {text!r}")


def number(text: str) -> float:
    """A float spelled in printable ASCII without ``_``, surrounding blanks
    dropped: the one number spelling of ranking tables, keypoint files,
    config values and flags. Non-finite values pass; callers check them.
    Any other text raises ``ValueError`` with one message, which shows the
    text without its surrounding blanks."""
    value = text.strip(BLANKS)
    if value.isascii() and value.isprintable() and "_" not in value:
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"not a number: {value!r}")


def site_list(text: str) -> tuple:
    """Comma-separated site ids, as config files and flags give them."""
    return tuple(p.strip(BLANKS) for p in text.split(",") if p.strip(BLANKS))


def size_list(text: str) -> tuple:
    """Comma-separated subset sizes."""
    return tuple(integer(p) for p in text.split(",") if p.strip(BLANKS))
