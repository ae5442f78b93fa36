"""Placement sites: their ids, names and canonical order; the parsers of
the values flags and config files give (site lists, subset sizes, numbers,
on/off switches); and ``SETTINGS``, the one table of run settings.

Plain Python with no array code, so the commands that only read and write
rankings (``compare``, ``report``) and the CLI's parser can use it without
loading numpy or the run configuration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from itertools import combinations

from .errors import ConfigError, SiteExcludedError, UnknownSiteError

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


def canonical_sites(sites) -> tuple[str, ...]:
    """Return ``sites`` sorted canonically; repeated or unknown ids raise UnknownSiteError."""
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise UnknownSiteError(f"duplicate site ids in {sites!r}")
    for site in sites:
        if site not in _SITE_INDEX:
            raise UnknownSiteError(f"unknown site id {site!r}")
    return tuple(sorted(sites, key=_SITE_INDEX.__getitem__))


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
    return "+".join(canonical_sites(label.split("+")))


def check_roster(roster) -> tuple[str, ...]:
    """Return ``roster`` sorted canonically: a non-empty set of known sites."""
    roster = canonical_sites(roster)
    if not roster:
        raise ConfigError("roster must not be empty")
    return roster


def check_head(roster, allow_head: bool) -> None:
    """The head site is excluded from placement unless ``allow_head``."""
    if "HD" in roster and not allow_head:
        raise SiteExcludedError("the head site is excluded from placement")


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
    """Comma-separated site ids, as config files and flags give them. One
    trailing comma is allowed; any other empty item raises ValueError."""
    items = [item.strip(BLANKS) for item in text.split(",")]
    if not items[-1]:
        items.pop()
    if "" in items:
        raise ValueError(f"empty item in {text.strip(BLANKS)!r}")
    return tuple(items)


def size_list(text: str) -> tuple:
    """Comma-separated subset sizes, split as ``site_list`` splits sites."""
    return tuple(map(integer, site_list(text)))


def switch(text: str) -> bool:
    """An on/off value: 1/0, true/false, yes/no or on/off, in any case."""
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {text!r}")
    return value in ("1", "true", "yes", "on")


def subsample_mode(mode: str) -> str:
    """The ``subsample`` setting, parsed and checked in one step."""
    if mode not in ("first", "uniform"):
        raise ConfigError(f"subsample mode must be first or uniform, got {mode!r}")
    return mode


# --- checks of one setting on its own ---------------------------------------
# Each returns a setting's value as RunConfig keeps it, or raises ConfigError
# (UnknownSiteError for a site id). Checks across settings are RunConfig's.

def _rule(holds, message):
    """The check that passes a value ``holds`` accepts, unchanged."""
    def check(value):
        if not holds(value):
            raise ConfigError(message)
        return value
    return check


def _subset_sizes(sizes) -> tuple[int, ...]:
    sizes = tuple(sorted(set(int(s) for s in sizes)))
    if not sizes:
        raise ConfigError("at least one subset size is required")
    if sizes[0] < 1:
        raise ConfigError(f"subset sizes must be at least 1, got {sizes}")
    return sizes


# A run setting: its RunConfig field (also its config-file and report key),
# flag, parser (text to value, raising on a bad spelling), check, and the
# flag's help and metavar. A ``switch`` setting is an on/off flag.
Setting = namedtuple("Setting", "key flag parse check help metavar", defaults=(None,))

# The run settings, in RunConfig field order.
SETTINGS = (
    Setting("roster", "--roster", site_list, check_roster,
            "comma-separated site ids (default LW,RW,PE,LF,RF)", "SITES"),
    Setting("series_length", "--length", integer,
            _rule(lambda n: n >= 2, "series length must be at least 2"),
            "frames per scored window (default 500)"),
    Setting("sample_rate", "--rate", number,
            _rule(lambda r: r > 0 and math.isfinite(r), "sample rate must be positive and finite"),
            "target sample rate in Hz (default 10)"),
    Setting("confidence_threshold", "--threshold", number,
            _rule(lambda c: 0.0 <= c <= 1.0, "confidence threshold must be within [0, 1]"),
            "keypoint confidence threshold (default 0.3)"),
    Setting("max_gap", "--max-gap", integer, _rule(lambda n: n >= 0, "max gap must be >= 0"),
            "longest repairable gap in frames (default 10)"),
    Setting("subset_sizes", "--sizes", size_list, _subset_sizes,
            "subset sizes to score (default 1,2,3,4)", "N,N,..."),
    Setting("subsample", "--subsample", subsample_mode, subsample_mode,
            "how to cut long recordings to the window length", "{first,uniform}"),
    Setting("multi_window", "--multi-window", switch, bool, "average scores over all full windows"),
    Setting("allow_head", "--allow-head", switch, bool, "permit HD in the roster"),
)
