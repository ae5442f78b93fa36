"""Placement sites: their ids, names and canonical order; the check that
a ranking names each subset once; the parsers of the values flags and
config files give (site lists, subset sizes, numbers, on/off switches);
and ``SETTINGS``, the one table of run settings, with their defaults and
value rules.

Plain Python with no array code, so the commands that only read and write
rankings (``compare``, ``report``) and the CLI's parser can use it without
loading numpy or the run configuration.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import cache
from itertools import combinations

from .errors import ConfigError, InvalidRankError, SiteExcludedError, UnknownSiteError

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



def positions(ordering) -> dict[str, int]:
    """Each item's position in ``ordering``; an item may appear only once."""
    places = {}
    for place, item in enumerate(ordering):
        if item in places:
            raise InvalidRankError(f"item {item!r} appears twice in one ranking")
        places[item] = place
    return places


def check_roster(roster) -> tuple[str, ...]:
    """Return ``roster`` sorted canonically: a non-empty tuple or list of known site ids."""
    if not (isinstance(roster, (tuple, list)) and all(isinstance(site, str) for site in roster)):
        raise ConfigError(f"roster must be a tuple or list of site ids, got {roster!r}")
    roster = canonical_sites(map(str, roster))  # a numpy string becomes a plain one
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


def shown(value) -> str:
    """A setting's value as ``--help`` and the fingerprint show it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# --- checks of one setting on its own ---------------------------------------
# Each returns a setting's value as RunConfig keeps it, or raises ConfigError
# (UnknownSiteError for a site id), which names the setting for a value of
# the wrong kind. The library steps check the settings they take with them;
# across settings, RunConfig checks the head rule, ``enumerate_subsets`` the sizes.

def _is_bool(value) -> bool:
    """Whether ``value`` is a bool, Python's or numpy's (matched by type name: no numpy import)."""
    kind = type(value)
    return kind is bool or (kind.__module__ == "numpy" and kind.__name__ in ("bool", "bool_"))


def whole(value, what: str) -> int:
    """``value`` as an int; a bool or a value of no integer type raises ConfigError."""
    if isinstance(value, numbers.Integral) and not _is_bool(value):
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def real(value, what: str) -> float:
    """``value`` as a float, infinite past its range; a bool or a non-real raises ConfigError."""
    if isinstance(value, numbers.Real) and not _is_bool(value):
        try:
            return float(value)
        except OverflowError:  # an int or fraction too large for a float
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _rule(holds, message, kind):
    """The check that passes a value ``holds`` accepts as a plain ``kind``
    (a numpy number becomes the Python number a report can write), and
    raises ``message``, formatted with the value, for any other."""
    def check(value):
        if not holds(value):
            raise ConfigError(message.format(value))
        return kind(value)
    return check


# a sample rate in Hz; the ``subsample`` setting, parsed and checked in one step
check_rate = _rule(lambda r: 0 < real(r, "sample rate") < math.inf,
                   "sample rate must be positive and finite", float)
subsample_mode = _rule(lambda m: m in ("first", "uniform"),
                       "subsample mode must be first or uniform, got {!r}", str)
check_length = _rule(lambda n: whole(n, "series length") >= 2,
                     "series length must be at least 2", int)
check_threshold = _rule(lambda c: 0.0 <= real(c, "confidence threshold") <= 1.0,
                        "confidence threshold must be within [0, 1]", float)
check_gap = _rule(lambda n: whole(n, "max gap") >= 0, "max gap must be >= 0", int)
check_allow_head = _rule(_is_bool, "allow_head must be True or False, got {!r}", bool)


def _subset_sizes(sizes) -> tuple[int, ...]:
    if not isinstance(sizes, (tuple, list)):
        raise ConfigError(f"subset sizes must be a tuple or list of integers, got {sizes!r}")
    sizes = tuple(sorted({whole(s, "subset size") for s in sizes}))
    if not sizes:
        raise ConfigError("at least one subset size is required")
    if sizes[0] < 1:
        raise ConfigError(f"subset sizes must be at least 1, got {sizes}")
    return sizes


def check_sizes(sizes, roster) -> tuple[int, ...]:
    """``sizes`` checked alone, then against a checked ``roster``'s length."""
    sizes = _subset_sizes(sizes)
    if sizes[-1] > len(roster):
        raise ConfigError(f"subset sizes {sizes} out of range for a roster of {len(roster)}")
    return sizes


# A run setting: its RunConfig field (also its config-file and report key),
# flag, parser (text to value, raising on a bad spelling), check, default,
# and the flag's help and metavar. A ``switch`` setting is an on/off flag.
Setting = namedtuple("Setting", "key flag parse check default help metavar", defaults=(None,))

# The run settings, in RunConfig field order.
SETTINGS = (
    Setting("roster", "--roster", site_list, check_roster, DEFAULT_ROSTER,
            "comma-separated site ids", "SITES"),
    Setting("series_length", "--length", integer, check_length, 500, "frames per scored window"),
    Setting("sample_rate", "--rate", number, check_rate, 10.0, "target sample rate in Hz"),
    Setting("confidence_threshold", "--threshold", number, check_threshold, 0.3,
            "keypoint confidence threshold"),
    Setting("max_gap", "--max-gap", integer, check_gap, 10, "longest repairable gap in frames"),
    Setting("subset_sizes", "--sizes", size_list, _subset_sizes, (1, 2, 3, 4),
            "subset sizes to score", "N,N,..."),
    Setting("subsample", "--subsample", subsample_mode, subsample_mode, "first",
            "how to cut long recordings to the window length", "{first,uniform}"),
    Setting("multi_window", "--multi-window", switch,
            _rule(_is_bool, "multi_window must be True or False, got {!r}", bool), False,
            "average scores over all full windows"),
    Setting("allow_head", "--allow-head", switch, check_allow_head, False,
            "permit HD in the roster"),
)

DEFAULTS = {setting.key: setting.default for setting in SETTINGS}
