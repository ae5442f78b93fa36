"""Run configuration and its fingerprint.

A run is fully determined by its configuration plus its inputs, so reports
embed a sha256 fingerprint of the resolved configuration. Equal
fingerprints on equal inputs mean byte-identical reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .sites import (
    BLANKS,
    DEFAULT_ROSTER,
    canonical_sites,
    check_roster,
    integer,
    number,
    site_list,
    size_list,
)
from .textio import _read_text, data_lines

# The one random generator the package uses (numpy's PCG64, in ``synth``);
# named in every fingerprint and report.
RNG_NAME = "pcg64"


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for a scoring run.

    The fields are the one list of run settings: each is a config-file key,
    a settings flag of ``rank`` and ``validate``, and a key of the report's
    ``config``.
    """

    roster: tuple = DEFAULT_ROSTER
    series_length: int = 500
    sample_rate: float = 10.0
    confidence_threshold: float = 0.3
    max_gap: int = 10
    subset_sizes: tuple = (1, 2, 3, 4)
    subsample: str = "first"
    multi_window: bool = False
    allow_head: bool = False

    def __post_init__(self):
        object.__setattr__(self, "roster", canonical_sites(self.roster))
        if not self.roster:
            raise ConfigError("roster must not be empty")
        # unknown sites and a head site not allowed fail here, before any file
        # is read and before the subset sizes are checked against the roster
        check_roster(self.roster, self.allow_head)
        sizes = tuple(sorted(set(int(s) for s in self.subset_sizes)))
        object.__setattr__(self, "subset_sizes", sizes)
        if self.series_length < 2:
            raise ConfigError("series length must be at least 2")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ConfigError("sample rate must be positive and finite")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError("confidence threshold must be within [0, 1]")
        if self.max_gap < 0:
            raise ConfigError("max gap must be >= 0")
        if not sizes:
            raise ConfigError("at least one subset size is required")
        if sizes[0] < 1 or sizes[-1] > len(self.roster):
            raise ConfigError(
                f"subset sizes {sizes} out of range for a roster of {len(self.roster)}"
            )
        if self.subsample not in ("first", "uniform"):
            raise ConfigError(f"unknown subsample mode {self.subsample!r}")
        if self.multi_window and self.subsample == "uniform":
            raise ConfigError("multi_window requires contiguous windows; "
                              "it cannot be combined with uniform subsampling")

    def fingerprint(self) -> str:
        """sha256 over the canonical text form plus the RNG name."""
        parts = [f"rng={RNG_NAME}"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            parts.append(f"{f.name}={rendered}")
        text = "\n".join(parts)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _switch(text: str) -> bool:
    """An on/off value: 1/0, true/false, yes/no or on/off, in any case."""
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {text!r}")
    return value in ("1", "true", "yes", "on")


# Keys accepted in config files and their parsers: one per RunConfig field.
_PARSERS = {
    "roster": site_list,
    "series_length": integer,
    "sample_rate": number,
    "confidence_threshold": number,
    "max_gap": integer,
    "subset_sizes": size_list,
    "subsample": str,
    "multi_window": _switch,
    "allow_head": _switch,
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` data lines (see ``textio.data_lines``) into
    RunConfig keyword arguments; blanks around keys and values are dropped.
    Unknown keys and unparseable values raise ConfigError.
    """
    out = {}
    for line_no, line in zip(*data_lines(text)):
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip(BLANKS) for part in line.partition("="))
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"{source}:{line_no}: bad value for {key!r}: {exc}"
            ) from exc
    return out


def load_config(path, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional file plus explicit overrides.

    Flag-level overrides win over file values, which win over defaults.
    """
    kwargs = {}
    if path is not None:
        text = _read_text(path, "config file", ConfigError)
        kwargs.update(parse_config_text(text, source=str(path)))
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
