"""Run configuration and its fingerprint.

A run is fully determined by its configuration plus its inputs, so reports
embed a sha256 fingerprint of the resolved configuration. Equal
fingerprints on equal inputs mean byte-identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .skeleton import DEFAULT_ROSTER, canonical_sites
from .synth import RNG_NAME


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for a scoring run."""

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
        sizes = tuple(sorted(set(int(s) for s in self.subset_sizes)))
        object.__setattr__(self, "subset_sizes", sizes)
        if self.series_length < 2:
            raise ConfigError("series length must be at least 2")
        if self.sample_rate <= 0:
            raise ConfigError("sample rate must be positive")
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

    def with_overrides(self, **kwargs) -> "RunConfig":
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **provided) if provided else self

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


# Keys accepted in config files and their parsers.
_PARSERS = {
    "roster": lambda v: tuple(p.strip() for p in v.split(",") if p.strip()),
    "series_length": int,
    "sample_rate": float,
    "confidence_threshold": float,
    "max_gap": int,
    "subset_sizes": lambda v: tuple(int(p) for p in v.split(",") if p.strip()),
    "subsample": str,
    "multi_window": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "allow_head": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines into RunConfig keyword arguments.

    Blank lines and lines starting with ``#`` are ignored. Unknown keys and
    unparseable values raise ConfigError.
    """
    out = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[key](value)
        except ConfigError:
            raise
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        kwargs.update(parse_config_text(text, source=str(path)))
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
