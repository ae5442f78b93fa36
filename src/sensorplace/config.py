"""Run configuration and its fingerprint.

A run is fully determined by its configuration plus its inputs, so reports
embed a sha256 fingerprint of the resolved configuration. Equal
fingerprints on equal inputs mean byte-identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import field, fields, make_dataclass

from .errors import ConfigError, DataError
from .sites import BLANKS, SETTINGS, check_head, shown
from .textio import _read_text, data_lines

# The one random generator the package uses (numpy's PCG64, in ``synth``);
# named in every fingerprint and report.
RNG_NAME = "pcg64"


def _check(self):
    # each setting on its own, then the rules across settings every command
    # needs; subset sizes meet the roster where ``rank`` enumerates subsets
    for setting in SETTINGS:
        object.__setattr__(self, setting.key, setting.check(getattr(self, setting.key)))
    check_head(self.roster, self.allow_head)
    if self.multi_window and self.subsample == "uniform":
        raise ConfigError("multi_window requires contiguous windows; "
                          "it cannot be combined with uniform subsampling")


def _fingerprint(self) -> str:
    """sha256 over the canonical text form plus the RNG name."""
    parts = [f"rng={RNG_NAME}"]
    parts += (f"{f.name}={shown(getattr(self, f.name))}" for f in fields(self))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# The run settings of ``sites.SETTINGS`` as frozen fields, in its order and
# with its defaults: each is a config-file key, a settings flag of ``rank``
# and ``validate``, and a key of the report's ``config``.
RunConfig = make_dataclass(
    "RunConfig",
    [(s.key, type(s.default), field(default=s.default)) for s in SETTINGS],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "Resolved settings for a scoring run.",
               "__post_init__": _check, "fingerprint": _fingerprint},
)


# Config-file keys and their settings, in RunConfig field order.
_PARSERS = {setting.key: setting for setting in SETTINGS}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` data lines (see ``textio.data_lines``) into
    RunConfig keyword arguments; blanks around keys and values are dropped.
    Each value is parsed and checked on its own as it is read. An unknown
    or repeated key, and a bad value, raise ConfigError naming the line.
    """
    out, seen = {}, {}
    for line_no, line in zip(*data_lines(text)):
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip(BLANKS) for part in line.partition("="))
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{line_no}: {key!r} is already set on line {seen[key]}")
        seen[key] = line_no
        setting = _PARSERS[key]
        try:
            out[key] = setting.check(setting.parse(value))
        except (ValueError, DataError) as exc:
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
        kwargs = parse_config_text(_read_text(path, "config file", ConfigError), str(path))
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
