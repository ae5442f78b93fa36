"""Exception hierarchy shared across the package.

Two families, matching the CLI exit-code contract: ``DataError`` (exit 1)
for anything traceable to user-supplied files, flags, or recordings, and
``ComputationError`` (exit 2) for numeric failures. Each subclass below
exists because the program catches it by name or README documents it;
every other input or numeric failure is raised as one of the two
families, carrying the line the CLI prints.
"""


class SensorPlaceError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SensorPlaceError):
    """Invalid input data or configuration (CLI exit code 1)."""


class ComputationError(SensorPlaceError):
    """Numeric failure while preprocessing or scoring (CLI exit code 2)."""


class MalformedLineError(DataError):
    """A line of an input file is malformed: ``PATH:LINE: reason``."""

    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")

    def __reduce__(self):  # pickle's default passes the message alone to __init__
        return type(self), (self.path, self.line_no, self.reason)


class ManifestError(DataError):
    """An activity manifest is malformed or references bad recordings."""


class ConfigError(DataError, ValueError):
    """A setting or argument value is out of range or inconsistent."""


class UnknownSiteError(DataError):
    """A roster references a site id that does not exist."""


class SiteExcludedError(DataError):
    """A roster references a site that is excluded from placement."""


class GapTooLongError(DataError):
    """A missing-data gap exceeds the repairable limit."""

    def __init__(self, site, start, end):
        self.site = site
        self.start = start
        self.end = end
        super().__init__(
            f"site {site}: gap of {end - start} frames at [{start}, {end}) "
            "exceeds the repair limit"
        )

    def __reduce__(self):
        return type(self), (self.site, self.start, self.end)


class InvalidRankError(DataError):
    """A ranking is not a usable ordering: its ranks are not 1..n, an item
    repeats, or there are too few items to correlate."""
