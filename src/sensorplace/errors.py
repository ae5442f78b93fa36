"""Exception hierarchy shared across the package.

Two families, matching the CLI exit-code contract: ``DataError`` (exit 1)
for anything traceable to user-supplied files, flags, or recordings, and
``ComputationError`` (exit 2) for numeric failures.
"""


class SensorPlaceError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SensorPlaceError):
    """Invalid input data or configuration (CLI exit code 1)."""


class ComputationError(SensorPlaceError):
    """Numeric failure while preprocessing or scoring (CLI exit code 2)."""


# --- ingestion -----------------------------------------------------------

class MalformedLineError(DataError):
    """A keypoint-file line does not match the expected field layout."""

    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class NonMonotoneTimeError(DataError):
    """Timestamps in a keypoint file are not strictly increasing."""

    def __init__(self, path, line_no, t_prev, t_cur):
        self.path = path
        self.line_no = line_no
        super().__init__(
            f"{path}:{line_no}: timestamp {t_cur!r} does not increase over {t_prev!r}"
        )


class ManifestError(DataError):
    """An activity manifest is malformed or references bad recordings."""


class ConfigError(DataError, ValueError):
    """A setting or argument value is out of range or inconsistent."""


class RateMismatchError(DataError):
    """Recording rate is not an integer multiple of the target rate."""


# --- skeleton preprocessing ----------------------------------------------

class EmptyFrameError(DataError):
    """A skeleton frame has no valid point to centralize around."""


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


class AllMissingSiteError(DataError):
    """A site has no valid sample anywhere in the recording."""


class EmptyEnvelopeError(DataError):
    """No frame range exists where every site has valid endpoints."""


class TooShortError(DataError):
    """A recording is shorter than the required window length."""

    def __init__(self, length, required):
        self.length = length
        self.required = required
        super().__init__(f"series has {length} frames, needs at least {required}")


# --- scoring --------------------------------------------------------------

class SiteNotPresentError(DataError):
    """A scored subset references a site missing from the series."""


class LengthMismatchError(ComputationError):
    """Two activity vectors have different lengths."""


class ZeroNormError(ComputationError):
    """An activity vector has zero norm; cosine distance is undefined."""


class ZeroVectorError(ComputationError):
    """An activity vector is zero, or its squared norm rounds to zero."""


# --- rank comparison -------------------------------------------------------

class InvalidRankError(DataError):
    """A ranking is not a usable ordering: its ranks are not 1..n, an item
    repeats, or there are too few items to correlate."""


class UniverseMismatchError(DataError):
    """Two rankings cover different subset universes."""

    def __init__(self, only_first, only_second):
        self.only_first = sorted(only_first)
        self.only_second = sorted(only_second)
        parts = []
        if self.only_first:
            parts.append(f"only in first: {', '.join(self.only_first)}")
        if self.only_second:
            parts.append(f"only in second: {', '.join(self.only_second)}")
        super().__init__("rankings cover different subsets; " + "; ".join(parts))
