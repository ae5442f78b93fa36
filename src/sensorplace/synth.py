"""Seeded synthetic activity generation.

Each site traces a circle: base + amplitude * (sin, cos)(2*pi*f*t + phase),
plus optional Gaussian noise from numpy's PCG64 generator (the one
portable RNG this package uses; seeds reproduce corpora bit for bit).
Generated series are emitted directly in preprocessed form, with site bases
arranged so their centroid sits at (0.5, 0.5); no per-frame recentering is
applied afterwards, so sites with identical motion parameters stay identical
across activities.

Separable sets make one group of "discriminative" sites move with distinct
frequency and phase per activity while every other site keeps the same
static motion, giving ground truth for which placements should rank first.

The ``synth`` command, ``run_synth``, writes each activity as a 17-keypoint
file plus a manifest; it loads the file writers only when called. A
series' length and rate default to the run settings' window length and
rate, so a corpus written with no options ranks at default settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, UnknownSiteError
from .sites import (DEFAULT_ROSTER, DEFAULTS, SITE_ORDER, _is_bool, _rule, canonical_sites,
                    check_rate, check_roster, real, site_ids, whole)
from .skeleton import KEYPOINT_SITE, MERGE_SOURCES, NUM_KEYPOINTS, SkeletonSeries, WindowSets

# Rough humanoid layout in normalized image coordinates (y grows downward).
DEFAULT_POSE = {
    "HD": (0.50, 0.10),
    "LS": (0.42, 0.22),
    "RS": (0.58, 0.22),
    "LE": (0.38, 0.34),
    "RE": (0.62, 0.34),
    "LW": (0.35, 0.46),
    "RW": (0.65, 0.46),
    "PE": (0.50, 0.50),
    "LK": (0.44, 0.68),
    "RK": (0.56, 0.68),
    "LF": (0.42, 0.86),
    "RF": (0.58, 0.86),
}
AMPLITUDE = 0.12  # the radius of a discriminative site's circle


# --- argument checks: one ``sites`` rule per argument, which names it ----------
def _finite(what, at_least_0=False):
    finite = _rule(lambda v: math.isfinite(real(v, what)), what + " must be finite", float)
    return _rule(lambda v: finite(v) >= 0, what + " must be >= 0", float) if at_least_0 else finite


_check_xy = _finite("base")
_MOTION_RULES = {
    "base": _rule(lambda b: isinstance(b, (tuple, list)) and len(b) == 2,
                  "base must be an (x, y) pair, got {!r}", lambda b: tuple(map(_check_xy, b))),
    "phase": _finite("phase"),
    **{field: _finite(field, True) for field in ("amplitude", "frequency", "noise_sigma")},
}
_check_seed = _rule(lambda n: whole(n, "seed") >= 0, "seed must be >= 0", int)
_SPEC_RULES = {
    "motions": _rule(lambda m: isinstance(m, dict) and canonical_sites(m) and all(  # site ids
        isinstance(motion, SiteMotion) for motion in m.values()),
        "motions must be a non-empty dict of SiteMotion, got {!r}", dict),
    "length": _rule(lambda n: whole(n, "length") >= 1, "length must be at least 1", int),
    "sample_rate": check_rate,
    "seed": _check_seed,
}
_check_activities = _rule(lambda n: whole(n, "activities") >= 2, "need at least two activities", int)
# the top frequency of a separable set, nyquist - 0.5, is negative under 1 Hz
_check_separable_rate = _rule(lambda r: check_rate(r) >= 1.0,
                              "sample rate must be at least 1 Hz, got {:g} Hz", float)
_check_drift = _rule(_is_bool, "drift must be True or False, got {!r}", bool)


@dataclass(frozen=True)
class SiteMotion:
    """Circular motion parameters for one site."""

    base: tuple[float, float]
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):  # each field as its rule returns it
        for field, check in _MOTION_RULES.items():
            object.__setattr__(self, field, check(getattr(self, field)))


@dataclass(frozen=True)
class MotionSpec:
    """Full description of one synthetic activity."""

    activity_id: str
    motions: dict  # site id -> SiteMotion
    length: int = DEFAULTS["series_length"]
    sample_rate: float = DEFAULTS["sample_rate"]
    seed: int = 0

    def __post_init__(self):
        for field, check in _SPEC_RULES.items():
            object.__setattr__(self, field, check(getattr(self, field)))


def centered_bases(roster) -> dict[str, tuple[float, float]]:
    """Default pose bases for ``roster``, translated so their centroid is
    (0.5, 0.5)."""
    roster = canonical_sites(roster)
    raw = np.array([DEFAULT_POSE[s] for s in roster], dtype=np.float64)
    shift = raw.mean(axis=0) - 0.5
    centered = raw - shift
    return {s: (float(p[0]), float(p[1])) for s, p in zip(roster, centered)}


# a site's points are checked once, so numpy's overflow warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def generate_activity(spec: MotionSpec) -> SkeletonSeries:
    """Generate one activity's skeleton series from its motion spec.

    Sites are laid out in canonical order. The same spec and seed always
    produce a bit-identical series.
    """
    sites = canonical_sites(spec.motions.keys())
    t = np.arange(spec.length, dtype=np.float64) / spec.sample_rate
    rng = np.random.default_rng(spec.seed)
    points = np.empty((len(sites), spec.length, 2), dtype=np.float64)
    for row, site in enumerate(sites):
        m = spec.motions[site]
        angle = 2.0 * np.pi * m.frequency * t + m.phase
        points[row, :, 0] = m.base[0] + m.amplitude * np.sin(angle)
        points[row, :, 1] = m.base[1] + m.amplitude * np.cos(angle)
        if m.noise_sigma > 0:
            points[row] += rng.normal(0.0, m.noise_sigma, size=(spec.length, 2))
        if not np.isfinite(points[row]).all():  # a sum past float max, or sin(inf)
            raise ConfigError(f"site {site} of {spec.activity_id}: base, amplitude, frequency or "
                              f"noise_sigma {m.noise_sigma:g} is too large: the points overflow")
    return SkeletonSeries(
        activity_id=spec.activity_id,
        sites=sites,
        points=points,
        sample_rate=spec.sample_rate,
    )


def separable_specs(
    n_activities: int,
    discriminative_sites,
    seed: int = 0,
    noise_sigma: float = 0.0,
    length: int = DEFAULTS["series_length"],
    sample_rate: float = DEFAULTS["sample_rate"],
    roster=DEFAULT_ROSTER,
) -> list[MotionSpec]:
    """Motion specs for a set of activities separable only at the
    discriminative sites, a tuple or list of site ids in ``roster``.

    Discriminative sites get a distinct frequency and phase per activity;
    all other sites keep amplitude zero, so with zero noise their series
    are identical across activities. The sample rate is at least 1 Hz.
    """
    n_activities = _check_activities(n_activities)
    sample_rate = _check_separable_rate(sample_rate)  # before the frequencies
    seed = _check_seed(seed)
    roster = check_roster(roster)
    discriminative = site_ids(discriminative_sites, "discriminative sites")
    unknown = [s for s in discriminative if s not in roster]
    if unknown:
        raise UnknownSiteError(f"discriminative sites {unknown} not in roster {roster}")
    if len(set(discriminative)) != len(discriminative):
        raise UnknownSiteError(f"discriminative sites {list(discriminative)} repeat a site")

    bases = centered_bases(roster)
    nyquist = sample_rate / 2.0
    # the top frequency as the spread below computes it, in Python floats,
    # which overflow without a warning: past float max / (2*pi) its angles
    # are all nan
    top = 0.5 + (float(nyquist) - 1.0) * float(n_activities - 1) / (n_activities - 1)
    if not np.isfinite(2.0 * np.pi * top):
        raise ConfigError(f"sample rate {sample_rate:g} Hz is too high: the motion angles overflow")
    # Spread frequencies across (0, nyquist) with distinct values per activity.
    freqs = 0.5 + (nyquist - 1.0) * np.arange(n_activities) / (n_activities - 1)
    child_seeds = np.random.default_rng(seed).integers(0, 2**63, size=n_activities)

    still = {site: SiteMotion(base=bases[site], noise_sigma=noise_sigma) for site in roster}
    specs = []
    for i in range(n_activities):
        motions = dict(still)
        for site in discriminative:
            motions[site] = SiteMotion(
                base=bases[site],
                amplitude=AMPLITUDE,
                frequency=float(freqs[i]),
                phase=2.0 * np.pi * i / n_activities,
                noise_sigma=noise_sigma,
            )
        specs.append(
            MotionSpec(
                activity_id=f"act{i + 1:02d}",
                motions=motions,
                length=length,
                sample_rate=sample_rate,
                seed=int(child_seeds[i]),
            )
        )
    return specs


def make_separable_set(n_activities: int, discriminative_sites, **options) -> WindowSets:
    """Generate one window set whose activities differ only at the
    discriminative sites, as the ``WindowSets`` ``scoring.mean_scores``
    takes; ``options`` are the keyword arguments of ``separable_specs``."""
    specs = separable_specs(n_activities, discriminative_sites, **options)
    series = [generate_activity(spec) for spec in specs]
    return WindowSets(tuple(a.activity_id for a in series), series[0].sites,
                      np.stack([a.points for a in series])[None])


# --- the synth command ------------------------------------------------------

MANIFEST_FILENAME = "manifest.txt"

# Offsets of each COCO keypoint from the site point it is expanded from.
# The facial offsets sum to zero so consolidation recovers the head point;
# the hip offsets are symmetric around the pelvis; every other keypoint sits
# on its site.
_KEYPOINT_OFFSETS = np.zeros((NUM_KEYPOINTS, 2))
_KEYPOINT_OFFSETS[list(MERGE_SOURCES["HD"])] = (
    (0.0, 0.0),        # nose
    (0.01, -0.01),     # left eye
    (-0.01, -0.01),    # right eye
    (0.02, 0.01),      # left ear
    (-0.02, 0.01),     # right ear
)
_KEYPOINT_OFFSETS[list(MERGE_SOURCES["PE"])] = ((-0.03, 0.0), (0.03, 0.0))


def series_to_frames(series: SkeletonSeries, drift: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Expand a 12-site series into timestamps ``t[L]`` and raw keypoints
    ``kp[L, 17, 3]``.

    The five facial keypoints are placed around the head point with
    zero-sum offsets and the two hips symmetrically around the pelvis, so
    consolidation recovers the original sites. With ``drift`` a smooth
    whole-body translation is added per frame; per-frame centralization
    removes it on ingestion. All confidences are 1.0.
    """
    drift = _check_drift(drift)
    if set(series.sites) != set(SITE_ORDER):
        raise ValueError("keypoint export needs a series covering all 12 sites")
    L = series.length
    t = np.arange(L, dtype=np.float64) / series.sample_rate
    shift = np.zeros((L, 2))
    if drift:
        shift[:, 0] = 0.05 * np.sin(2.0 * np.pi * 0.2 * t) + 0.001 * t
        shift[:, 1] = 0.05 * np.cos(2.0 * np.pi * 0.3 * t)
    rows = [series.sites.index(site) for site in KEYPOINT_SITE]
    kp = np.ones((L, NUM_KEYPOINTS, 3), dtype=np.float64)
    kp[:, :, :2] = (series.points[rows].transpose(1, 0, 2) + _KEYPOINT_OFFSETS) + shift[:, None]
    return t, kp


def run_synth(out_dir, n_activities: int = 3, discriminative_sites=("LW",), style: str = "csv",
              drift: bool = True, **options):
    """Emit a synthetic keypoint corpus plus its manifest; ``options`` are
    the other keyword arguments of ``separable_specs``.

    Activities are generated over all 12 sites (so the full 17-keypoint
    expansion is well-defined) and written one file per activity. Returns
    the manifest path. Every argument is checked before any file is
    written.
    """
    from . import io as pio
    from .textio import atomic_write_text

    out_dir = Path(out_dir)
    style, drift = pio._check_style(style), _check_drift(drift)
    specs = separable_specs(n_activities, discriminative_sites, roster=SITE_ORDER, **options)
    activities = [generate_activity(spec) for spec in specs]
    extension = "csv" if style == "csv" else "txt"
    manifest_lines = []
    for series in activities:
        t, kp = series_to_frames(series, drift=drift)
        filename = f"{series.activity_id}.{extension}"
        pio.write_keypoint_file(out_dir / filename, t, kp, style=style)
        manifest_lines.append(f"{series.activity_id} {filename}")
    manifest_path = out_dir / MANIFEST_FILENAME
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    return manifest_path
