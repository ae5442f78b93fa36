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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .sites import DEFAULT_ROSTER, DEFAULTS, SITE_ORDER, canonical_sites, check_rate
from .skeleton import KEYPOINT_SITE, MERGE_SOURCES, NUM_KEYPOINTS, SkeletonSeries

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


@dataclass(frozen=True)
class SiteMotion:
    """Circular motion parameters for one site."""

    base: tuple[float, float]
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        values = (*self.base, self.amplitude, self.frequency, self.phase, self.noise_sigma)
        if not np.isfinite(values).all():
            raise ValueError("base, amplitude, frequency, phase, and noise_sigma must be finite")
        if self.amplitude < 0 or self.frequency < 0 or self.noise_sigma < 0:
            raise ValueError("amplitude, frequency, and noise_sigma must be >= 0")


@dataclass(frozen=True)
class MotionSpec:
    """Full description of one synthetic activity."""

    activity_id: str
    motions: dict  # site id -> SiteMotion
    length: int = DEFAULTS["series_length"]
    sample_rate: float = DEFAULTS["sample_rate"]
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be at least 1")
        check_rate(self.sample_rate)
        if not self.motions:
            raise ValueError("at least one site motion is required")
        object.__setattr__(self, "motions", dict(self.motions))


def centered_bases(roster) -> dict[str, tuple[float, float]]:
    """Default pose bases for ``roster``, translated so their centroid is
    (0.5, 0.5)."""
    roster = canonical_sites(roster)
    raw = np.array([DEFAULT_POSE[s] for s in roster], dtype=np.float64)
    shift = raw.mean(axis=0) - 0.5
    centered = raw - shift
    return {s: (float(p[0]), float(p[1])) for s, p in zip(roster, centered)}


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
    amplitude: float = 0.12,
) -> list[MotionSpec]:
    """Motion specs for a set of activities separable only at the
    discriminative sites.

    Discriminative sites get a distinct frequency and phase per activity;
    all other sites keep amplitude zero, so with zero noise their series
    are identical across activities.
    """
    if n_activities < 2:
        raise ValueError("need at least two activities")
    check_rate(sample_rate)  # before the frequencies are derived from it
    # the top frequency below, nyquist - 0.5, is negative under 1 Hz
    if sample_rate < 1.0:
        raise ValueError(f"sample rate must be at least 1 Hz, got {sample_rate:g} Hz")
    roster = canonical_sites(roster)
    discriminative = tuple(discriminative_sites)
    unknown = [s for s in discriminative if s not in roster]
    if unknown:
        raise ValueError(f"discriminative sites {unknown} not in roster {roster}")
    canonical_sites(discriminative)  # a repeated site is bad input

    bases = centered_bases(roster)
    nyquist = sample_rate / 2.0
    # the top frequency as the spread below computes it, in Python floats,
    # which overflow without a warning: past float max / (2*pi) its angles
    # are all nan
    top = 0.5 + (float(nyquist) - 1.0) * float(n_activities - 1) / max(n_activities - 1, 1)
    if not np.isfinite(2.0 * np.pi * top):
        raise ConfigError(f"sample rate {sample_rate:g} Hz is too high: the motion angles overflow")
    # Spread frequencies across (0, nyquist) with distinct values per activity.
    freqs = 0.5 + (nyquist - 1.0) * np.arange(n_activities) / max(n_activities - 1, 1)
    child_seeds = np.random.default_rng(seed).integers(0, 2**63, size=n_activities)

    specs = []
    for i in range(n_activities):
        motions = {}
        for site in roster:
            if site in discriminative:
                motions[site] = SiteMotion(
                    base=bases[site],
                    amplitude=amplitude,
                    frequency=float(freqs[i]),
                    phase=2.0 * np.pi * i / n_activities,
                    noise_sigma=noise_sigma,
                )
            else:
                motions[site] = SiteMotion(base=bases[site], noise_sigma=noise_sigma)
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


def make_separable_set(n_activities: int, discriminative_sites,
                       **options) -> tuple[SkeletonSeries, ...]:
    """Generate a window set, one series per activity, whose activities
    differ only at the discriminative sites; ``options`` are the keyword
    arguments of ``separable_specs``. Its series share one roster, length
    and rate, as ``scoring.mean_scores`` requires."""
    specs = separable_specs(n_activities, discriminative_sites, **options)
    return tuple(generate_activity(s) for s in specs)


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
    the manifest path. Generator arguments it cannot use raise ConfigError.
    """
    from . import io as pio
    from .textio import atomic_write_text

    out_dir = Path(out_dir)
    try:
        window_set = make_separable_set(n_activities, discriminative_sites,
                                        roster=SITE_ORDER, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    extension = "csv" if style == "csv" else "txt"
    manifest_lines = []
    for series in window_set:
        t, kp = series_to_frames(series, drift=drift)
        filename = f"{series.activity_id}.{extension}"
        pio.write_keypoint_file(out_dir / filename, t, kp, style=style)
        manifest_lines.append(f"{series.activity_id} {filename}")
    manifest_path = out_dir / MANIFEST_FILENAME
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    return manifest_path
