"""Seeded synthetic activity generation.

Each site traces a circle: base + amplitude * (sin, cos)(2*pi*f*t + phase),
plus optional Gaussian noise from numpy's PCG64 generator (the one named,
portable RNG this package uses; seeds reproduce corpora bit for bit).
Generated series are emitted directly in preprocessed form, with site bases
arranged so their centroid sits at (0.5, 0.5); no per-frame recentering is
applied afterwards, so sites with identical motion parameters stay identical
across activities.

Separable sets make one group of "discriminative" sites move with distinct
frequency and phase per activity while every other site keeps the same
static motion, giving ground truth for which placements should rank first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sites import DEFAULT_ROSTER, canonical_sites
from .skeleton import ActivitySet, SkeletonSeries

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
        if self.amplitude < 0 or self.frequency < 0 or self.noise_sigma < 0:
            raise ValueError("amplitude, frequency, and noise_sigma must be >= 0")


@dataclass(frozen=True)
class MotionSpec:
    """Full description of one synthetic activity."""

    activity_id: str
    motions: dict  # site id -> SiteMotion
    length: int = 500
    sample_rate: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
            raise ValueError("sample rate must be positive and finite")
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
    length: int = 500,
    sample_rate: float = 10.0,
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
    # checked before the frequencies are derived from it, as MotionSpec does
    if not (sample_rate > 0 and np.isfinite(sample_rate)):
        raise ValueError("sample rate must be positive and finite")
    # the top frequency below, nyquist - 0.5, is negative under 1 Hz
    if sample_rate < 1.0:
        raise ValueError(f"sample rate must be at least 1 Hz, got {sample_rate:g} Hz")
    roster = canonical_sites(roster)
    discriminative = canonical_sites(discriminative_sites)
    unknown = [s for s in discriminative if s not in roster]
    if unknown:
        raise ValueError(f"discriminative sites {unknown} not in roster {roster}")

    bases = centered_bases(roster)
    nyquist = sample_rate / 2.0
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


def make_separable_set(
    n_activities: int,
    discriminative_sites,
    seed: int = 0,
    noise_sigma: float = 0.0,
    length: int = 500,
    sample_rate: float = 10.0,
    roster=DEFAULT_ROSTER,
) -> ActivitySet:
    """Generate an activity set whose activities differ only at the
    discriminative sites."""
    specs = separable_specs(
        n_activities,
        discriminative_sites,
        seed=seed,
        noise_sigma=noise_sigma,
        length=length,
        sample_rate=sample_rate,
        roster=roster,
    )
    return ActivitySet(activities=tuple(generate_activity(s) for s in specs))
