"""Seeded synthetic corpus generation."""

import numpy as np
import pytest

from sensorplace.errors import UnknownSiteError
from sensorplace.scoring import mean_scores
from sensorplace.skeleton import DEFAULT_ROSTER, SITE_ORDER
from sensorplace.synth import (
    DEFAULT_POSE,
    MotionSpec,
    SiteMotion,
    centered_bases,
    generate_activity,
    make_separable_set,
    separable_specs,
)


def _static_spec(length=20, seed=0, noise=0.0):
    motions = {
        s: SiteMotion(base=DEFAULT_POSE[s], noise_sigma=noise) for s in DEFAULT_ROSTER
    }
    return MotionSpec("still", motions, length=length, seed=seed)


# --- generation ------------------------------------------------------------------

def test_static_spec_yields_constant_series():
    series = generate_activity(_static_spec())
    assert series.length == 20
    for row in range(series.points.shape[0]):
        assert (series.points[row] == series.points[row][0]).all()


def test_same_seed_is_bit_identical():
    a = generate_activity(_static_spec(noise=0.05, seed=9))
    b = generate_activity(_static_spec(noise=0.05, seed=9))
    assert np.array_equal(a.points, b.points)


def test_different_seeds_differ():
    a = generate_activity(_static_spec(noise=0.05, seed=1))
    b = generate_activity(_static_spec(noise=0.05, seed=2))
    assert not np.array_equal(a.points, b.points)


def test_sites_come_out_in_canonical_order():
    motions = {s: SiteMotion(base=DEFAULT_POSE[s]) for s in ("RF", "LW", "PE")}
    series = generate_activity(MotionSpec("a", motions, length=5))
    assert series.sites == ("LW", "PE", "RF")


def test_circular_motion_radius_and_period():
    # 1 Hz circle sampled at 10 Hz over 500 frames: 50 full turns of
    # radius 0.2 around the base, repeating every 10 samples
    motions = {
        "LW": SiteMotion(base=(0.4, 0.5), amplitude=0.2, frequency=1.0),
        "RW": SiteMotion(base=(0.6, 0.5)),
    }
    series = generate_activity(MotionSpec("turns", motions, length=500, sample_rate=10.0))
    lw = series.points[series.sites.index("LW")]
    radii = np.hypot(lw[:, 0] - 0.4, lw[:, 1] - 0.5)
    np.testing.assert_allclose(radii, 0.2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lw[:-10], lw[10:], rtol=0, atol=1e-9)
    angles = np.unwrap(np.arctan2(lw[:, 1] - 0.5, lw[:, 0] - 0.4))
    turns = abs(angles[-1] - angles[0]) / (2 * np.pi)
    assert turns == pytest.approx(49.9, abs=0.2)  # 499 sampled intervals


def test_spec_validation():
    with pytest.raises(ValueError):
        SiteMotion(base=(0.5, 0.5), amplitude=-0.1)
    with pytest.raises(ValueError):
        MotionSpec("a", {}, length=10)
    with pytest.raises(ValueError):
        MotionSpec("a", {"LW": SiteMotion(base=(0.5, 0.5))}, length=0)


@pytest.mark.parametrize("field, value", [
    ("base", (0.5, float("inf"))),
    ("amplitude", float("nan")),
    ("frequency", float("inf")),
    ("phase", float("nan")),
    ("noise_sigma", float("nan")),
])
def test_site_motion_rejects_non_finite_values(field, value):
    # nan passes every `< 0` check, so `--noise nan` once wrote a noise-free corpus
    with pytest.raises(ValueError, match="must be finite"):
        SiteMotion(**{"base": (0.5, 0.5), field: value})


# --- separable sets ------------------------------------------------------------------

def test_centered_bases_put_roster_centroid_at_center():
    bases = centered_bases(DEFAULT_ROSTER)
    centroid = np.mean([bases[s] for s in DEFAULT_ROSTER], axis=0)
    np.testing.assert_allclose(centroid, [0.5, 0.5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: separable_specs(3, ["LW"], roster=("LW", "ZZ")),
    lambda: centered_bases(("LW", "ZZ")),
], ids=["separable-specs", "centered-bases"])
def test_an_unknown_roster_site_is_named(call):
    with pytest.raises(UnknownSiteError, match="^unknown site id 'ZZ'$"):
        call()


def test_static_sites_identical_across_activities():
    aset = make_separable_set(3, ["LW"], seed=11)
    for site in ("RW", "PE", "LF", "RF"):
        first = aset[0].points[aset[0].sites.index(site)]
        for act in aset[1:]:
            np.testing.assert_array_equal(act.points[act.sites.index(site)], first)


def test_non_discriminative_subset_scores_zero():
    aset = make_separable_set(2, ["LW"], seed=3)
    assert mean_scores([aset], ["RW"])[0] <= 1e-12


def test_discriminative_pair_beats_static_pair():
    aset = make_separable_set(4, ["LW", "RW"], seed=5)
    moving, still = mean_scores([aset], ["LW+RW", "PE+LF"])
    assert moving > still


def test_separability_ordering_over_singletons():
    aset = make_separable_set(5, ["LW", "RF"], seed=8)
    scores = dict(zip(DEFAULT_ROSTER, mean_scores([aset], DEFAULT_ROSTER)))
    for inside in ("LW", "RF"):
        for outside in ("RW", "PE", "LF"):
            assert scores[inside] > scores[outside]


def test_separable_specs_validate_inputs():
    with pytest.raises(ValueError):
        separable_specs(1, ["LW"])
    with pytest.raises(ValueError):
        separable_specs(3, ["HD"])  # not in the default roster


def test_separable_frequencies_stay_distinct_and_below_nyquist():
    specs = separable_specs(13, ["LW"], seed=0)
    freqs = [spec.motions["LW"].frequency for spec in specs]
    assert len(set(freqs)) == len(freqs)
    assert max(freqs) < 5.0  # Nyquist for 10 Hz sampling


def test_full_roster_generation_for_export():
    specs = separable_specs(2, ["LW"], roster=SITE_ORDER)
    series = generate_activity(specs[0])
    assert series.sites == SITE_ORDER
