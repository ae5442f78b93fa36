"""Run configuration parsing, validation, and fingerprinting."""

import pytest

from sensorplace.config import RunConfig, load_config, parse_config_text
from sensorplace.errors import ConfigError, SiteExcludedError, UnknownSiteError


def test_defaults_match_documented_contract():
    config = RunConfig()
    assert config.roster == ("LW", "RW", "PE", "LF", "RF")
    assert config.series_length == 500
    assert config.sample_rate == 10.0
    assert config.confidence_threshold == 0.3
    assert config.max_gap == 10
    assert config.subset_sizes == (1, 2, 3, 4)
    assert config.subsample == "first"
    assert config.multi_window is False
    assert config.allow_head is False


def test_roster_is_canonicalized_and_sizes_sorted():
    config = RunConfig(roster=("RF", "LW"), subset_sizes=(2, 1, 2))
    assert config.roster == ("LW", "RF")
    assert config.subset_sizes == (1, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"series_length": 1},
        {"sample_rate": 0},
        {"confidence_threshold": 1.5},
        {"max_gap": -1},
        {"subset_sizes": ()},
        {"subset_sizes": (6,)},
        {"subsample": "random"},
        {"multi_window": True, "subsample": "uniform"},
        {"subset_sizes": (0, 1)},
        {"roster": ()},
        {"confidence_threshold": -0.1},
    ],
)
def test_invalid_values_are_rejected(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("kwargs, error", [
    ({"roster": ("LW", "RW", "PE", "ZZ")}, UnknownSiteError),
    ({"roster": ("LW", "HD"), "subset_sizes": (1,)}, SiteExcludedError),
])
def test_roster_sites_are_checked_when_the_config_is_built(kwargs, error):
    with pytest.raises(error):
        RunConfig(**kwargs)
    if "HD" in kwargs["roster"]:
        assert RunConfig(**kwargs, allow_head=True).roster == ("LW", "HD")


def test_roster_is_checked_before_the_subset_sizes():
    # default sizes 1-4 do not fit a roster of 2, but the unknown site is named first
    with pytest.raises(UnknownSiteError, match="unknown site id 'ZZ'"):
        RunConfig(roster=("LW", "ZZ"))
    with pytest.raises(ConfigError, match="roster must not be empty"):
        RunConfig(roster=())


def test_fingerprint_is_stable_and_sensitive():
    a = RunConfig().fingerprint()
    assert a == RunConfig().fingerprint()
    assert len(a) == 64
    assert a != RunConfig(series_length=400).fingerprint()
    assert a != RunConfig(allow_head=True).fingerprint()


@pytest.mark.parametrize("key", ["seed", "jobs", "compare_scope", "top_k"])
def test_settings_that_cannot_change_a_ranking_are_not_config(key):
    # every config field feeds the fingerprint, so a field that does not
    # decide the output would give equal rankings different fingerprints
    with pytest.raises(ConfigError):
        parse_config_text(f"{key} = 2")
    with pytest.raises(ConfigError):
        load_config(None, {key: 2})


def test_parse_config_text_happy_path():
    text = """
    # defaults for the lab rig
    roster = LW,RW,PE
    series_length = 100
    sample_rate = 20
    subset_sizes = 1,2
    multi_window = true
    allow_head = no
    """
    kwargs = parse_config_text(text)
    config = RunConfig(**kwargs)
    assert config.roster == ("LW", "RW", "PE")
    assert config.series_length == 100
    assert config.sample_rate == 20.0
    assert config.multi_window is True
    assert config.allow_head is False


@pytest.mark.parametrize(
    "line",
    ["series_length", "mystery = 4", "series_length = many"],
)
def test_parse_config_text_rejects_bad_lines(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


def test_load_config_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("series_length = 200\nmax_gap = 4\n")
    config = load_config(path, {"series_length": 300, "subsample": None})
    assert config.series_length == 300  # flag wins
    assert config.max_gap == 4          # file value kept
    assert config.subsample == "first"  # None means not provided


def test_load_config_without_file_uses_defaults():
    assert load_config(None, {}) == RunConfig()


def test_load_config_rejects_non_utf8_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"series_length = 4\xff0\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(cfg, {})


def test_load_config_drops_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffseries_length = 40\n", encoding="utf-8")
    assert load_config(cfg, {}).series_length == 40
