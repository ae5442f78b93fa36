"""Run configuration parsing, validation, and fingerprinting."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorplace.config import RunConfig, load_config, parse_config_text
from sensorplace.errors import ConfigError, SiteExcludedError, UnknownSiteError
from sensorplace.sites import SETTINGS, SITE_ORDER, integer, number, site_list, size_list


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


@pytest.mark.parametrize("kwargs, message", [
    ({"subset_sizes": (1.5, 2.9)}, "subset size must be an integer, got 1.5"),
    ({"series_length": 50.5}, "series length must be an integer, got 50.5"),
    ({"max_gap": 2.0}, "max gap must be an integer, got 2.0"),
])
def test_integer_settings_reject_other_numbers(kwargs, message):
    # a ConfigError, which library callers may also catch as a ValueError
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**kwargs)
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"multi_window": "no"}, "multi_window must be True or False, got 'no'"),
    ({"allow_head": "no", "roster": ("HD",)}, "allow_head must be True or False, got 'no'"),
    ({"multi_window": 1}, "multi_window must be True or False, got 1"),
    ({"confidence_threshold": True}, "confidence threshold must be a number, got True"),
    ({"sample_rate": 10**400}, "sample rate must be positive and finite"),
    ({"sample_rate": "10"}, "sample rate must be a number, got '10'"),
    ({"series_length": True}, "series length must be an integer, got True"),
    ({"max_gap": np.True_}, f"max gap must be an integer, got {np.True_!r}"),
    ({"subset_sizes": 3}, "subset sizes must be a tuple or list of integers, got 3"),
    ({"subset_sizes": (1, True)}, "subset size must be an integer, got True"),
    ({"roster": 5}, "roster must be a tuple or list of site ids, got 5"),
    ({"roster": "LW"}, "roster must be a tuple or list of site ids, got 'LW'"),
    ({"roster": ["LW", ["RW"]]}, "roster must be a tuple or list of site ids, got ['LW', ['RW']]"),
])
def test_settings_accept_only_their_own_kind(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**kwargs)


def _outcome(build):
    """The config ``build`` returns, or the type and text of its error,
    which must be one of the package's errors for bad values."""
    try:
        config = build()
    except (ConfigError, UnknownSiteError, SiteExcludedError) as exc:
        return type(exc), str(exc)
    assert [type(getattr(config, f.name)) for f in fields(config)] == [
        type(s.default) for s in SETTINGS]
    assert {type(v) for v in config.roster + config.subset_sizes} <= {str, int}
    return config


def test_settings_take_numpy_values_as_plain_python_ones():
    config = _outcome(lambda: RunConfig(
        roster=["RF", np.str_("LW")], series_length=np.int64(40), sample_rate=np.float32(20.0),
        subset_sizes=[np.int8(2)], multi_window=np.True_))
    assert config == RunConfig(roster=("LW", "RF"), series_length=40, sample_rate=20.0,
                               subset_sizes=(2,), multi_window=True)


# Every setting gets a value of its own kind or of another one.
_KIND_VALUES = {
    "roster": st.lists(st.sampled_from(SITE_ORDER[:6]), min_size=1, max_size=4),
    "series_length": st.integers(-1, 600),
    "sample_rate": st.floats(-1.0, 1e3),
    "confidence_threshold": st.floats(-0.5, 1.5),
    "max_gap": st.integers(-1, 20),
    "subset_sizes": st.lists(st.integers(0, 3), max_size=3).map(tuple),
    "subsample": st.sampled_from(["first", "uniform", "last"]),
    "multi_window": st.booleans(),
    "allow_head": st.booleans().map(np.bool_),
}
_OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**308), st.floats(),
    st.text(max_size=3),
    st.sampled_from([np.True_, np.int64(3), np.float64(0.5), "LW", "yes", b"LW", (), {}]),
    st.lists(st.one_of(st.sampled_from(SITE_ORDER), st.integers(-1, 13), st.none()), max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries(
    {}, optional={key: st.one_of(values, _OTHER_VALUES) for key, values in _KIND_VALUES.items()}
))
def test_any_setting_values_give_a_plain_config_or_a_config_error(kwargs):
    _outcome(lambda: RunConfig(**kwargs))
    # load_config takes None as a setting not given
    given_kwargs = {k: v for k, v in kwargs.items() if v is not None}
    assert _outcome(lambda: load_config(None, kwargs)) == _outcome(
        lambda: RunConfig(**given_kwargs))


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
    # the roster is checked on its own: the unknown site is named, whatever the sizes
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
    ["series_length", "mystery = 4", "series_length = many", "series_length = 5_00",
     "series_length = \u0665\u0660\u0660", "max_gap = +3", "sample_rate = 1_0",
     "confidence_threshold = \u0660.5", "subset_sizes = 1,\u0662"],
)
def test_parse_config_text_rejects_bad_lines(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


@pytest.mark.parametrize("parse, text, want", [
    (integer, "500", 500), (integer, "-3", -3), (integer, " 60 ", 60), (integer, "007", 7),
    (number, "10", 10.0), (number, "-0.5", -0.5), (number, "1e1", 10.0), (number, " 2 ", 2.0),
    (size_list, "1, 2,3,", (1, 2, 3)),
])
def test_numbers_are_ascii(parse, text, want):
    # an int is ASCII digits with an optional leading '-'; a float is ASCII
    # without '_'
    assert parse(text) == want


@pytest.mark.parametrize("parse, text", [
    (integer, "5_00"), (integer, "\u0665\u0660\u0660"), (integer, "+5"), (integer, "--5"),
    (integer, "5.0"), (integer, ""), (integer, "-"),
    pytest.param(integer, "9" * 5000, id="integer-past-the-digit-limit"),
    (number, "1_0"), (number, "\u0660.5"), (number, "ten"), (number, ""),
    (size_list, "1,2_0"),
])
def test_numbers_in_other_spellings_are_rejected(parse, text):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize("parse, text", [
    (site_list, "LW,,RW"), (site_list, ",LW"), (site_list, ","), (site_list, "LW,,"),
    (size_list, "1,,2"), (size_list, " ,1"), (size_list, "1, ,"),
])
def test_lists_reject_an_empty_item(parse, text):
    with pytest.raises(ValueError, match=f"^empty item in {text.strip()!r}$"):
        parse(text)


def test_lists_allow_one_trailing_comma():
    assert site_list("LW, RW,") == ("LW", "RW")
    assert site_list("") == size_list(" ") == ()
    assert size_list("2,") == (2,)


@pytest.mark.parametrize("text", ["abc", "1_0", "0x1", "", "\u0660.5"])
def test_every_rejected_number_has_one_message(text):
    with pytest.raises(ValueError) as info:
        number(text)
    assert str(info.value) == f"not a number: {text!r}"
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"sample_rate = {text}")
    assert str(info.value) == f"<config>:1: bad value for 'sample_rate': not a number: {text!r}"


@pytest.mark.parametrize("value, want", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False),
])
def test_switches_accept_the_four_on_off_spellings_in_any_case(value, want):
    assert parse_config_text(f"multi_window = {value}") == {"multi_window": want}


@pytest.mark.parametrize("value", ["ture", "", "2", "enabled", "y"])
def test_switches_reject_any_other_value(value):
    with pytest.raises(ConfigError, match=r"^run.cfg:2: bad value for 'allow_head': expected "):
        parse_config_text(f"series_length = 60\nallow_head = {value}\n", source="run.cfg")


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
