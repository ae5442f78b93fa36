"""Keypoint files, manifests, ranking tables, atomic writes."""

import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorplace import io as pio
from sensorplace import synth
from sensorplace import textio
from sensorplace.config import RunConfig, load_config
from sensorplace.errors import (
    DataError,
    InvalidRankError,
    MalformedLineError,
    ManifestError,
)
from sensorplace.run import validate_recording
from sensorplace.sites import subset_labels


def _frames(n=5, seed=0):
    """``(t, kp)`` of ``n`` frames at 10 Hz, random coordinates, confidence 1."""
    rng = np.random.default_rng(seed)
    kp = np.ones((n, 17, 3))
    kp[:, :, :2] = rng.uniform(0.05, 0.95, size=(n, 17, 2))
    return np.arange(n) / 10.0, kp


def _line(frames, i=0, style="csv"):
    t, kp = frames
    return pio.format_keypoint_frame(t[i], kp[i], style=style)


# --- keypoint files ----------------------------------------------------------

@pytest.mark.parametrize("style", ["csv", "labeled"])
def test_keypoint_round_trip_is_exact(tmp_path, style):
    t, kp = _frames(seed=1)
    path = tmp_path / "rec.dat"
    pio.write_keypoint_file(path, t, kp, style=style)
    t_back, kp_back = pio.parse_keypoint_file(path)
    assert kp_back.shape == (5, 17, 3)
    assert np.array_equal(t_back, t)
    assert np.array_equal(kp_back, kp)


def test_csv_line_has_52_fields(tmp_path):
    line = _line(_frames())
    assert len(line.split(",")) == pio.FIELDS_PER_FRAME == 52


def test_short_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    good = _line(_frames())
    path.write_text(good + "\n" + good.rsplit(",", 1)[0] + "\n")
    with pytest.raises(MalformedLineError) as err:
        pio.parse_keypoint_file(path)
    assert str(err.value).startswith(f"{path}:2: ")
    assert "51" in str(err.value)


def test_bad_number_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    fields = _line(_frames()).split(",")
    fields[3] = "abc"
    path.write_text(",".join(fields) + "\n")
    with pytest.raises(MalformedLineError):
        pio.parse_keypoint_file(path)


def test_non_finite_value_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    fields = _line(_frames()).split(",")
    fields[5] = "nan"
    path.write_text(",".join(fields) + "\n")
    with pytest.raises(MalformedLineError):
        pio.parse_keypoint_file(path)


def test_non_monotone_timestamps_are_rejected(tmp_path):
    path = tmp_path / "rec.csv"
    pio.write_keypoint_file(path, *_frames(3))
    lines = path.read_text().splitlines()
    lines.append(lines[-1])  # repeat the last timestamp
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError,
                       match=f"^{re.escape(str(path))}:4: timestamp 0.2 does not increase over 0.2$"):
        pio.parse_keypoint_file(path)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    frames = _frames(2)
    path = tmp_path / "rec.csv"
    body = "\n".join(_line(frames, i) for i in range(2))
    path.write_text("# recording\n\n" + body + "\n")
    t, kp = pio.parse_keypoint_file(path)
    assert len(t) == len(kp) == 2


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(DataError):
        pio.parse_keypoint_file(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        pio.parse_keypoint_file(tmp_path / "nope.csv")


def test_labeled_field_errors(tmp_path):
    line = _line(_frames(1), style="labeled")
    path = tmp_path / "rec.txt"

    path.write_text(line.replace("kp3_y=", "kp99_y=") + "\n")
    with pytest.raises(MalformedLineError):
        pio.parse_keypoint_file(path)

    first_token, rest = line.split(" ", 1)
    path.write_text(rest + "\n")  # drop the t field
    with pytest.raises(MalformedLineError) as err:
        pio.parse_keypoint_file(path)
    assert "missing" in str(err.value)

    path.write_text(line + " " + first_token + "\n")  # repeat the t field
    with pytest.raises(MalformedLineError):
        pio.parse_keypoint_file(path)


def test_validate_flags_out_of_range_values(tmp_path):
    t, kp = _frames(3, seed=2)
    kp[1, 4, 0] = 1.7
    kp[1, 6, 2] = -0.2
    path = tmp_path / "rec.csv"
    pio.write_keypoint_file(path, t, kp)
    frames, warnings = validate_recording(path, RunConfig())
    assert frames == 3
    assert warnings == [
        "1 coordinate values outside [0, 1]",
        "1 confidence values outside [0, 1]",
    ]


def test_validate_clean_file_is_ok(tmp_path):
    # random keypoints have no body layout: 3 of these 4 frames put the head
    # below the ankles
    path = tmp_path / "rec.csv"
    pio.write_keypoint_file(path, *_frames(4, seed=3))
    assert validate_recording(path, RunConfig()) == (
        4, ["head below the ankles in 3 of 4 frames (is y pointing up?)"]
    )


@pytest.mark.parametrize("flip, warnings", [
    (False, []),
    (True, ["head below the ankles in 520 of 520 frames (is y pointing up?)"]),
], ids=["original", "y-flipped"])
def test_validate_warns_about_a_recording_with_y_pointing_up(tmp_path, flip, warnings):
    corpus = synth.run_synth(tmp_path / "corpus", n_activities=2, length=520).parent
    t, kp = pio.parse_keypoint_file(corpus / "act01.csv")
    if flip:
        kp[:, :, 1] = 1.0 - kp[:, :, 1]
    path = tmp_path / "rec.csv"
    pio.write_keypoint_file(path, t, kp)
    assert validate_recording(path, RunConfig()) == (len(t), warnings)


# --- manifests -----------------------------------------------------------------

def test_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "data").mkdir()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# corpus\nwalk data/walk.csv\nrun data/run1.csv data/run2.csv\n")
    entries = pio.parse_manifest(manifest)
    assert [e[0] for e in entries] == ["walk", "run"]
    assert entries[0][1] == [tmp_path / "data" / "walk.csv"]
    assert len(entries[1][1]) == 2


def test_manifest_rejects_duplicates_and_bare_ids(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("walk a.csv\nwalk b.csv\n")
    with pytest.raises(ManifestError):
        pio.parse_manifest(manifest)
    manifest.write_text("walk\n")
    with pytest.raises(ManifestError):
        pio.parse_manifest(manifest)
    manifest.write_text("\n")
    with pytest.raises(ManifestError):
        pio.parse_manifest(manifest)


@pytest.mark.parametrize("text, line", [
    ("walk a.csv\nrun a.csv\n", 2),
    ("walk a.csv\nrun b.csv data/../a.csv\n", 2),
    ("walk a.csv b.csv ./a.csv\n", 1),
], ids=["two-activities", "another-spelling", "one-activity"])
def test_manifest_rejects_a_file_listed_twice(tmp_path, text, line):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(text)
    with pytest.raises(ManifestError, match=rf"manifest.txt:{line}: .*a.csv is already listed on line 1"):
        pio.parse_manifest(manifest)


# --- ranking tables ----------------------------------------------------------------

def _ranking():
    return ["LW", "LW+RW", "RW"], [0.75, 1.0 / 3.0, 0.1]


def test_ranking_round_trip_preserves_order_and_scores(tmp_path):
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, *_ranking())
    assert textio.read_ranking_file(path) == _ranking()  # repr round-trips exactly


def test_ranking_file_starts_with_header(tmp_path):
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, *_ranking())
    assert path.read_text().splitlines()[0] == "rank,score,sites"


def test_external_two_column_format(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("rank,sites\n1,LW+PE\n2,RW+PE\n3,LW+RW\n")
    labels, scores = textio.read_ranking_file(path)
    assert labels == ["LW+PE", "RW+PE", "LW+RW"]
    assert scores == [None, None, None]


def test_ranking_rows_sorted_by_rank(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("2,RW\n1,LW\n3,PE\n")
    labels, _ = textio.read_ranking_file(path)
    assert labels == ["LW", "RW", "PE"]


def test_ranking_requires_rank_permutation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,LW\n3,RW\n")
    with pytest.raises(InvalidRankError):
        textio.read_ranking_file(path)
    path.write_text("1,LW\n1,RW\n")
    with pytest.raises(InvalidRankError):
        textio.read_ranking_file(path)
    path.write_text("1,LW\n2,LW\n")
    with pytest.raises(InvalidRankError):
        textio.read_ranking_file(path)


def test_ranking_rejects_wrong_field_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.5,LW,extra\n")
    with pytest.raises(MalformedLineError):
        textio.read_ranking_file(path)


@pytest.mark.parametrize("text, line, message", [
    ("1,LW\n2,LW+ZZ\n", 2, r"sites 'LW\+ZZ': unknown site id 'ZZ'"),
    ("rank,sites\n1,LW\n2,lw\n", 3, "unknown site id 'lw'"),
    ("1,0.5,LW+\n", 1, "unknown site id ''"),
    ("1,RW\n2,RW+LW+RW\n", 2, "duplicate site ids"),
], ids=["unknown", "lower-case", "trailing-plus", "repeated"])
def test_ranking_labels_must_be_site_subsets(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MalformedLineError, match=message) as info:
        textio.read_ranking_file(path)
    assert str(info.value).startswith(f"{path}:{line}: ")


def test_ranking_labels_are_read_in_canonical_site_order(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("rank,sites\n1,RW+LW\n2,RF+PE+LW\n3,HD\n")
    assert textio.read_ranking_file(path)[0] == ["LW+RW", "LW+PE+RF", "HD"]
    path.write_text("1,RW+LW\n2,PE\n3,LW+RW\n")
    with pytest.raises(InvalidRankError, match=r"truth.csv:3: LW\+RW already has rank 1"):
        textio.read_ranking_file(path)


def test_ranking_scores_must_not_rise_with_rank(tmp_path):
    path = tmp_path / "ranking.csv"
    path.write_text("rank,score,sites\n1,0.5,LW\n2,0.75,RW\n")
    with pytest.raises(InvalidRankError, match=(
        r"ranking.csv:3: score 0.75 at rank 2 is above score 0.5 at rank 1; "
        "scores must not rise with rank$"
    )):
        textio.read_ranking_file(path)


def test_rising_score_is_found_in_rank_order_past_unscored_rows(tmp_path):
    path = tmp_path / "ranking.csv"
    path.write_text("3,0.75,PE\n1,0.5,LW\n2,RW\n")
    with pytest.raises(InvalidRankError, match=r"ranking.csv:1: score 0.75 at rank 3 .* at rank 1;"):
        textio.read_ranking_file(path)


def test_tied_scores_and_unscored_rows_are_valid(tmp_path):
    path = tmp_path / "ranking.csv"
    path.write_text("1,0.5,LW\n2,0.5,RW\n3,PE\n4,0.25,LW+RW\n5,RF\n")
    assert textio.read_ranking_file(path) == (
        ["LW", "RW", "PE", "LW+RW", "RF"], [0.5, 0.5, None, 0.25, None]
    )


@pytest.mark.parametrize("line, message", [
    (" 2 , 0.5 , RW ", None),
    (" x ,0.5,RW", "field 'rank': not a rank: 'x'"),
    ("1, abc ,RW", "field 'score': not a number: 'abc'"),
    ("1, inf ,RW", "field 'score': non-finite value"),
    # spellings int() and float() accept but the writer never emits
    ("+2,0.5,RW", "field 'rank': not a rank: '+2'"),
    ("\u0662,0.5,RW", "field 'rank': not a rank: '\u0662'"),
    ("2,0_0.5,RW", "field 'score': not a number: '0_0.5'"),
    ("2,\u0660.5,RW", "field 'score': not a number: '\u0660.5'"),
    ("9" * 5000 + ",0.5,RW", f"field 'rank': not a rank: '{'9' * 5000}'"),
], ids=["spaces", "rank", "score", "non-finite", "plus-rank", "arabic-indic-rank",
        "underscore-score", "arabic-indic-score", "huge-rank"])
def test_ranking_fields_may_carry_spaces_and_errors_quote_them_stripped(tmp_path, line, message):
    path = tmp_path / "ranking.csv"
    path.write_text(f"1,0.75,LW\n{line}\n")
    if message is None:
        assert textio.read_ranking_file(path) == (["LW", "RW"], [0.75, 0.5])
        return
    with pytest.raises(MalformedLineError) as info:
        textio.read_ranking_file(path)
    assert str(info.value) == f"{path}:2: {message}"


# --- unreadable text ----------------------------------------------------------------

NOT_UTF8 = b"\xff\xfe1,2,3\n"


def test_non_utf8_keypoint_file_is_a_data_error(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(DataError, match="cannot read keypoint file"):
        pio.parse_keypoint_file(path)


def test_non_utf8_manifest_is_a_manifest_error(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"walk walk.csv\nrun \xffrun.csv\n")
    with pytest.raises(ManifestError, match="cannot read manifest"):
        pio.parse_manifest(path)


def test_non_utf8_ranking_file_is_a_data_error(tmp_path):
    path = tmp_path / "ranking.csv"
    path.write_bytes(b"rank,sites\n1,LW\n2,R\xffW\n")
    with pytest.raises(DataError, match="cannot read ranking file"):
        textio.read_ranking_file(path)


# A UTF-8 byte-order mark, as spreadsheet exports write it, is not content.
BOM = "\ufeff"


@pytest.mark.parametrize("style", ["csv", "labeled"])
def test_keypoint_file_with_a_byte_order_mark_parses_alike(tmp_path, style):
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, *_frames(), style=style)
    t, kp = pio.parse_keypoint_file(path)
    path.write_text(BOM + path.read_text(), encoding="utf-8")
    t_bom, kp_bom = pio.parse_keypoint_file(path)
    assert np.array_equal(t_bom, t) and np.array_equal(kp_bom, kp)


def test_manifest_with_a_byte_order_mark_keeps_its_first_activity_id(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(BOM + "walk walk.csv\nrun run.csv\n", encoding="utf-8")
    assert [e[0] for e in pio.parse_manifest(manifest)] == ["walk", "run"]


def test_ranking_file_with_a_byte_order_mark_reads_alike(tmp_path):
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, *_ranking())
    table = textio.read_ranking_file(path)
    path.write_text(BOM + path.read_text(), encoding="utf-8")
    assert textio.read_ranking_file(path) == table


# --- one line grammar for every input -------------------------------------------------

def test_no_reader_splits_lines_or_tokens_its_own_way():
    # every reader takes its lines from textio.data_lines and its tokens
    # from textio.words, so no other line or token split may appear
    paths = sorted(Path(pio.__file__).parent.glob("*.py"))
    assert Path(textio.__file__) in paths
    found = [f"{path.name}:{number}: {line}" for path in paths
             for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1)
             if re.search(r"\.strip\(\)|\.split\(\)|splitlines", line)]
    assert found == []


def _keypoint_text(style):
    frames = _frames(4, seed=5)
    return "".join(_line(frames, i, style) + "\n" for i in range(4))


# Each input kind: a valid file's text, its name and its reader. Line 2 of
# every file is a data line.
_INPUTS = {
    "csv": (_keypoint_text("csv"), "rec.csv", pio.parse_keypoint_file),
    "labeled": (_keypoint_text("labeled"), "rec.txt", pio.parse_keypoint_file),
    "manifest": ("walk walk.csv\nrun run1.csv\trun2.csv\nsit sit.csv\n", "manifest.txt",
                 pio.parse_manifest),
    "config": ("series_length = 60\nsample_rate = 20\nmax_gap = 4\n", "run.cfg", load_config),
    "ranking": (textio.render_ranking_table(*_ranking()), "ranking.csv",
                textio.read_ranking_file),
}


def _read_input(kind, path):
    """What the reader of ``kind`` makes of ``path``, arrays as bytes."""
    result = _INPUTS[kind][2](path)
    return [x.tobytes() for x in result] if kind in ("csv", "labeled") else result


def _write_input(tmp_path, kind, lines, newline="\n"):
    path = tmp_path / _INPUTS[kind][1]
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    return path


@pytest.mark.parametrize("char", ["\xa0", "\x1f", "\x0c"], ids=["nbsp", "unit-sep", "form-feed"])
@pytest.mark.parametrize("kind", list(_INPUTS))
def test_other_whitespace_is_an_error_wherever_it_sits_in_a_line(tmp_path, kind, char):
    # only spaces and tabs are blanks: the byte is kept, at a line's edge as
    # inside it, and its reader names the line
    lines = _INPUTS[kind][0].splitlines()
    line = lines[1]
    middle = len(line) // 2
    for edited in (char + line, line + char, line[:middle] + char + line[middle:]):
        lines[1] = edited
        with pytest.raises(DataError, match=r"(cfg|csv|txt):2: "):
            _read_input(kind, _write_input(tmp_path, kind, lines))


@pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028"], ids=["form-feed", "nel", "line-sep"])
@pytest.mark.parametrize("kind", list(_INPUTS))
def test_only_line_feeds_and_carriage_returns_break_lines(tmp_path, kind, char):
    # a comment holding another line-break character stays one line, so the
    # malformed line after it keeps its number
    lines = _INPUTS[kind][0].splitlines()
    lines[1:1] = [f"# edited{char}# by hand"]
    lines[2] = "x"
    with pytest.raises(DataError, match=r"(cfg|csv|txt):3: "):
        _read_input(kind, _write_input(tmp_path, kind, lines))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("kind", list(_INPUTS))
def test_crlf_and_cr_files_read_as_the_lf_file(tmp_path, kind, newline):
    lines = ["# exported", *_INPUTS[kind][0].splitlines(), "", "\t"]
    want = _read_input(kind, _write_input(tmp_path, kind, lines))
    assert _read_input(kind, _write_input(tmp_path, kind, lines, newline)) == want


def test_manifest_tokens_are_split_by_blanks_only(tmp_path):
    # a next-line character joins two entries into one line with an
    # unprintable token; it is not read as a second activity
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("act01 act01.csv\x85act02 act02.csv\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=r"manifest.txt:1: expected 'activity_id path"):
        pio.parse_manifest(manifest)


# --- round trips and corrupted files ---------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def recordings(draw):
    """``(t, kp)`` with strictly increasing timestamps and any finite values."""
    n = draw(st.integers(1, 4))
    t = sorted(draw(st.sets(finite, min_size=n, max_size=n)))
    values = draw(st.lists(finite, min_size=n * 51, max_size=n * 51))
    return np.array(t), np.array(values).reshape(n, 17, 3)


@given(recordings(), st.sampled_from(["csv", "labeled"]))
def test_keypoint_files_round_trip_any_finite_values(tmp_path_factory, rec, style):
    path = tmp_path_factory.mktemp("rt") / "rec.txt"
    pio.write_keypoint_file(path, *rec, style=style)
    t, kp = pio.parse_keypoint_file(path)
    assert np.array_equal(t, rec[0]) and np.array_equal(kp, rec[1])


# Printable text without separators or line breaks.
garbage = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), blacklist_characters=",="),
    min_size=1, max_size=8,
)


def _separator(line):
    return "," if "," in line else " "


def _corrupt_fields(data, lines):
    """Delete, duplicate or replace one field of one line; return the line
    number and whether the line can no longer parse."""
    k = data.draw(st.integers(0, len(lines) - 1))
    sep = _separator(lines[k])
    fields = lines[k].split(sep)
    i = data.draw(st.integers(0, len(fields) - 1))
    how = data.draw(st.sampled_from(["delete", "duplicate", "garbage"]))
    if how == "delete":
        del fields[i]
    elif how == "duplicate":
        fields.insert(i, fields[i])
    else:
        key, eq, _ = fields[i].rpartition("=")
        fields[i] = key + eq + data.draw(garbage)
    lines[k] = sep.join(fields)
    return k + 1, how


def _line_no(exc, path) -> int:
    """The line number that a MalformedLineError's ``PATH:LINE: reason`` names."""
    prefix = f"{path}:"
    assert str(exc).startswith(prefix)
    return int(str(exc)[len(prefix):].split(":", 1)[0])


def _parse_or_data_error(parse, path, line_count):
    """Parse, or raise a DataError; line-level faults name a line of the file."""
    try:
        return parse(path), None
    except MalformedLineError as exc:
        assert 1 <= _line_no(exc, path) <= line_count
        return None, exc
    except DataError as exc:
        return None, exc


@given(recordings(), st.sampled_from(["csv", "labeled"]), st.data())
def test_corrupted_keypoint_file_parses_or_raises_data_error(tmp_path_factory, rec, style, data):
    path = tmp_path_factory.mktemp("bad") / "rec.txt"
    pio.write_keypoint_file(path, *rec, style=style)
    text = path.read_text()
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["truncate", "field", "bytes"]))
    if kind == "truncate":
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
    elif kind == "bytes":
        cut = data.draw(st.integers(0, len(text)))
        path.write_bytes(text[:cut].encode() + b"\xff\xfe" + text[cut:].encode())
    else:
        line_no, how = _corrupt_fields(data, lines)
        path.write_text("\n".join(lines) + "\n")
    result, exc = _parse_or_data_error(pio.parse_keypoint_file, path, len(lines))
    if kind == "bytes":
        assert "cannot read" in str(exc)
    elif kind == "field" and how != "garbage":
        # a line one field short or long never parses
        assert isinstance(exc, MalformedLineError) and _line_no(exc, path) == line_no
    elif exc is None:
        t, kp = result
        assert kp.shape == (len(t), 17, 3) and np.isfinite(kp).all()


# --- block parsing against the line parser ---------------------------------------------

# Value spellings the program accepts (the block path must convert them the
# same way), ones it rejects although float() or numpy reads them ('_' and
# other digits), and ones holding other whitespace.
ACCEPTED = ["+.5", "1e400", "infinity", "nan", "-0", "-0.0"]
SPELLINGS = ACCEPTED + ["1_0", "0.1_0", "\u0660.5", "0x1", "1__0", "", "١٢", "\xa00.5",
                        "0.5\xa0", "0.5\x1c1", "0.5\x1f", "\x1f1"]
EDITS = ["value", "k==v", "k=v=w", "bare", "join", "swap", "tab", "spaces", "drop",
         "duplicate", "wrap", "reorder", "comment", "blank"]


def _edit(lines, i, how, sep, draw):
    """Apply one edit to line ``i`` (a new key order also to every later
    line). Returns True when the file must stay on the block path."""
    fields = lines[i].split(sep)
    plain = len(fields) == pio.FIELDS_PER_FRAME
    j = draw(st.integers(0, len(fields) - 1))
    key, eq, value = fields[j].rpartition("=")
    if how == "value":
        spelling = draw(st.sampled_from(SPELLINGS))
        fields[j] = key + eq + spelling
        lines[i] = sep.join(fields)
        return plain and spelling in ACCEPTED
    if how in ("comment", "blank"):
        lines.insert(i, "# note" if how == "comment" else "")
        return True
    if how == "wrap":
        if i + 1 < len(lines):  # the last field moves to the start of the next line
            lines[i] = sep.join(fields[:-1])
            lines[i + 1] = fields[-1] + sep + lines[i + 1]
        return False
    if how == "reorder":
        order = draw(st.permutations(range(len(fields))))
        for k in range(i, len(lines)):
            parts = lines[k].split(sep)
            if len(parts) == len(order):
                lines[k] = sep.join(parts[o] for o in order)
        return False
    if how == "drop":
        del fields[j]
    elif how == "duplicate":
        fields.insert(j, fields[j])
    elif how == "join":
        fields[j : j + 2] = ["=".join(fields[j : j + 2])]
    elif how == "swap" and j + 1 < len(fields):
        # 'k=v k2=v2' becomes 'k=v=k2 v2': as many of each separator as before
        key2, _, value2 = fields[j + 1].partition("=")
        fields[j : j + 2] = [f"{fields[j]}={key2} {value2}"]
    elif how == "k==v":
        fields[j] = f"{key}=={value}"
    elif how == "k=v=w":
        fields[j] = f"{key}={value}={value}"
    elif how == "bare":
        fields[j] = value
    elif how == "tab":
        fields[j] = "\t" + fields[j]
    elif how == "spaces":
        fields[j] = "  " + fields[j] + "   "
    lines[i] = sep.join(fields)
    return False


@st.composite
def keypoint_files(draw):
    """Text of a keypoint file of up to three blocks in a drawn key order,
    with up to three edits, and whether the block path must take it."""
    style = draw(st.sampled_from(["csv", "labeled"]))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kp = rng.uniform(-0.1, 1.1, size=(n, 17, 3)).round(draw(st.integers(1, 17)))
    sep = "," if style == "csv" else " "
    order = draw(st.permutations(range(pio.FIELDS_PER_FRAME)))
    lines = []
    for i in range(n):
        fields = pio.format_keypoint_frame(i / 30.0, kp[i], style).split(sep)
        lines.append(sep.join(fields[o] for o in order))
    fast = True
    for _ in range(draw(st.integers(0, 3))):
        # anywhere, or in the second block when there is one
        i = draw(st.integers(0, n - 1) | st.integers(min(64, n - 1), n - 1))
        fast &= _edit(lines, i, draw(st.sampled_from(EDITS)), sep, draw)
    return "\n".join(lines) + "\n", fast


def _line_parser(path):
    line_nos, lines = textio.data_lines(textio._read_text(path, "keypoint file"))
    parse_line = pio._labeled_values if "=" in lines[0] else pio._csv_values
    values = pio._parse_lines(line_nos, lines, path, parse_line)
    return values[:, 0].copy(), values[:, 1:].reshape(-1, 17, 3)


def _outcome(parse, path):
    """The parsed arrays' bytes, or the error's type, message and line."""
    try:
        t, kp = parse(path)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return t.tobytes(), kp.shape, kp.tobytes()


@given(keypoint_files())
def test_block_parser_matches_line_parser(tmp_path_factory, file):
    text, fast = file
    path = tmp_path_factory.mktemp("blocks") / "rec.txt"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(pio, "_parse_lines", wraps=pio._parse_lines) as fallback:
        outcome = _outcome(pio.parse_keypoint_file, path)
    assert outcome == _outcome(_line_parser, path)
    if fast:
        assert not fallback.called


def _on_line(index, edit):
    """An edit of one line: index 69 is in the second block, and -1 in the
    last, partial one."""
    def apply(lines, sep):
        lines[index] = edit(lines[index])
    return apply


def _swap(line):
    # 'k=v k2=v2' becomes 'k=v=k2 v2': as many of each separator as before
    first, second, rest = line.split(" ", 2)
    key, _, value = second.partition("=")
    return f"{first}={key} {value} {rest}"


def _wrap(lines, sep):
    # the last field of one line moves to the start of the next
    lines[69], _, last = lines[69].rpartition(sep)
    lines[70] = last + sep + lines[70]


def _reorder(lines, sep):
    lines[69:] = [sep.join(reversed(line.split(sep))) for line in lines[69:]]


def _short_and_long(lines, sep):
    # line 70 loses its sixth field and line 71 holds its sixth twice: the
    # block keeps its field count
    fields = lines[69].split(sep)
    lines[69] = sep.join(fields[:5] + fields[6:])
    fields = lines[70].split(sep)
    lines[70] = sep.join(fields[:6] + fields[5:])


def _drop_sixth_field(line):
    fields = line.split(",")
    return ",".join(fields[:5] + fields[6:])


def _underscore_to_value(line):
    # 'kp0_x=v' becomes 'kp0x=v_': as many '_' in the line as before
    first, second, rest = line.split(" ", 2)
    return f"{first} {second.replace('_', '', 1)}_ {rest}"


@pytest.mark.parametrize("style", ["csv", "labeled"])
@pytest.mark.parametrize("spelling", ["0.1_0", "\u0660.5", "=0.5"],
                         ids=["underscore", "arabic-indic", "doubled-equals"])
def test_keypoint_values_are_ascii_without_underscores(tmp_path, style, spelling):
    # numpy reads the first two spellings on the block path; the line parser
    # names the field
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, *_frames(130), style=style)
    lines = path.read_text().splitlines()
    sep = "," if style == "csv" else " "
    fields = lines[69].split(sep)
    key, eq, _ = fields[4].rpartition("=")
    fields[4] = key + eq + spelling
    lines[69] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedLineError) as info:
        pio.parse_keypoint_file(path)
    assert str(info.value) == f"{path}:70: field 'kp1_x': not a number: {spelling!r}"


@pytest.mark.parametrize("style", ["csv", "labeled"])
@pytest.mark.parametrize("spelling", ["0.5\x1f", "\x1f1", "0.5\xa0"],
                         ids=["trailing-unit-separator", "leading-unit-separator", "no-break-space"])
def test_keypoint_values_hold_only_the_whitespace_float_drops(tmp_path, style, spelling):
    # numpy's reader skips '\x1f' as whitespace and str.split() splits on it,
    # but float() rejects it: both formats name the field, with the byte
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, *_frames(130), style=style)
    lines = path.read_text().splitlines()
    sep = "," if style == "csv" else " "
    fields = lines[69].split(sep)
    key, eq, _ = fields[4].rpartition("=")
    fields[4] = key + eq + spelling
    lines[69] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedLineError) as info:
        pio.parse_keypoint_file(path)
    assert str(info.value) == f"{path}:70: field 'kp1_x': not a number: {spelling!r}"


@pytest.mark.parametrize("style, edit", [
    ("labeled", _on_line(69, _swap)),
    ("labeled", _wrap),
    ("csv", _wrap),
    ("labeled", _reorder),
    ("labeled", _on_line(69, lambda line: line.replace("=", "==", 1))),
    ("labeled", _on_line(69, lambda line: line.replace(" ", "\t", 1))),
    ("csv", _short_and_long),
    ("labeled", _short_and_long),
    ("labeled", _on_line(69, _underscore_to_value)),
    ("labeled", _on_line(-1, _swap)),
    ("labeled", _on_line(-1, lambda line: line.replace("=", "==", 1))),
    ("labeled", _on_line(-1, lambda line: " ".join(reversed(line.split(" "))))),
    ("csv", _on_line(-1, _drop_sixth_field)),
], ids=["swap", "wrap-labeled", "wrap-csv", "reorder", "k==v", "tab", "short-long-csv",
        "short-long-labeled", "underscore-in-value", "swap-last", "k==v-last", "reorder-last",
        "short-last-csv"])
def test_block_parser_defers_to_the_line_parser_in_the_second_block(tmp_path, style, edit):
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, *_frames(130), style=style)
    lines = path.read_text().splitlines()
    edit(lines, "," if style == "csv" else " ")
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(pio.parse_keypoint_file, path) == _outcome(_line_parser, path)


def test_labeled_keys_out_of_the_first_lines_order_take_the_line_parser(tmp_path):
    # kp0_x and kp0_y swap places on line 3: both keys hold '_', so the line
    # keeps its skeleton and only the key check declines the block reader
    plain, swapped = tmp_path / "plain.txt", tmp_path / "swapped.txt"
    pio.write_keypoint_file(plain, *_frames(5), style="labeled")
    lines = plain.read_text().splitlines()
    tokens = lines[2].split(" ")
    tokens[1], tokens[2] = tokens[2], tokens[1]
    assert tokens[1].startswith("kp0_y=") and tokens[2].startswith("kp0_x=")
    lines[2] = " ".join(tokens)
    swapped.write_text("\n".join(lines) + "\n")
    with mock.patch.object(pio, "_parse_lines", wraps=pio._parse_lines) as fallback:
        t, kp = pio.parse_keypoint_file(swapped)
    assert fallback.called
    expected_t, expected_kp = pio.parse_keypoint_file(plain)
    assert t.tobytes() == expected_t.tobytes()
    assert kp.tobytes() == expected_kp.tobytes()


@pytest.mark.parametrize("style", ["csv", "labeled"])
def test_block_parser_peak_memory_is_at_most_the_line_parsers(tmp_path, style):
    # 1700 frames is 27 blocks; converting the whole file at once peaked
    # at 2.8 times the line parser
    rng = np.random.default_rng(3)
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, np.arange(1700) / 30.0, rng.uniform(size=(1700, 17, 3)), style)

    def peak(parse):
        parse(path)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            parse(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(pio.parse_keypoint_file) <= peak(_line_parser)


# floats whose text is easy to get wrong, drawn often enough to tie
odd_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1])


@st.composite
def rankings(draw):
    """Distinct canonical labels and non-increasing finite scores."""
    labels = draw(st.lists(st.sampled_from(list(subset_labels())), min_size=1, max_size=6,
                           unique=True))
    scores = draw(st.lists(odd_floats | finite, min_size=len(labels), max_size=len(labels)))
    return labels, sorted(scores, reverse=True)


@given(rankings())
def test_ranking_files_round_trip_any_finite_scores(tmp_path_factory, ranking):
    labels, scores = ranking
    path = tmp_path_factory.mktemp("rt") / "ranking.csv"
    pio.write_ranking_file(path, labels, scores)
    got_labels, got_scores = textio.read_ranking_file(path)
    assert got_labels == labels
    assert list(map(repr, got_scores)) == list(map(repr, scores))  # -0.0 stays -0.0


@given(rankings(), st.data())
def test_corrupted_ranking_file_parses_or_raises_data_error(tmp_path_factory, ranking, data):
    path = tmp_path_factory.mktemp("bad") / "ranking.csv"
    pio.write_ranking_file(path, *ranking)
    text = path.read_text()
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["truncate", "field", "bytes"]))
    if kind == "truncate":
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
    elif kind == "bytes":
        cut = data.draw(st.integers(0, len(text)))
        path.write_bytes(text[:cut].encode() + b"\xff" + text[cut:].encode())
    else:
        _corrupt_fields(data, lines)
        path.write_text("\n".join(lines) + "\n")
    table, exc = _parse_or_data_error(textio.read_ranking_file, path, len(lines))
    if kind == "bytes":
        assert "cannot read" in str(exc)
    elif exc is None:
        labels, scores = table
        assert len(labels) == len(set(labels)) == len(scores)


_TABLE_MUTATIONS = ("none", "reorder", "no-header", "no-final-newline", "header-in-middle",
                    "space", "empty-rank", "huge-rank", "repeat-label", "rising-score", "nan",
                    "site-order", "shift-field")


def _read_or_message(read):
    """A read's ``(labels, score reprs)``, or its error message."""
    try:
        labels, scores = read()
    except DataError as exc:
        return str(exc)
    return labels, list(map(repr, scores))


@settings(max_examples=300)
@given(rankings(), st.booleans(), st.sampled_from(_TABLE_MUTATIONS), st.data())
def test_one_pass_read_returns_what_the_row_loop_returns(
    tmp_path_factory, ranking, scored, mutation, data
):
    labels, scores = ranking
    scored = scored or mutation == "rising-score"
    rows = [[str(rank), repr(score), label] if scored else [str(rank), label]
            for rank, (label, score) in enumerate(zip(labels, scores), start=1)]
    header = textio.RANKING_HEADER if scored else textio.EXTERNAL_HEADER
    # the row a mutation changes; a rising score needs a row above it, and a
    # shifted field a row below
    k = data.draw(st.integers(mutation == "rising-score", max(len(rows) - 1, 1)))
    assume(k < len(rows) - (mutation == "shift-field"))
    if mutation == "reorder":
        rows = data.draw(st.permutations(rows))
    elif mutation == "space":
        field = data.draw(st.integers(0, len(rows[k]) - 1))
        rows[k][field] = data.draw(st.sampled_from([" ", "\t"])) + rows[k][field]
    elif mutation == "empty-rank":
        rows[k][0] = ""
    elif mutation == "huge-rank":
        rows[k][0] = "1" + "0" * data.draw(st.sampled_from([20, 5000]))
    elif mutation == "repeat-label":
        rows[k][-1] = rows[data.draw(st.integers(0, len(rows) - 1))][-1]
    elif mutation == "rising-score":
        rows[k][1] = repr(abs(float(rows[k - 1][1])) * 2 + 1)
    elif mutation == "nan":
        rows[k][1 if scored else 0] = "nan"
    elif mutation == "site-order":
        rows[k][-1] = "+".join(reversed(rows[k][-1].split("+")))
    elif mutation == "shift-field":  # the same fields, split at another line
        rows[k].append(rows[k + 1].pop(0))
    lines = [",".join(row) for row in rows]
    if mutation == "header-in-middle":
        lines.insert(k + 1, header)
    if mutation != "no-header":
        lines.insert(0, header)
    text = "\n".join(lines) + ("" if mutation == "no-final-newline" else "\n")
    path = tmp_path_factory.mktemp("table") / "ranking.csv"
    path.write_text(text)

    line_nos, data = textio.data_lines(text)
    expected = _read_or_message(lambda: textio._read_table_rows(line_nos, data, path))
    clean = textio._read_clean_table(data)
    if clean is not None:
        assert _read_or_message(lambda: clean) == expected
    if mutation in ("none", "reorder", "no-header", "no-final-newline"):
        assert clean is not None  # a clean table takes the one-pass read
    assert _read_or_message(lambda: textio.read_ranking_file(path)) == expected


def test_one_pass_read_defers_to_the_row_loop_in_the_last_block(tmp_path):
    # 130 rows are checked in blocks of 64, 64 and 2; float() reads the '_'
    # in the last row's score, and the row loop names it
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, list(subset_labels())[:130], [1 - k / 1000 for k in range(130)])
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace("0.8", "0.8_", 1)
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    line_nos, data = textio.data_lines(text)
    assert textio._read_clean_table(data) is None
    expected = _read_or_message(lambda: textio._read_table_rows(line_nos, data, path))
    assert expected == f"{path}:131: field 'score': not a number: '0.8_71'"
    assert _read_or_message(lambda: textio.read_ranking_file(path)) == expected


# --- atomic writes and reports ----------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "out.txt"
    pio.atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_json_report_is_stable(tmp_path):
    path = tmp_path / "report.json"
    pio.write_json_report(path, {"b": 1, "a": [1, 2]})
    first = path.read_bytes()
    pio.write_json_report(path, {"b": 1, "a": [1, 2]})
    assert path.read_bytes() == first


def test_tau_table_layout(tmp_path):
    from sensorplace.rankcorr import TauReport

    path = tmp_path / "tau.csv"
    textio.write_tau_table(path, {"size-1": TauReport(1.0, 3, 3, 0)})
    lines = path.read_text().splitlines()
    assert lines[0] == "scope,tau,n,pairs,concordant,discordant"
    assert lines[1] == "size-1,1.0,3,3,3,0"
