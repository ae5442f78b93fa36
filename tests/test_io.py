"""Keypoint files, manifests, ranking tables, atomic writes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorplace import io as pio
from sensorplace import textio
from sensorplace.errors import (
    DataError,
    InvalidRankError,
    MalformedLineError,
    ManifestError,
    NonMonotoneTimeError,
)
from sensorplace.skeleton import SITE_ORDER
from sensorplace.scoring import PlacementSubset, ScoredSubset, build_ranking


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
    assert err.value.line_no == 2
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
    with pytest.raises(NonMonotoneTimeError) as err:
        pio.parse_keypoint_file(path)
    assert err.value.line_no == 4


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
    check = pio.check_keypoints(path, *pio.parse_keypoint_file(path))
    assert check.n_frames == 3
    assert not check.ok
    assert any("coordinate" in w for w in check.warnings)
    assert any("confidence" in w for w in check.warnings)


def test_validate_clean_file_is_ok(tmp_path):
    path = tmp_path / "rec.csv"
    pio.write_keypoint_file(path, *_frames(4, seed=3))
    check = pio.check_keypoints(path, *pio.parse_keypoint_file(path))
    assert check.ok and check.n_frames == 4


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
    scored = [
        ScoredSubset(PlacementSubset(("LW",)), 0.75),
        ScoredSubset(PlacementSubset(("LW", "RW")), 1.0 / 3.0),
        ScoredSubset(PlacementSubset(("RW",)), 0.1),
    ]
    return build_ranking(scored, n_activities=3)


def test_ranking_round_trip_preserves_order_and_scores(tmp_path):
    ranking = _ranking()
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, ranking)
    rows = textio.read_ranking_file(path)
    assert [r.label for r in rows] == ranking.labels()
    for row, entry in zip(rows, ranking.entries):
        assert row.score == entry.score  # repr round-trips exactly


def test_ranking_file_starts_with_header(tmp_path):
    path = tmp_path / "ranking.csv"
    pio.write_ranking_file(path, _ranking())
    assert path.read_text().splitlines()[0] == "rank,score,sites"


def test_external_two_column_format(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("rank,sites\n1,LW+PE\n2,RW+PE\n3,LW+RW\n")
    rows = textio.read_ranking_file(path)
    assert [r.label for r in rows] == ["LW+PE", "RW+PE", "LW+RW"]
    assert all(r.score is None for r in rows)


def test_ranking_rows_sorted_by_rank(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("2,RW\n1,LW\n3,PE\n")
    rows = textio.read_ranking_file(path)
    assert [r.label for r in rows] == ["LW", "RW", "PE"]


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
    assert info.value.line_no == line


def test_ranking_labels_are_read_in_canonical_site_order(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("rank,sites\n1,RW+LW\n2,RF+PE+LW\n3,HD\n")
    assert [r.label for r in textio.read_ranking_file(path)] == ["LW+RW", "LW+PE+RF", "HD"]
    path.write_text("1,RW+LW\n2,PE\n3,LW+RW\n")
    with pytest.raises(InvalidRankError, match=r"truth.csv:3: LW\+RW already has rank 1"):
        textio.read_ranking_file(path)


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
    pio.write_ranking_file(path, _ranking())
    rows = textio.read_ranking_file(path)
    path.write_text(BOM + path.read_text(), encoding="utf-8")
    assert textio.read_ranking_file(path) == rows


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


def _parse_or_data_error(parse, path, line_count):
    """Parse, or raise a DataError; line-level faults name a line of the file."""
    try:
        return parse(path), None
    except (MalformedLineError, NonMonotoneTimeError) as exc:
        assert 1 <= exc.line_no <= line_count
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
        assert isinstance(exc, MalformedLineError) and exc.line_no == line_no
    elif exc is None:
        t, kp = result
        assert kp.shape == (len(t), 17, 3) and np.isfinite(kp).all()


# --- block parsing against the line parser ---------------------------------------------

# Value spellings float() accepts (the block path must convert them the same
# way), ones it rejects, and ones holding other whitespace or digits.
ACCEPTED = ["1_0", "+.5", "1e400", "infinity", "nan", "-0", "-0.0"]
SPELLINGS = ACCEPTED + ["0x1", "1__0", "", "١٢", "\xa00.5", "0.5\xa0", "0.5\x1c1"]
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
    values = pio._parse_lines(pio._read_text(path, "keypoint file").splitlines(), path)
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


def _line_70(edit):
    """An edit of the 70th line, in the second block."""
    def apply(lines, sep):
        lines[69] = edit(lines[69])
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


@pytest.mark.parametrize("style, edit", [
    ("labeled", _line_70(_swap)),
    ("labeled", _wrap),
    ("csv", _wrap),
    ("labeled", _reorder),
    ("labeled", _line_70(lambda line: line.replace("=", "==", 1))),
    ("labeled", _line_70(lambda line: line.replace(" ", "\t", 1))),
], ids=["swap", "wrap-labeled", "wrap-csv", "reorder", "k==v", "tab"])
def test_block_parser_defers_to_the_line_parser_in_the_second_block(tmp_path, style, edit):
    path = tmp_path / "rec.txt"
    pio.write_keypoint_file(path, *_frames(130), style=style)
    lines = path.read_text().splitlines()
    edit(lines, "," if style == "csv" else " ")
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(pio.parse_keypoint_file, path) == _outcome(_line_parser, path)


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


@st.composite
def rankings(draw):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(
        st.sets(st.sampled_from(SITE_ORDER), min_size=1), min_size=n, max_size=n,
        unique_by=lambda sites: frozenset(sites),
    ))
    scores = draw(st.lists(finite, min_size=n, max_size=n))
    scored = [ScoredSubset(PlacementSubset(tuple(l)), sc) for l, sc in zip(labels, scores)]
    return build_ranking(scored, n_activities=2)


@given(rankings())
def test_ranking_files_round_trip_any_finite_scores(tmp_path_factory, ranking):
    path = tmp_path_factory.mktemp("rt") / "ranking.csv"
    pio.write_ranking_file(path, ranking)
    rows = textio.read_ranking_file(path)
    assert [r.label for r in rows] == ranking.labels()
    assert [r.score for r in rows] == [e.score for e in ranking.entries]


@given(rankings(), st.data())
def test_corrupted_ranking_file_parses_or_raises_data_error(tmp_path_factory, ranking, data):
    path = tmp_path_factory.mktemp("bad") / "ranking.csv"
    pio.write_ranking_file(path, ranking)
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
    rows, exc = _parse_or_data_error(textio.read_ranking_file, path, len(lines))
    if kind == "bytes":
        assert "cannot read" in str(exc)
    elif exc is None:
        assert sorted(r.rank for r in rows) == list(range(1, len(rows) + 1))


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
