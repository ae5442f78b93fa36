"""End-to-end runs and the command-line surface."""

import contextlib
import errno
import importlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorplace
from sensorplace import cli, errors
from sensorplace import io as pio
from sensorplace import run as runner
from sensorplace import sites, synth, textio
from sensorplace.config import _PARSERS, RunConfig
from sensorplace.errors import ComputationError, ConfigError, ManifestError
from sensorplace.rankcorr import compare_rankings
from sensorplace.scoring import rank_placements
from sensorplace.sites import SETTINGS, SITE_ORDER, enumerate_subsets
from sensorplace.skeleton import WindowSets, preprocess_recording


def _corpus(tmp_path, n=3, length=520, noise=0.0, seed=0, style="csv", **kwargs):
    manifest = synth.run_synth(
        tmp_path / "corpus",
        n_activities=n,
        discriminative_sites=("LW",),
        seed=seed,
        noise_sigma=noise,
        length=length,
        style=style,
        **kwargs,
    )
    return manifest


def _config(**kwargs):
    base = dict(series_length=500, subset_sizes=(1, 2, 3, 4, 5))
    base.update(kwargs)
    return RunConfig(**base)


def _one_cpu(monkeypatch):
    """Let the process use one CPU, so ``rank`` loads every recording itself
    and must not fork."""
    def fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)


def _two_cpus(monkeypatch):
    """Let the process use two CPUs; returns the list each fork appends to."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return forks


# --- run_rank ------------------------------------------------------------------

def test_rank_places_discriminative_singleton_first(tmp_path):
    manifest = _corpus(tmp_path)
    (labels, _), _ = runner.run_rank(manifest, _config(subset_sizes=(1,)))
    assert labels[0] == "LW"


def test_rank_all_sizes_yields_31_rows(tmp_path):
    manifest = _corpus(tmp_path, n=4)
    (labels, _), _ = runner.run_rank(manifest, _config())
    assert len(labels) == 31


def test_rank_single_activity_manifest_is_rejected(tmp_path):
    manifest = _corpus(tmp_path, n=2)
    lines = manifest.read_text().splitlines()
    manifest.write_text(lines[0] + "\n")
    with pytest.raises(ManifestError):
        runner.run_rank(manifest, _config())


def test_rank_reports_one_diagnostic_per_failed_activity(tmp_path):
    manifest = _corpus(tmp_path, n=4, length=520)
    corpus = manifest.parent
    # truncate two recordings below the window length
    for name in ("act02.csv", "act04.csv"):
        path = corpus / name
        path.write_text("\n".join(path.read_text().splitlines()[:40]) + "\n")
    with pytest.raises(ManifestError) as err:
        runner.run_rank(manifest, _config())
    message = str(err.value)
    assert "act02" in message and "act04" in message
    assert "act01" not in message


def test_rank_writes_table_and_report(tmp_path):
    # report.json explains the run and holds these keys only, in this order:
    # the ranking is in ranking.csv alone
    keys = ["kind", "fingerprint", "config", "tie_break", "n_activities", "n_windows",
            "activities"]
    manifest = _corpus(tmp_path)
    for config, n_windows in ((_config(), 1), (_config(series_length=100, multi_window=True), 5)):
        out = tmp_path / f"out-{n_windows}"
        ranking, payload = runner.run_rank(manifest, config, out_dir=out)
        assert textio.read_ranking_file(out / runner.RANKING_FILENAME) == ranking
        report = json.loads((out / runner.RANK_REPORT_FILENAME).read_text())
        assert list(report) == keys
        assert report["fingerprint"] == payload["fingerprint"]
        assert (report["n_activities"], report["n_windows"]) == (3, n_windows)
        assert "timestamp" not in json.dumps(report).lower()


def test_rank_output_is_byte_identical_across_runs(tmp_path):
    # run to run, and with a byte-order mark before the manifest or CRLF line
    # ends in every file of the corpus: neither is content
    manifest = _corpus(tmp_path)
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for path in manifest.parent.iterdir():
        (crlf / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    bom = manifest.with_name("bom.txt")
    bom.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    outs = []
    for k, listed in enumerate((manifest, manifest, manifest, bom, crlf / manifest.name)):
        out = tmp_path / f"out-{k}"
        runner.run_rank(listed, _config(), out_dir=out)
        outs.append(((out / runner.RANKING_FILENAME).read_bytes(),
                     (out / runner.RANK_REPORT_FILENAME).read_bytes()))
    assert outs.count(outs[0]) == len(outs)


def test_rank_round_trip_agrees_with_itself(tmp_path):
    manifest = _corpus(tmp_path)
    out = tmp_path / "out"
    runner.run_rank(manifest, _config(), out_dir=out)
    labels, _ = textio.read_ranking_file(out / runner.RANKING_FILENAME)
    for scope in ("all", "per-size"):
        reports = compare_rankings(labels, list(labels), scope=scope)
        assert all(r.tau == 1.0 for r in reports.values())


def test_rank_multi_window_averages_over_full_windows(tmp_path):
    manifest = _corpus(tmp_path, length=1040)
    (labels, _), payload = runner.run_rank(manifest, _config(multi_window=True))
    assert payload["n_windows"] == 2
    assert labels[0] == "LW"
    for diag in payload["activities"]:
        assert diag["windows"] == 2


def _one_set(entries, config, points):
    """The record of one window set of ``load_window_sets``' points."""
    return WindowSets(tuple(activity for activity, _ in entries), config.roster, points[None])


def test_rank_multi_window_score_is_the_sequential_mean_of_window_scores(tmp_path):
    # heavy noise spreads the window scores, so any other summation order
    # changes the last bits of many subsets
    manifest = _corpus(tmp_path, n=4, length=520, noise=0.3)
    config = _config(series_length=50, multi_window=True)
    entries = pio.parse_manifest(manifest)
    points, _ = runner.load_window_sets(entries, config)
    assert len(points) == 10
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    per_window = [dict(zip(*rank_placements(_one_set(entries, config, ws), subsets)))
                  for ws in points]
    (labels, scores), _ = runner.run_rank(manifest, config)
    assert len(labels) == len(subsets)
    for label, score in zip(labels, scores):
        total = 0.0
        for window in per_window:
            total += window[label]
        assert score == total / len(per_window)


def test_rank_single_window_is_the_ranking_of_its_window_set(tmp_path):
    manifest = _corpus(tmp_path, n=4, noise=0.3)
    config = _config(series_length=50)
    entries = pio.parse_manifest(manifest)
    points, _ = runner.load_window_sets(entries, config)
    assert len(points) == 1
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    ranking, _ = runner.run_rank(manifest, config)
    assert ranking == rank_placements(_one_set(entries, config, points[0]), subsets)


def test_rank_ranks_every_window_set_in_one_library_call(tmp_path, monkeypatch):
    calls = []

    def recorder(windows, labels):
        calls.append((len(windows.points), len(labels)))
        return rank_placements(windows, labels)

    monkeypatch.setattr(runner, "rank_placements", recorder)
    manifest = _corpus(tmp_path, n=4, length=520, noise=0.3)
    _, payload = runner.run_rank(manifest, _config(series_length=50, multi_window=True))
    assert payload["n_windows"] == 10
    assert calls == [(payload["n_windows"], 31)]


def test_windows_are_cut_per_recording_in_manifest_order(tmp_path):
    # every activity lists a recording shorter than L, one holding two
    # windows and 30 spare frames, then one holding 1, 2 or 3 windows
    L = 50
    source = _corpus(tmp_path, noise=0.3, length=400).parent
    recordings, windows = [], {}
    for a, n_last in enumerate((1, 2, 3), start=1):
        lines = (source / f"act{a:02d}.csv").read_text().splitlines()
        cuts = [(0, 30), (30, 160), (160, 160 + n_last * L + 10)]
        names = []
        for r, (start, end) in enumerate(cuts):
            names.append(f"act{a:02d}_{r}.csv")
            (tmp_path / names[-1]).write_text("\n".join(lines[start:end]) + "\n")
        recordings.append(f"act{a:02d} {' '.join(names)}")
        starts = [30, 80] + [160 + k * L for k in range(n_last)]
        windows[f"act{a:02d}"] = [lines[w:w + L] for w in starts]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(recordings) + "\n")

    def window_scores(w):
        # the ranking of a manifest whose recordings are exactly window w
        listed = []
        for aid, cut in windows.items():
            (tmp_path / f"{aid}_w{w}.csv").write_text("\n".join(cut[w]) + "\n")
            listed.append(f"{aid} {aid}_w{w}.csv")
        (tmp_path / f"window{w}.txt").write_text("\n".join(listed) + "\n")
        ranking, _ = runner.run_rank(tmp_path / f"window{w}.txt", _config(series_length=L))
        return dict(zip(*ranking))

    per_window = [window_scores(w) for w in range(3)]
    ranking, payload = runner.run_rank(manifest, _config(series_length=L))
    assert dict(zip(*ranking)) == per_window[0]
    assert [d["windows"] for d in payload["activities"]] == [3, 4, 5]
    config = _config(series_length=L, multi_window=True)
    (labels, scores), payload = runner.run_rank(manifest, config)
    assert payload["n_windows"] == 3
    assert [d["windows"] for d in payload["activities"]] == [3, 4, 5]
    for label, score in zip(labels, scores):
        total = 0.0
        for window in per_window:
            total += window[label]
        assert score == total / 3


@pytest.mark.parametrize("multi_window, n_sets", [(True, 3), (False, 1)])
def test_windows_are_slices_of_their_recordings(tmp_path, monkeypatch, multi_window, n_sets):
    # the points preprocessing gives each recording, in manifest order
    recorded = []

    def preprocess(*args, **kwargs):
        recorded.append(preprocess_recording(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(runner, "preprocess_recording", preprocess)
    _one_cpu(monkeypatch)  # a forked child's calls would not be recorded
    manifest = _corpus(tmp_path, length=160)
    config = _config(series_length=50, multi_window=multi_window)
    points, diagnostics = runner.load_window_sets(pio.parse_manifest(manifest), config)
    assert points.shape == (n_sets, len(recorded), len(config.roster), 50, 2)
    assert [d["windows"] for d in diagnostics] == [3, 3, 3]
    for w, ws in enumerate(points):
        for window, full in zip(ws, recorded):
            assert np.array_equal(window, full.points[:, 50 * w:50 * (w + 1)])


def _two_corpora_manifest(tmp_path, act01, act02):
    # corpus a holds 200 frames (4 windows of 50), corpus b 150 (3 windows);
    # each activity lists its files from the corpora named, in that order
    cli.main(["synth", str(tmp_path / "a"), "--noise", "0.01", "--activities", "2",
              "--length", "200"])
    cli.main(["synth", str(tmp_path / "b"), "--noise", "0.01", "--activities", "2",
              "--length", "150", "--seed", "1"])
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"act01 {' '.join(c + '/act01.csv' for c in act01)}\n"
                        f"act02 {' '.join(c + '/act02.csv' for c in act02)}\n")
    return manifest


def test_multi_window_pairs_recordings_by_manifest_position(tmp_path, monkeypatch):
    # act01 lists a then b, act02 lists b then a: position 0 pairs a 4-window
    # recording with a 3-window one, and so does position 1
    recorded = []

    def preprocess(*args, **kwargs):
        recorded.append(preprocess_recording(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(runner, "preprocess_recording", preprocess)
    _one_cpu(monkeypatch)  # a forked child's calls would not be recorded
    manifest = _two_corpora_manifest(tmp_path, "ab", "ba")
    config = _config(series_length=50, subset_sizes=(1,), multi_window=True)
    points, diagnostics = runner.load_window_sets(pio.parse_manifest(manifest), config)
    assert [d["windows"] for d in diagnostics] == [7, 7]
    act01, act02 = recorded[:2], recorded[2:]
    expected = [(k, w) for k in range(2) for w in range(3)]
    assert len(points) == len(expected)
    for ws, (k, w) in zip(points, expected):
        for window, full in zip(ws, (act01[k], act02[k])):
            assert np.array_equal(window, full.points[:, 50 * w:50 * (w + 1)])


@pytest.mark.parametrize("act02, length, message", [
    ("b", "50", "multi_window pairs recordings by manifest position, but act02 lists 1 and "
                "act01 lists 2"),
    ("ba", "160", "no manifest position holds a full window of every activity"),
], ids=["recording-count", "no-common-position"])
def test_cli_multi_window_rejects_unpaired_recordings(tmp_path, capsys, act02, length, message):
    manifest = _two_corpora_manifest(tmp_path, "ab", act02)
    capsys.readouterr()
    code = cli.main(["rank", str(manifest), "--length", length, "--sizes", "1", "--multi-window",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


def _offset_manifest(tmp_path, act02):
    # corpora c1 and c2 of 200 frames (4 windows of 50); short01.csv and
    # short02.csv hold c1's act01 and act02 for 30 frames, no window; act01
    # lists short01.csv then c1's file
    for corpus, seed in (("c1", "0"), ("c2", "1")):
        cli.main(["synth", str(tmp_path / corpus), "--noise", "0.01", "--activities", "2",
                  "--length", "200", "--seed", seed])
    for name in ("act01", "act02"):
        lines = (tmp_path / "c1" / f"{name}.csv").read_text().splitlines()
        (tmp_path / f"short{name[3:]}.csv").write_text("\n".join(lines[:30]) + "\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"act01 short01.csv c1/act01.csv\nact02 {act02}\n")
    return manifest


def test_single_window_scores_the_first_window_set_of_the_position_pairing(tmp_path, capsys):
    # act01's first full window is at position 1, so act02's is taken there
    # too: c1 against c1, where the first full window in manifest order
    # would score c1's act01 against c2's act02
    manifest = _offset_manifest(tmp_path, "c2/act02.csv c1/act02.csv")
    (tmp_path / "c1.txt").write_text("act01 c1/act01.csv\nact02 c1/act02.csv\n")
    for name in ("manifest", "c1"):
        assert cli.main(["rank", str(tmp_path / f"{name}.txt"), "--length", "50", "--sizes", "1",
                         "--out-dir", str(tmp_path / name)]) == 0
    assert "best placement: LW (score 0.031996)" in capsys.readouterr().out
    ranking = (tmp_path / "manifest" / runner.RANKING_FILENAME).read_bytes()
    assert ranking == (tmp_path / "c1" / runner.RANKING_FILENAME).read_bytes()
    entries = pio.parse_manifest(manifest)
    points, _ = runner.load_window_sets(entries, _config(series_length=50))
    assert len(points) == 1
    points, _ = runner.load_window_sets(entries, _config(series_length=50, multi_window=True))
    assert len(points) == 4


def test_cli_single_window_needs_a_position_holding_every_activity(tmp_path, capsys):
    # act02's file at position 1 holds no window, so no position holds both
    manifest = _offset_manifest(tmp_path, "c2/act02.csv short02.csv")
    capsys.readouterr()
    code = cli.main(["rank", str(manifest), "--length", "50", "--sizes", "1",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys) == (
        "error: no manifest position holds a full window of every activity\n")


def test_run_settings_are_named_once(tmp_path):
    # config file keys, the settings flags and the report all follow RunConfig
    names = [f.name for f in fields(RunConfig)]
    assert list(_PARSERS) == names
    for argv in (["rank", "manifest.txt"], ["validate", "a.csv"]):
        args = vars(cli.build_parser().parse_args(argv))
        assert set(args) - {"command", "func", "config", "manifest", "out_dir", "paths"} == set(names)
    out = tmp_path / "out"
    runner.run_rank(_corpus(tmp_path), _config(), out_dir=out)
    report = json.loads((out / runner.RANK_REPORT_FILENAME).read_text())
    assert list(report["config"]) == names


def test_numpy_typed_settings_write_what_their_plain_values_write(tmp_path):
    manifest = _corpus(tmp_path)
    plain = dict(series_length=100, sample_rate=10.0, confidence_threshold=0.25, max_gap=3)
    typed = dict(series_length=np.int64(100), sample_rate=np.float32(10.0),
                 confidence_threshold=np.float32(0.25), max_gap=np.int64(3))
    reports = []
    for kind, settings_ in (("plain", plain), ("typed", typed)):
        config = _config(**settings_)
        runner.run_rank(manifest, config, out_dir=tmp_path / kind)
        reports.append((config.fingerprint(),
                        (tmp_path / kind / runner.RANK_REPORT_FILENAME).read_bytes()))
    assert reports[1] == reports[0]


def test_rank_ingests_labeled_corpus(tmp_path):
    # labeled and CSV files of one seed rank to the same bytes
    rankings = []
    for style in ("csv", "labeled"):
        manifest = _corpus(tmp_path / style, noise=0.01, seed=2, style=style)
        (labels, _), _ = runner.run_rank(manifest, _config(), out_dir=tmp_path / style / "out")
        assert labels[0] == "LW"
        rankings.append((tmp_path / style / "out" / runner.RANKING_FILENAME).read_bytes())
    assert rankings[0] == rankings[1]


def test_rank_without_drift_matches_direct_generation_ordering(tmp_path):
    # export -> parse -> preprocess must preserve which site wins
    manifest = _corpus(tmp_path, drift=False)
    (labels, _), _ = runner.run_rank(manifest, _config(subset_sizes=(1,)))
    assert labels[0] == "LW"


# --- loading in two processes -------------------------------------------------------

def _paired_corpora(tmp_path, style):
    # four activities, each listing a recording of two corpora: eight
    # recordings, so the parent loads act01-act02 and the child act03-act04
    for corpus, seed in (("a", 0), ("b", 1)):
        _corpus(tmp_path / corpus, n=4, length=160, noise=0.01, seed=seed, style=style)
    ext = "csv" if style == "csv" else "txt"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"act0{k} a/corpus/act0{k}.{ext} b/corpus/act0{k}.{ext}\n"
                                for k in range(1, 5)))
    return manifest


def _windows(points):
    return points.dtype, points.shape, points.tobytes()


@pytest.mark.parametrize("multi_window", [False, True], ids=["single-window", "multi-window"])
@pytest.mark.parametrize("style", ["csv", "labeled"])
def test_two_process_load_gives_the_one_process_bytes(tmp_path, monkeypatch, style,
                                                      multi_window):
    manifest = _paired_corpora(tmp_path, style)
    config = _config(series_length=50, multi_window=multi_window)
    runs = []
    for cpus in (_one_cpu, _two_cpus):
        with monkeypatch.context() as m:
            forks = cpus(m)
            loaded = runner.load_window_sets(pio.parse_manifest(manifest), config)
            out = tmp_path / cpus.__name__
            runner.run_rank(manifest, config, out_dir=out)
        runs.append((_windows(loaded[0]), loaded[1], (out / "ranking.csv").read_bytes(),
                     (out / "report.json").read_bytes()))
    assert forks == [os.getpid()] * 2  # one child per load
    assert runs[1] == runs[0]
    assert runs[0][0][1][0] == (6 if multi_window else 1)  # the window sets


def _broken(corpus, data_error, computation_error):
    # a malformed line 5 in one file, both hips at 1.5e308 in another
    for name in data_error:
        lines = (corpus / name).read_text().split("\n")
        lines[4] = lines[4].replace(",", ";", 1)
        (corpus / name).write_text("\n".join(lines))
    for name in computation_error:
        t, kp = pio.parse_keypoint_file(corpus / name)
        kp[:, [11, 12], 0] = 1.5e308
        pio.write_keypoint_file(corpus / name, t, kp)


_CHILD_ERRORS = {"data-error-in-child": (["act04.csv"], [], 1),
                 "data-errors-in-both": (["act01.csv", "act04.csv"], [], 1),
                 "computation-error-in-child": (["act01.csv"], ["act03.csv"], 2)}


@pytest.mark.parametrize("command, data_error, computation_error, code", [
    pytest.param(command, *case, id=prefix + name)
    for command, prefix in (("rank", ""), ("validate", "validate-"))
    for name, case in _CHILD_ERRORS.items()])
def test_errors_in_the_childs_half_are_the_one_process_errors(tmp_path, monkeypatch, command,
                                                             data_error, computation_error, code):
    # rank loads four activities of one recording each, validate their four
    # files: the parent loads act01-act02 and the child act03-act04
    manifest = _corpus(tmp_path, n=4, length=60)
    _broken(manifest.parent, data_error, computation_error)
    if command == "rank":
        argv = ["rank", str(manifest), "--length", "50", "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["validate", *(str(manifest.parent / f"act0{k}.csv") for k in range(1, 5))]
    runs = []
    for cpus in (_one_cpu, _two_cpus):
        with monkeypatch.context() as m:
            forks = cpus(m)
            runs.append(_run_cli(argv))
    assert forks == [os.getpid()]
    assert runs[1] == runs[0]
    got, out, err = runs[0]
    if command == "rank":
        assert (got, out, err.count("\n")) == (code, "", 1), err
    else:  # one line per file, in order
        broken = len(data_error) + len(computation_error)
        assert (got, out.count(" ok, "), err.count("\n")) == (code, 4 - broken, broken), err
    for name in data_error if code == 1 else computation_error:
        assert str(manifest.parent / name) in err
    assert not (tmp_path / "out").exists()


def test_recordings_of_a_child_that_dies_are_loaded_here(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path, n=4, length=160)
    config = _config(series_length=50, multi_window=True)
    load_each, parent = runner._load_each, os.getpid()

    def dying(load, jobs):
        if os.getpid() != parent:
            os._exit(1)
        return load_each(load, jobs)

    with monkeypatch.context() as m:
        _one_cpu(m)
        expected = _windows(runner.load_window_sets(pio.parse_manifest(manifest), config)[0])
    _two_cpus(monkeypatch)
    monkeypatch.setattr(runner, "_load_each", dying)
    got = runner.load_window_sets(pio.parse_manifest(manifest), config)[0]
    assert _windows(got) == expected


def test_each_recording_is_parsed_once(tmp_path, monkeypatch):
    # a failing recording's error comes back with its result; it is not
    # parsed again to get it
    _one_cpu(monkeypatch)
    manifest = _corpus(tmp_path, n=4, length=60)
    _broken(manifest.parent, ["act02.csv"], [])
    parsed, parse = [], pio.parse_keypoint_file

    def counted(path):
        parsed.append(Path(path).name)
        return parse(path)

    monkeypatch.setattr(pio, "parse_keypoint_file", counted)
    with pytest.raises(ManifestError, match="act02.csv:5: "):
        runner.load_window_sets(pio.parse_manifest(manifest), _config(series_length=50))
    assert parsed == ["act01.csv", "act02.csv", "act03.csv", "act04.csv"]


def test_every_package_error_pickles_with_its_type_message_and_attributes():
    # a library caller's worker processes send errors back as pickles
    arguments = {errors.MalformedLineError: ("a.csv", 5, "bad"),
                 errors.GapTooLongError: ("LW", 1, 20)}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SensorPlaceError)]
    assert set(arguments) < set(classes)
    for cls in classes:
        exc = cls(*arguments.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))
    assert vars(pickle.loads(pickle.dumps(errors.MalformedLineError("a.csv", 5, "bad")))) == {
        "path": "a.csv", "line_no": 5, "reason": "bad"}


def test_no_child_outlives_load_window_sets(tmp_path, monkeypatch):
    forks = _two_cpus(monkeypatch)
    manifest = _corpus(tmp_path, n=4, length=160)
    runner.load_window_sets(pio.parse_manifest(manifest), _config(series_length=50))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    _broken(manifest.parent, ["act04.csv"], [])
    with pytest.raises(ManifestError, match="act04.csv:5: "):
        runner.load_window_sets(pio.parse_manifest(manifest), _config(series_length=50))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2


def test_a_failed_fork_loads_every_recording_here(tmp_path, monkeypatch):
    manifest = _corpus(tmp_path, n=4, length=160)
    config = _config(series_length=50, multi_window=True)
    with monkeypatch.context() as m:
        _one_cpu(m)
        expected = _windows(runner.load_window_sets(pio.parse_manifest(manifest), config)[0])

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    got = runner.load_window_sets(pio.parse_manifest(manifest), config)[0]
    assert len(os.listdir("/proc/self/fd")) == open_fds  # the pipe's two ends are closed
    assert _windows(got) == expected


def test_a_fault_of_the_program_is_raised_at_its_first_recording(tmp_path, monkeypatch):
    # only input and numeric errors are left for the walk to raise again
    manifest = _corpus(tmp_path, n=4, length=60)
    parsed = []
    parse = pio.parse_keypoint_file

    def parse_and_record(path):
        parsed.append(Path(path).name)
        return parse(path)

    def broken(*args, **kwargs):
        raise TypeError("a fault of the program")

    _one_cpu(monkeypatch)
    monkeypatch.setattr(pio, "parse_keypoint_file", parse_and_record)
    monkeypatch.setattr(runner, "preprocess_recording", broken)
    with pytest.raises(TypeError, match="^a fault of the program$"):
        runner.load_window_sets(pio.parse_manifest(manifest), _config(series_length=50))
    assert parsed == ["act01.csv"]


# --- run_compare -----------------------------------------------------------------

def test_compare_identical_files_all_scopes(tmp_path):
    manifest = _corpus(tmp_path)
    out = tmp_path / "out"
    runner.run_rank(manifest, _config(), out_dir=out)
    table = out / runner.RANKING_FILENAME
    reports, payload = textio.run_compare(table, table, scope="per-size", out_dir=out)
    # size-5 holds a single subset, so there is no pair to correlate
    assert set(reports) == {"size-1", "size-2", "size-3", "size-4"}
    assert all(r.tau == 1.0 for r in reports.values())
    tau_lines = (out / textio.TAU_TABLE_FILENAME).read_text().splitlines()
    assert len(tau_lines) == 5
    saved = json.loads((out / textio.TAU_REPORT_FILENAME).read_text())
    assert saved["results"]["size-2"]["tau"] == 1.0


def test_compare_against_external_truth(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("rank,sites\n1,LW+PE\n2,RW+PE\n3,LW+RW\n")
    predicted = tmp_path / "predicted.csv"
    predicted.write_text("rank,score,sites\n1,0.9,LW+RW\n2,0.5,LW+PE\n3,0.1,RW+PE\n")
    reports, _ = textio.run_compare(truth, predicted, scope="per-size")
    assert reports["size-2"].tau == pytest.approx(-1 / 3, abs=1e-15)


def test_per_size_scopes_come_in_size_order(tmp_path, capsys):
    # twelve sites give sizes 1-12, and size 12 holds one subset: the keys
    # run size-1 ... size-11 in stdout, tau.csv and tau.json alike
    first = _full_table(tmp_path / "first.csv")
    rows = (f"{rank},{label}" for rank, label in enumerate(reversed(sites.subset_labels()), 1))
    second = tmp_path / "second.csv"
    second.write_text("\n".join(["rank,sites", *rows]) + "\n")
    out = tmp_path / "tau"
    capsys.readouterr()
    assert cli.main(["compare", str(first), str(second), "--out-dir", str(out)]) == 0
    keys = [f"size-{size}" for size in range(1, 12)]
    text = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in text if line.startswith("  size-")] == keys
    table = (out / textio.TAU_TABLE_FILENAME).read_text().splitlines()
    assert [line.split(",")[0] for line in table[1:]] == keys
    assert list(json.loads((out / textio.TAU_REPORT_FILENAME).read_text())["results"]) == keys


# --- CLI ---------------------------------------------------------------------------

def test_cli_full_workflow(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", str(corpus), "--activities", "3", "--length", "520"]) == 0
    assert cli.main(["validate", str(corpus / "act01.csv")]) == 0
    out = tmp_path / "out"
    assert cli.main([
        "rank", str(corpus / "manifest.txt"), "--out-dir", str(out),
        "--sizes", "1,2,3,4,5",
    ]) == 0
    assert cli.main([
        "compare", str(out / "ranking.csv"), str(out / "ranking.csv"),
    ]) == 0
    assert cli.main(["report", str(out / "ranking.csv")]) == 0
    captured = capsys.readouterr()
    assert "best placement: LW" in captured.out
    assert "tau=+1.000000" in captured.out


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subset_sizes = 1\nseries_length = 400\n")
    out = tmp_path / "out"
    assert cli.main([
        "rank", str(corpus / "manifest.txt"), "--config", str(cfg),
        "--out-dir", str(out), "--length", "500",
    ]) == 0
    labels, _ = textio.read_ranking_file(out / "ranking.csv")
    assert len(labels) == 5  # sizes filter came from the file
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["series_length"] == 500  # flag beat the file


_ALL_SITES = ["--roster", ",".join(SITE_ORDER), "--allow-head",
              "--sizes", ",".join(str(size) for size in range(1, 13))]
_FIVE_WINDOWS = ["--multi-window", "--length", "100"]


@pytest.fixture(scope="module")
def _rank_corpus(tmp_path_factory):
    """The manifest of a 13-activity corpus of 520 frames."""
    return synth.run_synth(tmp_path_factory.mktemp("rank-corpus"), n_activities=13,
                           noise_sigma=0.01, length=520)


def _rank_child(manifest, out, flags, threads, cpu=None):
    """The ranking.csv and report.json bytes of ``rank`` run in a child
    process with ``threads`` BLAS threads, pinned to ``cpu`` if one is
    given."""
    env = dict(_process_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    subprocess.run([sys.executable, "-m", "sensorplace.cli", "rank", str(manifest),
                    "--out-dir", str(out), *flags],
                   env=env, check=True, capture_output=True, preexec_fn=pin)
    return (out / "ranking.csv").read_bytes(), (out / "report.json").read_bytes()


def test_cli_rank_gives_identical_bytes_across_processes(tmp_path, _rank_corpus):
    # on five sites and on all 12 (4095 subsets, scored in chunks), over one
    # window and as the mean over five: the same bytes run to run and
    # whatever the BLAS thread count
    for k, (flags, rows, n_windows) in enumerate([
        ([], 31, 1), (_FIVE_WINDOWS, 31, 5), (_ALL_SITES, 4096, 1),
        ([*_ALL_SITES, *_FIVE_WINDOWS], 4096, 5),
    ]):
        outs = [_rank_child(_rank_corpus, tmp_path / f"out-{k}-{run}", flags, threads)
                for run, threads in enumerate("112")]
        assert outs[0] == outs[1] == outs[2]
        ranking, report = outs[0]
        assert ranking.count(b"\n") == rows
        assert json.loads(report)["n_windows"] == n_windows


@pytest.mark.skipif(not (hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2),
                    reason="pinning to one CPU changes the load only where two or more are usable")
def test_cli_rank_pinned_to_one_cpu_gives_the_unpinned_bytes(tmp_path, _rank_corpus):
    # unpinned, rank loads the recordings in two processes; pinned, in one
    flags = [*_ALL_SITES, *_FIVE_WINDOWS]
    cpu = min(os.sched_getaffinity(0))
    unpinned = _rank_child(_rank_corpus, tmp_path / "unpinned", flags, "1")
    assert _rank_child(_rank_corpus, tmp_path / "pinned", flags, "1", cpu) == unpinned


def test_cli_synth_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", str(a), "--seed", "3", "--length", "60"]) == 0
    assert cli.main(["synth", str(b), "--seed", "3", "--length", "60"]) == 0
    assert (a / "act01.csv").read_bytes() == (b / "act01.csv").read_bytes()


def test_cli_input_errors_exit_1(tmp_path, capsys):
    assert cli.main(["rank", str(tmp_path / "missing.txt")]) == 1
    assert cli.main(["validate", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    assert cli.main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_config_file_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    capsys.readouterr()
    code = cli.main([
        "rank", str(corpus / "manifest.txt"), "--config", str(tmp_path / "missing.cfg"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_cli_uncreatable_out_dir_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    capsys.readouterr()
    code = cli.main([
        "rank", str(corpus / "manifest.txt"), "--out-dir", str(blocker / "sub"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("command, blocked", [
    ("rank", "out/ranking.csv"), ("compare", "out/tau.csv"), ("report", "out"),
])
def test_cli_unwritable_output_path_exits_1(tmp_path, capsys, command, blocked):
    # a directory stands where the command writes a file
    (tmp_path / blocked).mkdir(parents=True)
    table = tmp_path / "table.csv"
    table.write_text("rank,sites\n1,LW\n2,RW\n")
    out = str(tmp_path / "out")
    if command == "rank":
        argv = ["rank", str(_corpus(tmp_path)), "--out-dir", out]
    elif command == "compare":
        argv = ["compare", str(table), str(table), "--out-dir", out]
    else:
        argv = ["report", str(table), "--out", out]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"
    assert not list(tmp_path.rglob("*.tmp"))


def _repeated_timestamp(t, kp):
    t[4] = t[3]  # line 5 repeats line 4's timestamp
    return t, kp


def _at_15_hz(t, kp):
    return np.arange(len(t)) / 15.0, kp


def _left_wrist_unseen(t, kp):
    kp[:, 9, 2] = 0.0  # the left wrist is site LW's only keypoint
    return t, kp


def _wrists_seen_apart(t, kp):
    kp[:30, 9, 2] = 0.0  # LW is valid in frames 30-59 only
    kp[30:, 10, 2] = 0.0  # and RW in frames 0-29 only
    return t, kp


@pytest.mark.parametrize("command, edit, length, expected", [
    ("rank", _repeated_timestamp, "50",
     "act01: {act01}:5: timestamp 0.3 does not increase over 0.3"),
    ("validate", _repeated_timestamp, "50",
     "{act01}:5: timestamp 0.3 does not increase over 0.3"),
    ("rank", _at_15_hz, "50",
     "act01: {act01}: input rate 15 Hz is not an integer multiple of the target rate 10 Hz"),
    ("rank", _left_wrist_unseen, "50", "act01: {act01}: site LW has no valid sample"),
    ("rank", _wrists_seen_apart, "50", "act01: {act01}: no frame has every site valid"),
    ("rank", None, "61", "act01: series has 60 frames, needs at least 61; "
     "act02: series has 60 frames, needs at least 61"),
    ("compare", None, None,
     "rankings cover different subsets; only in first: RW; only in second: PE"),
], ids=["rank-repeated-timestamp", "validate-repeated-timestamp", "rate-not-a-multiple",
        "site-never-valid", "empty-envelope", "too-short", "compare-different-subsets"])
def test_cli_input_faults_print_their_one_line(tmp_path, capsys, command, edit, length,
                                               expected):
    act01 = tmp_path / "corpus" / "act01.csv"
    if command == "compare":
        (tmp_path / "a.csv").write_text("rank,sites\n1,LW\n2,RW\n")
        (tmp_path / "b.csv").write_text("1,LW\n2,PE\n")  # a table may omit its header
        argv = ["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--scope", "all"]
    else:
        manifest = _corpus(tmp_path, n=2, length=60)
        if edit is not None:
            t, kp = pio.parse_keypoint_file(act01)
            pio.write_keypoint_file(act01, *edit(t, kp))
        argv = [command, str(act01 if command == "validate" else manifest),
                "--length", length, "--rate", "10"]
        if command == "rank":
            argv += ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: " + expected.format(act01=act01) + "\n"


def test_cli_compare_reads_labels_in_any_site_order(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("1,LW+RW\n2,PE\n")
    b = tmp_path / "b.csv"
    b.write_text("1,RW+LW\n2,PE\n")
    assert cli.main(["compare", str(a), str(b), "--scope", "all"]) == 0
    assert "all: tau=+1.000000" in capsys.readouterr().out


def test_cli_report_rejects_an_unknown_site(tmp_path, capsys):
    table = tmp_path / "ranking.csv"
    table.write_text("rank,sites\n1,LW\n2,LW+ZZ\n")
    assert cli.main(["report", str(table)]) == 1
    assert _one_error_line(capsys) == f"error: {table}:3: sites 'LW+ZZ': unknown site id 'ZZ'\n"


def test_cli_report_rejects_a_score_that_rises_with_rank(tmp_path, capsys):
    table = tmp_path / "ranking.csv"
    table.write_text("rank,score,sites\n1,0.5,LW\n2,0.75,RW\n")
    assert cli.main(["report", str(table)]) == 1
    assert _one_error_line(capsys) == (
        f"error: {table}:3: score 0.75 at rank 2 is above score 0.5 at rank 1; "
        "scores must not rise with rank\n"
    )


@pytest.mark.parametrize("argv, expected", [
    (["rank", "{m}", "--length", "5_00"], "--length: not an integer: '5_00'"),
    (["rank", "{m}", "--length", "\u0665\u0660"], "--length: not an integer: '\u0665\u0660'"),
    (["rank", "{m}", "--length", "+50"], "--length: not an integer: '+50'"),
    (["rank", "{m}", "--rate", "1_0"], "--rate: not a number: '1_0'"),
    (["rank", "{m}", "--rate", "abc"], "--rate: not a number: 'abc'"),
    (["rank", "{m}", "--threshold", "\u0660.5"], "--threshold: not a number: '\u0660.5'"),
    (["rank", "{m}", "--sizes", "1,2_0"], "--sizes: not an integer: '2_0'"),
    (["validate", "{m}", "--max-gap", "1_0"], "--max-gap: not an integer: '1_0'"),
    (["compare", "{m}", "{m}", "--top-k", "1_0"], "--top-k: not an integer: '1_0'"),
    (["synth", "{m}", "--seed", "1_0"], "--seed: not an integer: '1_0'"),
    (["synth", "{m}", "--noise", "0_0.1"], "--noise: not a number: '0_0.1'"),
], ids=["length-underscore", "length-arabic-indic", "length-plus", "rate-underscore",
        "rate-letters", "threshold-arabic-indic", "sizes-underscore", "max-gap", "top-k", "seed", "noise"])
def test_cli_numeric_flags_take_one_spelling(tmp_path, capsys, argv, expected):
    # an int is ASCII digits with an optional leading '-'; a float is ASCII
    # without '_', as in ranking tables and keypoint files. The usage error
    # carries the flag parser's message, not argparse's "invalid size_list
    # value"
    argv = [arg.format(m=tmp_path / "manifest.txt") for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"sensorplace {argv[0]}: error: argument {expected}"
    assert "Traceback" not in err


@pytest.mark.parametrize("line", [
    "series_length = 5_00", "series_length = \u0665\u0660\u0660", "sample_rate = 1_0",
])
def test_cli_config_numbers_take_one_spelling(tmp_path, capsys, line):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "60"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["rank", str(corpus / "manifest.txt"), "--config", str(cfg),
                     "--length", "50", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    key = line.split(" = ")[0]
    assert _one_error_line(capsys).startswith(f"error: {cfg}:2: bad value for {key!r}: ")
    assert not (tmp_path / "out").exists()


def test_cli_config_switch_with_a_typo_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "60"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("multi_window = ture\n")
    capsys.readouterr()
    code = cli.main(["rank", str(corpus / "manifest.txt"), "--config", str(cfg),
                     "--length", "50", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys).startswith(f"error: {cfg}:1: bad value for 'multi_window'")


# Each setting a config file can get wrong on its own, with the check's message
_BAD_CONFIG_VALUES = [
    ("series_length = 1", "series length must be at least 2"),
    ("max_gap = -1", "max gap must be >= 0"),
    ("sample_rate = 0", "sample rate must be positive and finite"),
    ("sample_rate = inf", "sample rate must be positive and finite"),
    ("confidence_threshold = 2", "confidence threshold must be within [0, 1]"),
    ("roster = LW,ZZ", "unknown site id 'ZZ'"),
    ("roster = LW,LW", "duplicate site ids in ('LW', 'LW')"),
    ("roster =", "roster must not be empty"),
    ("roster = LW,,RW", "empty item in 'LW,,RW'"),
    ("subset_sizes =", "at least one subset size is required"),
    ("subset_sizes = 0", "subset sizes must be at least 1, got (0,)"),
    ("subset_sizes = 1,,2", "empty item in '1,,2'"),
]


@pytest.mark.parametrize("line, message", _BAD_CONFIG_VALUES,
                         ids=[line for line, _ in _BAD_CONFIG_VALUES])
def test_cli_config_value_wrong_on_its_own_names_its_line(tmp_path, capsys, line, message):
    # the config is checked before the manifest is opened
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\n{line}\n")
    code = cli.main(["rank", str(tmp_path / "manifest.txt"), "--config", str(cfg)])
    assert code == 1
    key = line.partition(" =")[0]
    assert _one_error_line(capsys) == f"error: {cfg}:2: bad value for {key!r}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("roster = LW,HD\nsubset_sizes = 1\n", "the head site is excluded from placement"),
    ("roster = LW,RW\n", "subset sizes (1, 2, 3, 4) out of range for a roster of 2"),
], ids=["head", "sizes-over-roster"])
def test_cli_config_values_wrong_together_keep_their_message(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["rank", str(tmp_path / "manifest.txt"), "--config", str(cfg)]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


def test_cli_config_value_a_flag_overrides_is_still_checked(tmp_path, capsys):
    # a file value is checked as it is read, whichever value the run uses
    cfg = tmp_path / "run.cfg"
    cfg.write_text("series_length = 1\n")
    assert cli.main(["rank", str(tmp_path / "manifest.txt"), "--config", str(cfg),
                     "--length", "50"]) == 1
    assert _one_error_line(capsys) == (
        f"error: {cfg}:1: bad value for 'series_length': series length must be at least 2\n"
    )


def test_cli_config_key_set_twice_names_both_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("series_length = 40\nmax_gap = 3\n\nseries_length = 50\n")
    assert cli.main(["rank", str(tmp_path / "manifest.txt"), "--config", str(cfg)]) == 1
    assert _one_error_line(capsys) == f"error: {cfg}:4: 'series_length' is already set on line 1\n"


@pytest.mark.parametrize("flags, expected", [
    (["--roster", "LW,,RW"], "--roster: empty item in 'LW,,RW'"),
    (["--sizes", "1,,2"], "--sizes: empty item in '1,,2'"),
    (["--sizes", ","], "--sizes: empty item in ','"),
], ids=["roster", "sizes", "sizes-comma"])
def test_cli_settings_flags_reject_what_config_files_reject(tmp_path, capsys, flags, expected):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rank", str(tmp_path / "manifest.txt"), *flags])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"sensorplace rank: error: argument {expected}"


def test_cli_norm_overflow_exits_2(tmp_path, capsys):
    # act02's coordinates scaled by 1e200: every squared norm it enters is inf
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "60"])
    t, kp = pio.parse_keypoint_file(corpus / "act02.csv")
    kp[:, :, :2] *= 1e200
    pio.write_keypoint_file(corpus / "act02.csv", t, kp)
    capsys.readouterr()
    code = cli.main(["rank", str(corpus / "manifest.txt"), "--length", "50",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"computation error: {corpus / 'act02.csv'}: coordinates overflow in preprocessing\n")
    assert not (tmp_path / "out").exists()


def test_cli_validate_fails_coordinates_near_1e200_as_rank_does(tmp_path, capsys):
    # finite coordinates whose squares overflow: preprocessing rejects them,
    # so validate fails the file as rank does
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--activities", "3", "--length", "60"])
    t, kp = pio.parse_keypoint_file(corpus / "act02.csv")
    kp[:, :, :2] *= 1e200
    pio.write_keypoint_file(corpus / "act02.csv", t, kp)
    for argv in [
        ["validate", str(corpus / "act02.csv")],
        ["rank", str(corpus / "manifest.txt"), "--length", "50",
         "--out-dir", str(tmp_path / "out")],
    ]:
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"computation error: {corpus / 'act02.csv'}: coordinates overflow in preprocessing\n"
        )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rank", "validate"])
def test_cli_preprocessing_overflow_exits_2(tmp_path, capsys, command):
    # both hips' x at 1.5e308: their mean, the pelvis, overflows to inf
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--activities", "3", "--length", "60"])
    t, kp = pio.parse_keypoint_file(corpus / "act02.csv")
    kp[:, [11, 12], 0] = 1.5e308
    pio.write_keypoint_file(corpus / "act02.csv", t, kp)
    capsys.readouterr()
    if command == "rank":
        argv = ["rank", str(corpus / "manifest.txt"), "--length", "50",
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["validate", str(corpus / "act02.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err == (
        f"computation error: {corpus / 'act02.csv'}: coordinates overflow in preprocessing\n"
    )
    assert not caught  # numpy's overflow warnings would add lines to stderr
    assert not (tmp_path / "out").exists()


# --- ranking tables as untrusted input ------------------------------------------------

_ODD_LABELS = ["RW+LW", " LW ", "lw", "LW+", "+LW", "LW+LW", "ZZ", "", "LW RW", "HD"]
_STRAY = [",", "#", "x", "nan", "inf", "1e400", "+", " ", "\t", "\x00", "\ufeff", "\u00e9", "-"]


@st.composite
def _mutated_tables(draw):
    """A valid ranking table, then a few of the faults an external table
    may carry; returns the table's bytes."""
    subsets = enumerate_subsets(SITE_ORDER[:4])
    labels = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6, unique=True))
    scored = draw(st.booleans())
    scores = sorted(draw(st.lists(st.floats(0, 10), min_size=len(labels),
                                  max_size=len(labels))), reverse=True)
    rows = [f"{r},{sc!r},{l}" if scored else f"{r},{l}"
            for r, (sc, l) in enumerate(zip(scores, labels), 1)]
    lines = ["rank,score,sites" if scored else "rank,sites"] + rows
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        how = draw(st.sampled_from(["fields", "label", "rank", "stray", "reorder", "bom"]))
        if how == "fields":  # a 2-field row among 3-field ones, or the reverse
            lines[k] = ",".join(fields[:1] + fields[2:] if len(fields) == 3
                                else fields[:1] + ["0.5"] + fields[1:])
        elif how == "label":
            lines[k] = ",".join(fields[:-1] + [draw(st.sampled_from(_ODD_LABELS))])
        elif how == "rank":
            rank = draw(st.sampled_from(["0", "-1", "2" * 20, "9" * 5000, " 1 "]))
            lines[k] = ",".join([rank] + fields[1:])
        elif how == "stray":
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(_STRAY)) + lines[k][at:]
        elif how == "reorder":
            lines = draw(st.permutations(lines))
        else:
            lines[0] = "\ufeff" + lines[0]
    data = ("\n".join(lines) + "\n").encode()
    truncate = draw(st.sampled_from([False, False, True]))
    return data[:draw(st.integers(0, len(data)))] if truncate else data


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80)
@given(_mutated_tables())
def test_any_ranking_table_exits_0_or_1_with_one_error_line(tmp_path_factory, data):
    table = tmp_path_factory.mktemp("table") / "table.csv"
    table.write_bytes(data)
    for argv in (["report", str(table)], ["compare", str(table), str(table), "--scope", "all"]):
        code, out, err = _run_cli(argv)
        assert code in (0, 1), (argv, code, err)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
        else:
            assert err == ""
            assert _run_cli(argv) == (0, out, "")


# --- config files as untrusted input ------------------------------------------------

_CONFIG_VALUES = {
    "roster": ["LW,RW,PE", "RF, LW", "LW,HD", "LW,ZZ", "LW,LW", "LW,,RW", "", "lw"],
    "series_length": ["40", "1", "abc", "4_0", "-3"],
    "sample_rate": ["10", "5", "0", "nan", "3"],
    "confidence_threshold": ["0.3", "2", "-0.1"],
    "max_gap": ["10", "-1", "0"],
    "subset_sizes": ["1,2", "0", "", "1,,2", "9", "1,"],
    "multi_window": ["yes", "off", "ture"],
    "allow_head": ["1", "no", "2"],
}
_CONFIG_STRAY = ["\f", "\x85", "\u2028", "\u00a0", "\x00", "=", "#", " ", "\t", "\ufeff", "key"]


@st.composite
def _mutated_configs(draw):
    """A config file of drawn settings, then a few of the faults a config
    file may carry; returns the file's bytes."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=4, unique=True))
    lines = [f"{key} = {draw(st.sampled_from(_CONFIG_VALUES[key]))}" for key in keys]
    lines.insert(0, "# lab settings")
    end = "\n"
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["stray", "repeat", "odd", "bom", "crlf", "cr"]))
        if how == "stray":
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(_CONFIG_STRAY)) + lines[k][at:]
        elif how == "repeat":
            lines.append(lines[k])
        elif how == "odd":
            lines.insert(k, draw(st.sampled_from(["= 3", "roster", "[run]", "seed = 1", "x = y = z"])))
        elif how == "bom":
            lines[0] = "\ufeff" + lines[0]
        else:
            end = "\r\n" if how == "crlf" else "\r"
    data = (end.join(lines) + end).encode()
    truncate = draw(st.sampled_from([False, False, True]))
    return data[:draw(st.integers(0, len(data)))] if truncate else data


@pytest.fixture(scope="module")
def _keypoint_file(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("config-corpus")
    cli.main(["synth", str(corpus), "--activities", "2", "--length", "60"])
    return corpus / "act01.csv"


@settings(max_examples=60, deadline=None)
@given(_mutated_configs())
def test_any_config_file_exits_0_or_1_with_one_error_line(tmp_path_factory, _keypoint_file, data):
    cfg = tmp_path_factory.mktemp("config") / "run.cfg"
    cfg.write_bytes(data)
    argv = ["validate", str(_keypoint_file), "--config", str(cfg)]
    code, out, err = _run_cli(argv)
    assert code in (0, 1), (code, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    assert _run_cli(argv) == (code, out, err)


# --- manifests and keypoint files as untrusted input ---------------------------------

_HUGE_TIMES = ["1e308", "-1e308", "1e20", "-5", "9" * 400, "-0"]
_HUGE_COORDINATES = ["1e154", "1.5e154", "-3e154", "1e308", "1.7976931348623157e308", "-1.5e308"]
_CORPUS_STRAY = ["\u00a0", "\f", "\x85", "\u2028"]


@pytest.fixture(scope="module")
def _corpus_texts(tmp_path_factory):
    """The files of a 3-activity CSV corpus, by name, plus the labeled
    form of each keypoint file (``act01.txt``, ...): the same seed and
    values."""
    root = tmp_path_factory.mktemp("corpus-texts")
    for style in ("csv", "labeled"):
        cli.main(["synth", str(root / style), "--length", "60", "--noise", "0.01",
                  "--style", style])
    texts = {p.name: p.read_text() for p in (root / "csv").iterdir()}
    texts.update((p.name, p.read_text()) for p in (root / "labeled").glob("*.txt")
                 if p.name != "manifest.txt")
    return texts


@st.composite
def _mutated_corpora(draw, texts):
    """The corpus files after one to three of the faults a manifest or an
    exported keypoint file, CSV or labeled, may carry."""
    files = dict(texts)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        text = files[name]
        numeric = ["time", "coordinate"] if name.endswith(".csv") else []
        how = draw(st.sampled_from(["truncate", "bom", "crlf", "cr", "stray", "mixed", *numeric]))
        if how == "truncate":
            files[name] = text[:draw(st.integers(0, len(text)))]
        elif how == "bom":
            files[name] = "\ufeff" + text
        elif how in ("crlf", "cr"):
            files[name] = text.replace("\n", "\r\n" if how == "crlf" else "\r")
        elif how == "stray":
            at = draw(st.integers(0, len(text)))
            files[name] = text[:at] + draw(st.sampled_from(_CORPUS_STRAY)) + text[at:]
        elif name == "manifest.txt":  # one activity read from its labeled file
            k = draw(st.integers(1, 3))
            files[name] = text.replace(f"act0{k}.csv", f"act0{k}.txt")
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            if how == "mixed":  # one line in the other format
                other = name[:-3] + ("txt" if name.endswith(".csv") else "csv")
                lines[k] = texts[other].split("\n")[k]
            else:
                cells = lines[k].split(",")
                j = 0 if how == "time" else draw(st.integers(1, 51))
                values = _HUGE_TIMES if how == "time" else _HUGE_COORDINATES
                cells[j:j + 1] = [draw(st.sampled_from(values))]
                lines[k] = ",".join(cells)
            files[name] = "\n".join(lines)
    return files


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_corpus_exits_0_1_or_2_with_one_message_line(tmp_path_factory, _corpus_texts, data):
    files = data.draw(_mutated_corpora(_corpus_texts))
    corpus = tmp_path_factory.mktemp("mutated")
    for name, text in files.items():
        (corpus / name).write_bytes(text.encode())
    out = corpus / "out"
    for argv in (["validate", *(str(corpus / f"act0{k}.{ext}") for ext in ("csv", "txt")
                                for k in (1, 2, 3))],
                 ["rank", str(corpus / "manifest.txt"), "--length", "50", "--out-dir", str(out)]):
        runs = []
        for _ in range(2):
            code, stdout, err = _run_cli(argv)
            written = [p.read_bytes() for p in sorted(out.glob("*"))]
            runs.append((code, stdout, err, written))
        code, stdout, err, _ = runs[0]
        assert code in (0, 1, 2), (argv, code, err)
        if argv[0] == "validate":
            # each file gets its ok line or one error line naming it, in order,
            # and the exit code is the worst one
            failed = [path for path in argv[1:] if f"\n{path}: ok" not in "\n" + stdout]
            lines = err.splitlines()
            assert len(lines) == len(failed), err
            for path, line in zip(failed, lines):
                assert line.startswith(("error: ", "computation error: ")) and path in line, err
            assert code == max([0, *(2 if line.startswith("computation") else 1
                                     for line in lines)])
        elif code == 0:
            assert err == ""
        else:
            prefix = "computation error: " if code == 2 else "error: "
            assert err.startswith(prefix) and err.count("\n") == 1, err
        assert runs[1] == runs[0]


def test_a_first_timestamp_too_far_back_to_count_exits_1_naming_the_frame(tmp_path):
    # frame 1 lies more periods after a first timestamp of -1e308 than a
    # float counts; the hole is named, never sized
    manifest = _corpus(tmp_path, length=60)
    path = manifest.parent / "act01.csv"
    _, rest = path.read_text().split(",", 1)
    path.write_text("-1e308," + rest)
    for argv in (["validate", str(path)],
                 ["rank", str(manifest), "--length", "50", "--out-dir", str(tmp_path / "out")]):
        code, out, err = _run_cli(argv)
        assert (code, out) == (1, ""), (argv, err)
        assert err.count("\n") == 1
        assert "frame 1 (t=0.1) is too many periods from frame 0" in err, err


# --- settings flags as untrusted input ------------------------------------------------

# each settings flag's values: some a run takes, then odd ones
_FLAG_VALUES = {
    "--roster": (["LW,RW,PE,LF", "RF, LW, PE, RW", ",".join(s for s in SITE_ORDER if s != "HD")],
                 ["LW,HD", "LW,ZZ", "LW,LW", "LW,,RW", "", ",", "lw", "-LW", "LW+RW", "LW\u00a0"]),
    "--sizes": (["1,2", "1", "3,1,"],
                ["0", "", "1,,2", "9", "-1", "1.5", "2_0", "1e3", "\u0663", "9" * 5000]),
    "--length": (["20", "2", "60"], ["61", "1", "0", "-3", "abc", "5_0", "1e2", "9" * 5000]),
    "--rate": (["10", "5", "2.5"], ["3", "0", "-1", "nan", "inf", "-inf", "1e-320", "1e308",
                                    "1_0", "0x10"]),
    "--threshold": (["0.3", "0", "1", "-0", "1e-400"], ["2", "-0.1", "nan", "0,3"]),
    "--max-gap": (["10", "0", "9" * 30], ["-1", "x", "1.0"]),
}


@st.composite
def _odd_flags(draw):
    """Settings flags with drawn values, each given at most once."""
    flags = draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), min_size=1, max_size=3,
                          unique=True))
    return [(flag, draw(st.one_of(*map(st.sampled_from, _FLAG_VALUES[flag]))))
            for flag in flags]


@pytest.fixture(scope="module")
def _flag_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("flag-corpus")
    cli.main(["synth", str(corpus), "--length", "60", "--noise", "0.01"])
    return corpus


@settings(max_examples=60, deadline=None)
@given(_odd_flags())
def test_any_settings_flag_value_exits_0_1_or_2_with_one_message_line(
        tmp_path_factory, _flag_corpus, flags):
    out = tmp_path_factory.mktemp("flags")
    given_flags = [part for flag, value in flags for part in (flag, value)]
    for argv in (["validate", str(_flag_corpus / "act01.csv"), "--length", "20", *given_flags],
                 ["rank", str(_flag_corpus / "manifest.txt"), "--out-dir", str(out),
                  "--length", "20", *given_flags]):
        runs = []
        for _ in range(2):
            code, stdout, err = _run_cli(argv)
            runs.append((code, stdout, err, [p.read_bytes() for p in sorted(out.glob("*"))]))
        code, _, err, _ = runs[0]
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        elif code == 2:
            assert err.startswith("computation error: ") and err.count("\n") == 1, err
        else:
            last = err.splitlines()[-1]
            assert last.startswith("error: ") or any(
                f"argument {flag}:" in last for flag, _ in flags), (argv, err)
        assert runs[1] == runs[0]


def test_cli_compare_top_k_beyond_the_table_exits_1(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("1,LW\n2,RW\n3,PE\n")
    assert cli.main(["compare", str(a), str(a), "--scope", "top", "--top-k", "4"]) == 1
    assert _one_error_line(capsys) == "error: top_k 4 exceeds the 3 rows of the ranking\n"


def test_cli_computation_errors_exit_2(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise ComputationError("numeric failure")

    monkeypatch.setattr(runner, "run_rank", boom)
    manifest = tmp_path / "m.txt"
    manifest.write_text("a a.csv\nb b.csv\n")
    assert cli.main(["rank", str(manifest)]) == 2


def test_cli_report_to_file(tmp_path):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    out = tmp_path / "out"
    cli.main(["rank", str(corpus / "manifest.txt"), "--out-dir", str(out)])
    target = tmp_path / "summary.txt"
    assert cli.main(["report", str(out / "ranking.csv"), "--out", str(target)]) == 0
    text = target.read_text()
    assert "left wrist" in text and "1." in text


def test_exported_corpus_recovers_generated_geometry(tmp_path):
    # parse -> merge -> centralize must undo the synthetic drift exactly
    # enough that the discriminative structure survives
    manifest = _corpus(tmp_path, n=2, length=520)
    (labels, _), _ = runner.run_rank(manifest, _config(subset_sizes=(1, 2)))
    assert labels[0] == "LW"
    assert set(labels[1:3]) <= {"LW+RW", "LW+PE", "LW+LF", "LW+RF"}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _hole_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "500"])
    path = corpus / "act01.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:100] + lines[300:]) + "\n")  # lines 101-300: a 20 s hole
    return corpus


def test_cli_timestamp_hole_exits_1(tmp_path, capsys):
    corpus = _hole_corpus(tmp_path)
    capsys.readouterr()
    code = cli.main(["rank", str(corpus / "manifest.txt"), "--length", "300",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert (f"act01: {corpus / 'act01.csv'}: site LW: gap of 200 frames at [100, 300)"
            in _one_error_line(capsys))


def test_cli_validate_rejects_timestamp_hole_as_rank_does(tmp_path, capsys):
    path = _hole_corpus(tmp_path) / "act01.csv"
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 1
    assert f"{path}: site LW: gap of 200 frames at [100, 300)" in _one_error_line(capsys)
    # validate reads the same settings as rank
    assert cli.main(["validate", str(path), "--max-gap", "200"]) == 0
    assert capsys.readouterr().out == f"{path}: ok, 300 frames\n"


def test_cli_rank_computation_error_names_its_file(tmp_path, capsys):
    # act02 lists two recordings, and only act02.csv overflows
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--activities", "3", "--length", "60"])
    (corpus / "act02b.csv").write_bytes((corpus / "act02.csv").read_bytes())
    t, kp = pio.parse_keypoint_file(corpus / "act02.csv")
    kp[:, [11, 12], 0] = 1.5e308
    pio.write_keypoint_file(corpus / "act02.csv", t, kp)
    manifest = corpus / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("act02 act02.csv",
                                                     "act02 act02b.csv act02.csv"))
    capsys.readouterr()
    assert cli.main(["rank", str(manifest), "--length", "50",
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"computation error: {corpus / 'act02.csv'}: coordinates overflow in preprocessing\n"
    )


def test_cli_validate_reports_every_file_and_exits_with_the_worst_code(tmp_path, capsys):
    manifest = _corpus(tmp_path, n=4, length=60)
    corpus = manifest.parent
    _broken(corpus, ["act02.csv"], ["act03.csv"])
    paths = [str(corpus / f"act0{k}.csv") for k in (1, 2, 3, 4)]
    capsys.readouterr()
    assert cli.main(["validate", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{paths[0]}: ok, 60 frames\n{paths[3]}: ok, 60 frames\n"
    data_line, computation_line = captured.err.splitlines(keepends=True)
    assert data_line.startswith(f"error: {paths[1]}:5: ")
    assert computation_line == (f"computation error: {paths[2]}: "
                                "coordinates overflow in preprocessing\n")
    # a data error alone exits 1, and the files after it are still checked
    assert cli.main(["validate", paths[1], paths[0]]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{paths[0]}: ok, 60 frames\n"
    assert captured.err == data_line


def _squeezed_corpus(tmp_path):
    # frames 101-300 of act01 (a 500-frame 10 Hz file) come 0.05 s apart
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "500"])
    path = corpus / "act01.csv"
    t, kp = pio.parse_keypoint_file(path)
    t = np.concatenate([10.0 + 0.05 * np.arange(1, 200), 20.0 + 0.1 * np.arange(200)])
    pio.write_keypoint_file(path, np.concatenate([np.arange(101) / 10.0, t]), kp)
    return corpus


def test_cli_validate_rejects_spacing_of_half_a_period(tmp_path, capsys):
    path = _squeezed_corpus(tmp_path) / "act01.csv"
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 1
    err = _one_error_line(capsys)
    assert err.startswith(f"error: {path}: frame 101 (t=10.05) is 0.5 periods after frame 100")


def test_cli_rank_rejects_spacing_of_half_a_period(tmp_path, capsys):
    corpus = _squeezed_corpus(tmp_path)
    capsys.readouterr()
    code = cli.main(["rank", str(corpus / "manifest.txt"), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert _one_error_line(capsys).startswith(
        f"error: act01: {corpus / 'act01.csv'}: frame 101 (t=10.05)")


def test_cli_rank_reads_every_recording(tmp_path, capsys):
    # act01's first recording holds a window, yet its second is still read
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    (corpus / "bad.csv").write_text("garbage\n")
    manifest = corpus / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0] + " bad.csv"] + lines[1:]) + "\n")
    capsys.readouterr()
    code = cli.main(["rank", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"error: act01: {corpus / 'bad.csv'}:1: expected 52 fields" in _one_error_line(capsys)


def test_cli_subsample_is_no_setting(tmp_path, capsys):
    # windows are cut one way only: the key and the flag are unknown
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subsample = first\n")
    assert cli.main(["rank", str(tmp_path / "manifest.txt"), "--config", str(cfg)]) == 1
    assert _one_error_line(capsys) == f"error: {cfg}:1: unknown key 'subsample'\n"
    code, out, err = _run_cli(["rank", str(tmp_path / "manifest.txt"), "--subsample", "first"])
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "sensorplace: error: unrecognized arguments: --subsample first"]


def test_cli_file_listed_under_two_activities_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    manifest = corpus / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("act03 act03.csv", "act03 act02.csv"))
    capsys.readouterr()
    assert cli.main(["rank", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{manifest}:3: {corpus / 'act02.csv'} is already listed on line 2" in _one_error_line(capsys)


def test_cli_symlink_loop_in_a_manifest_is_one_error_line(tmp_path):
    # a file that links to itself cannot be read: one error line naming its
    # activity, no traceback; listed twice, it is a file listed twice
    cli.main(["synth", str(tmp_path / "d"), "--activities", "3", "--length", "60"])
    (tmp_path / "loop.csv").symlink_to("loop.csv")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("act01 d/act01.csv\nact02 loop.csv\n")
    proc = subprocess.run([sys.executable, "-m", "sensorplace.cli", "rank", str(manifest),
                           "--length", "50", "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_process_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: act02: cannot read keypoint file {tmp_path / 'loop.csv'}")
    manifest.write_text("act01 d/act01.csv\nact02 loop.csv\nact03 loop.csv\n")
    code, _, err = _run_cli(["rank", str(manifest), "--length", "50"])
    assert (code, err) == (1, f"error: {manifest}:3: {tmp_path / 'loop.csv'} "
                              "is already listed on line 2\n")


@pytest.mark.parametrize("command", ["rank", "validate"])
@pytest.mark.parametrize("flags, message", [
    (["--roster", "LW,RW,PE,ZZ"], "argument --roster: unknown site id 'ZZ'"),
    (["--roster", "LW,HD", "--sizes", "1"], "the head site is excluded from placement"),
    (["--roster", "LW,ZZ"], "argument --roster: unknown site id 'ZZ'"),
    (["--sizes", "0"], "argument --sizes: subset sizes must be at least 1, got (0,)"),
    (["--length", "1"], "argument --length: series length must be at least 2"),
    (["--threshold", "2"], "argument --threshold: confidence threshold must be within [0, 1]"),
    (["--max-gap", "-1"], "argument --max-gap: max gap must be >= 0"),
], ids=["unknown-site", "head", "unknown-site-in-short-roster", "sizes-0", "length-1",
        "threshold-2", "max-gap-negative"])
def test_cli_roster_is_checked_before_any_file_is_read(tmp_path, capsys, command, flags, message):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    target = corpus / ("manifest.txt" if command == "rank" else "act01.csv")
    capsys.readouterr()
    assert cli.main([command, str(target), *flags]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("roster", ["LW,RW", "LW"])
def test_cli_validate_takes_a_roster_shorter_than_the_subset_sizes(tmp_path, capsys, roster):
    # only rank enumerates subsets, so only rank holds the sizes to the roster
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    capsys.readouterr()
    assert cli.main(["validate", str(corpus / "act01.csv"), "--roster", roster]) == 0
    assert capsys.readouterr() == (f"{corpus / 'act01.csv'}: ok, 520 frames\n", "")


def test_run_rank_checks_the_sizes_against_the_roster_before_the_manifest(tmp_path):
    config = RunConfig(roster=("LW", "RW"))
    assert config.subset_sizes == (1, 2, 3, 4)
    with pytest.raises(ConfigError) as excinfo:
        runner.run_rank(tmp_path / "missing.txt", config)
    assert str(excinfo.value) == "subset sizes (1, 2, 3, 4) out of range for a roster of 2"


@pytest.mark.parametrize("argv, message", [
    (["rank", "{corpus}/manifest.txt", "--rate", "nan"], "sample rate must be positive and finite"),
    (["validate", "{corpus}/act01.csv", "--rate", "nan"], "sample rate must be positive and finite"),
    (["rank", "{corpus}/manifest.txt", "--config", "{corpus}/nan.cfg"],
     "sample rate must be positive and finite"),
    (["validate", "{corpus}/act01.csv", "--rate", "1e-320"],
     "{corpus}/act01.csv: input rate 10 Hz over the target rate 9.99989e-321 Hz "
     "is not a finite ratio"),
    (["synth", "{corpus}/s", "--activities", "1"], "need at least two activities"),
    (["synth", "{corpus}/s", "--discriminative", "ZZ"], "discriminative sites ['ZZ'] not in roster"),
    (["synth", "{corpus}/s", "--length", "0"], "length must be at least 1"),
    (["synth", "{corpus}/s", "--rate", "0"], "sample rate must be positive and finite"),
    (["synth", "{corpus}/s", "--noise", "-1"], "noise_sigma must be >= 0"),
    (["synth", "{corpus}/s", "--rate", "nan"], "sample rate must be positive and finite"),
    (["synth", "{corpus}/s", "--rate", "inf"], "sample rate must be positive and finite"),
    (["synth", "{corpus}/s", "--rate", "0.5", "--length", "20"],
     "sample rate must be at least 1 Hz, got 0.5 Hz"),
    (["synth", "{corpus}/s", "--noise", "nan"], "noise_sigma must be finite"),
    # 2*pi times the top frequency, about rate / 2, overflows; with 13
    # activities the frequency spread itself does
    (["synth", "{corpus}/s", "--activities", "2", "--length", "5", "--rate", "6e307"],
     "sample rate 6e+307 Hz is too high: the motion angles overflow"),
    (["synth", "{corpus}/s", "--activities", "13", "--length", "5", "--rate", "5e307"],
     "sample rate 5e+307 Hz is too high: the motion angles overflow"),
    # a finite noise whose normal draws pass float max
    (["synth", "{corpus}/s", "--noise", "1e308", "--length", "5"],
     "noise_sigma 1e+308 is too large"),
    (["synth", "{corpus}/s", "--noise", "5e307"], "noise_sigma 5e+307 is too large"),
], ids=["rank-rate-nan", "validate-rate-nan", "config-rate-nan", "validate-rate-tiny",
        "synth-one-activity", "synth-unknown-site", "synth-length-0", "synth-rate-0",
        "synth-negative-noise", "synth-rate-nan", "synth-rate-inf", "synth-rate-below-1",
        "synth-noise-nan", "synth-rate-6e307", "synth-13-activities-rate-5e307",
        "synth-noise-1e308", "synth-noise-5e307"])
def test_cli_bad_rate_and_synth_arguments_exit_1(tmp_path, argv, message):
    # run as a process, whose stderr would also hold any numpy warning
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    (corpus / "nan.cfg").write_text("sample_rate = nan\n")
    proc = subprocess.run([sys.executable, "-m", "sensorplace.cli",
                           *(arg.format(corpus=corpus) for arg in argv)],
                          capture_output=True, text=True, env=_process_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message.format(corpus=corpus) in proc.stderr


def test_cli_synth_at_1_hz_succeeds(tmp_path):
    # 1 Hz is the lowest rate whose frequencies, 0 .. nyquist - 0.5, are all >= 0
    assert cli.main(["synth", str(tmp_path / "s"), "--rate", "1", "--length", "20"]) == 0
    assert len((tmp_path / "s" / "act01.csv").read_text().splitlines()) == 20


def test_cli_rank_rate_with_no_finite_ratio_names_every_activity(tmp_path, capsys):
    # rank reports every failed activity on one error line
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    capsys.readouterr()
    assert cli.main(["rank", str(corpus / "manifest.txt"), "--rate", "1e-320",
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert _one_error_line(capsys) == "error: " + "; ".join(
        f"act0{k}: {corpus / f'act0{k}.csv'}: input rate 10 Hz over the target rate "
        "9.99989e-321 Hz is not a finite ratio"
        for k in (1, 2, 3)
    ) + "\n"


def test_cli_single_dropped_frame_is_repaired(tmp_path):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "500"])
    path = corpus / "act01.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:250] + lines[251:]) + "\n")
    (labels, _), _ = runner.run_rank(corpus / "manifest.txt", _config())
    assert labels[0] == "LW"


@pytest.mark.parametrize("command", ["validate", "rank", "report", "config"])
def test_cli_non_utf8_input_exits_1(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + b"1,2,3\n")
    argv = {
        "validate": ["validate", str(bad)],
        "rank": ["rank", str(bad)],
        "report": ["report", str(bad)],
        "config": ["rank", str(bad), "--config", str(bad)],
    }[command]
    assert cli.main(argv) == 1
    assert "codec can't decode" in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["rank", "m.txt", "--length", "abc"],
    ["rank", "m.txt", "--no-such-flag"],
], ids=["bad-int", "unknown-flag"])
def test_cli_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: sensorplace")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("sensorplace") and argv[-1] in lines[-1]


@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["rank", "-h"]])
def test_cli_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["rank", "validate"])
def test_cli_help_states_each_settings_default(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    # one entry per option, its wrapped lines joined
    entries = {}
    for line in capsys.readouterr().out.split("\n  -")[1:]:
        flag, _, text = line.partition(" ")
        entries["-" + flag.split(",")[0]] = " ".join(text.split())
    defaults = RunConfig()
    for setting in SETTINGS:
        shown = sites.shown(getattr(defaults, setting.key))
        assert entries[setting.flag].endswith(f"(default {shown})"), setting.flag


def test_cli_synth_without_flags_writes_a_corpus_rank_takes_at_defaults(tmp_path, capsys):
    assert cli.main(["synth", str(tmp_path / "corpus")]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 3 activities to {tmp_path / 'corpus'}\n")
    assert cli.main(["rank", str(tmp_path / "corpus" / "manifest.txt"),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("ranked 30 subsets over 3 activities\n")


def test_every_public_name_resolves_and_is_listed():
    listed = dir(sensorplace)
    for name in sensorplace.__all__:
        assert getattr(sensorplace, name) is not None
        assert name in listed


def test_readme_library_use_prints_what_its_comments_say():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected and out.getvalue().splitlines() == expected


def test_readme_library_table_names_only_steps_that_resolve():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Library use", 1)[1].split("| Step |", 1)[1].split("\n\n", 1)[0]
    steps = [name for row in table.splitlines() if row.startswith("| `")
             for name in re.findall(r"`([\w.]+)`", row.split("|")[1])]
    assert "preprocess_recording" in steps
    for name in steps:
        module, _, attr = name.rpartition(".")
        assert hasattr(importlib.import_module(module or "sensorplace"), attr), name


# Runs cli.main in a fresh interpreter and prints its exit code and which
# of the modules a command may not need it loaded ("-" for none), then, on
# a line of their own, every package module it loaded.
_NUMPY_PROBE = """
import sys
from sensorplace import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = ("numpy", "numpy.ma", "dataclasses", "inspect", "hashlib", "fractions",
         "multiprocessing", "concurrent")
ran = [name for name in ("config", "run", "synth", "rankcorr")
       if f"sensorplace.{name}" in sys.modules]
print(code, " ".join(name for name in heavy if name in sys.modules) or "-", " ".join(ran) or "-")
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "sensorplace"))
"""


@pytest.mark.parametrize("argv, outcome", [
    (["compare", "{t}", "{t}", "--scope", "all"], "0 - rankcorr"),
    (["compare", "{t}", "{t}", "--scope", "per-size", "--out-dir", "{tmp}/tau"], "0 - rankcorr"),
    (["compare", "{t}", "{t}", "--scope", "top", "--top-k", "2"], "0 - rankcorr"),
    (["report", "{t}"], "0 - -"),
    (["report", "{t}", "--out", "{tmp}/report.txt"], "0 - -"),
    (["--version"], "0 - -"),
    (["--help"], "0 - -"),
    (["rank", "--help"], "0 - -"),
    (["synth", "--help"], "0 - -"),
    (["rank", "{corpus}/manifest.txt", "--length", "abc"], "1 - -"),
    (["rank", "{corpus}/manifest.txt", "--length", "1"], "1 - -"),
    (["rank", "{corpus}/manifest.txt", "--config", "{tmp}/short.cfg"],
     "1 dataclasses inspect hashlib config"),
    (["rank", "{corpus}/manifest.txt", "--length", "50", "--out-dir", "{tmp}/out"],
     "0 numpy dataclasses inspect hashlib config run"),
    (["validate", "{corpus}/act01.csv"], "0 numpy dataclasses inspect hashlib config run"),
    (["synth", "{tmp}/other", "--length", "60"], "0 numpy dataclasses inspect hashlib synth"),
], ids=["compare-all", "compare-per-size", "compare-top", "report", "report-out",
        "version", "help", "rank-help", "synth-help", "usage-error", "bad-flag-value",
        "bad-config-value", "rank", "validate", "synth"])
def test_only_commands_that_compute_on_arrays_load_numpy(tmp_path, argv, outcome):
    assert _probe_modules(tmp_path, argv)[0] == outcome


def _probe_modules(tmp_path, argv):
    """The two lines ``_NUMPY_PROBE`` prints for ``argv`` run on a small
    ranking table and corpus."""
    table = tmp_path / "ranking.csv"
    table.write_text("rank,score,sites\n1,0.5,LW\n2,0.25,RW\n3,0.125,LW+RW\n")
    (tmp_path / "short.cfg").write_text("series_length = 1\n")
    cli.main(["synth", str(tmp_path / "corpus"), "--length", "60"])
    argv = [a.format(t=table, tmp=tmp_path, corpus=tmp_path / "corpus") for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()[-2:]


_TEXT_MODULES = ["sensorplace", "sensorplace.cli", "sensorplace.errors", "sensorplace.sites",
                 "sensorplace.textio"]


@pytest.mark.parametrize("argv, modules", [
    (["compare", "{t}", "{t}", "--scope", "all"], [*_TEXT_MODULES, "sensorplace.rankcorr"]),
    (["compare", "{t}", "{t}", "--scope", "per-size", "--out-dir", "{tmp}/tau"],
     [*_TEXT_MODULES, "sensorplace.rankcorr"]),
    (["compare", "{t}", "{t}", "--scope", "top", "--top-k", "2"],
     [*_TEXT_MODULES, "sensorplace.rankcorr"]),
    (["report", "{t}"], _TEXT_MODULES),
    (["report", "{t}", "--out", "{tmp}/report.txt"], _TEXT_MODULES),
], ids=["compare-all", "compare-per-size", "compare-top", "report", "report-out"])
def test_text_commands_load_exactly_their_modules(tmp_path, argv, modules):
    # the modules README's table names for compare and report, and no other
    assert _probe_modules(tmp_path, argv)[1].split() == sorted(modules)


_ARRAY_MODULES = ["sensorplace", "sensorplace.cli", "sensorplace.errors", "sensorplace.sites",
                  "sensorplace.textio", "sensorplace.io", "sensorplace.skeleton"]


@pytest.mark.parametrize("argv, modules", [
    (["validate", "{corpus}/act01.csv"],
     [*_ARRAY_MODULES, "sensorplace.run", "sensorplace.config", "sensorplace.scoring"]),
    (["rank", "{corpus}/manifest.txt", "--length", "50", "--out-dir", "{tmp}/out"],
     [*_ARRAY_MODULES, "sensorplace.run", "sensorplace.config", "sensorplace.scoring"]),
    (["synth", "{tmp}/other", "--length", "60"], [*_ARRAY_MODULES, "sensorplace.synth"]),
], ids=["validate", "rank", "synth"])
def test_array_commands_load_exactly_their_modules(tmp_path, argv, modules):
    # the modules README's table names for validate, rank and synth, and no
    # other: synth loads neither the run configuration nor the scoring code
    assert _probe_modules(tmp_path, argv)[1].split() == sorted(modules)


def test_importing_cli_loads_no_command_module():
    probe = ("import sys\nimport sensorplace.cli\nprint(*(m for m in ('run', 'config', 'textio', "
             "'synth') if f'sensorplace.{m}' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


@pytest.mark.parametrize("argv", [["report", "{t}"], ["report", "{t}", "--out", "{tmp}/out.txt"]],
                         ids=["report", "report-out"])
def test_report_loads_neither_json_nor_rankcorr(tmp_path, argv):
    # report reads a table and writes text; json and rankcorr serve rank and compare
    table = tmp_path / "ranking.csv"
    table.write_text("rank,score,sites\n1,0.5,LW\n2,0.25,RW\n")
    argv = [a.format(t=table, tmp=tmp_path) for a in argv]
    probe = ("import sys\nfrom sensorplace import cli\ncode = cli.main(sys.argv[1:])\n"
             "print(code, *(m for m in ('json', 'sensorplace.rankcorr') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0"


# --- the process entry --------------------------------------------------------------

def _process_env():
    # standard output block-buffered, as it is by default, so that the
    # entry's final flush is what writes a short output
    env = dict(os.environ, PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _full_table(path):
    # every subset of the 12 sites: a report larger than the stdout buffer
    rows = (f"{rank},{(4096 - rank) / 4096!r},{label}"
            for rank, label in enumerate(sites.subset_labels(), 1))
    path.write_text("\n".join(["rank,score,sites", *rows]) + "\n")
    return path


@pytest.fixture(scope="module")
def _entry_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("entry")
    synth.run_synth(tmp / "corpus", length=60)
    huge = synth.run_synth(tmp / "huge", n_activities=3, length=60).parent
    t, kp = pio.parse_keypoint_file(huge / "act02.csv")
    kp[:, [11, 12], 0] = 1.5e308  # the pelvis, their mean, overflows
    pio.write_keypoint_file(huge / "act02.csv", t, kp)
    (tmp / "small.csv").write_text("rank,score,sites\n1,0.5,LW\n2,0.25,RW\n3,0.125,LW+RW\n")
    _full_table(tmp / "full.csv")
    return tmp


@pytest.mark.parametrize("argv", [
    ["compare", "{tmp}/small.csv", "{tmp}/small.csv", "--scope", "per-size"],
    ["rank", "{tmp}/corpus/manifest.txt", "--length", "50", "--out-dir", "{tmp}/out"],
    ["report", "{tmp}/full.csv"],
    ["--version"],
    ["--help"],
    ["rank", "{tmp}/corpus/manifest.txt", "--length", "abc"],
    ["report", "{tmp}/missing.csv"],
    ["rank", "{tmp}/huge/manifest.txt", "--length", "50", "--out-dir", "{tmp}/out-huge"],
], ids=["compare", "rank", "report-4095", "version", "help", "usage-error", "data-error",
        "computation-error"])
def test_the_process_entry_writes_what_main_writes(_entry_inputs, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at one width in both runs
    argv = [a.format(tmp=_entry_inputs) for a in argv]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    stdout = _entry_inputs / "stdout.bin"
    with open(stdout, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "sensorplace.cli", *argv],
                              stdout=fh, stderr=subprocess.PIPE, env=_process_env())
    assert (proc.returncode, stdout.read_bytes(), proc.stderr) == (code, out.encode(), err.encode())
    assert code in (0, 1, 2) and (out or err)


_FORK_PROBE = """
import os, sys
fork, path = os.fork, sys.argv.pop(1)
def counted():
    with open(path, "a") as fh:
        fh.write(f"{len(os.listdir('/proc/self/task'))}\\n")
    return fork()
os.fork = counted
from sensorplace.cli import console_main
console_main()
"""


@pytest.mark.skipif(not (os.path.isdir("/proc/self/task") and hasattr(os, "sched_getaffinity")
                         and len(os.sched_getaffinity(0)) >= 2),
                    reason="rank forks only on Linux with two or more usable CPUs")
def test_the_process_entry_forks_a_single_threaded_process(tmp_path):
    # numpy's BLAS starts a thread pool as it loads unless held to one
    # thread; the entry holds it, so rank forks with no other thread running
    manifest = synth.run_synth(tmp_path / "corpus", n_activities=3, length=60)
    env = _process_env()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(name, None)
    threads = tmp_path / "threads.txt"
    proc = subprocess.run([sys.executable, "-c", _FORK_PROBE, str(threads), "rank", str(manifest),
                           "--length", "50", "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert threads.read_text() == "1\n"


@pytest.mark.parametrize("stderr_closed, unbuffered", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["stderr-open", "stderr-closed", "stderr-open-unbuffered", "stderr-closed-unbuffered"])
@pytest.mark.parametrize("command", ["rank", "report", "compare", "version", "help"])
def test_a_closed_standard_output_exits_1_with_one_error_line(tmp_path, command, stderr_closed,
                                                              unbuffered):
    table = _full_table(tmp_path / "full.csv")
    argv = {
        "rank": ["rank", str(synth.run_synth(tmp_path / "corpus", length=60)), "--length", "50",
                 "--out-dir", str(tmp_path / "out")],
        "report": ["report", str(table)],
        "compare": ["compare", str(table), str(table)],
        "version": ["--version"],
        "help": ["--help"],
    }[command]
    env = _process_env()
    if unbuffered:  # each write reaches the pipe at once, so the write itself fails
        env["PYTHONUNBUFFERED"] = "1"
    pipes = [os.pipe() for _ in range(2)]
    for read_end, _ in pipes:
        os.close(read_end)
    (_, stdout), (_, stderr) = pipes
    try:
        proc = subprocess.run([sys.executable, "-m", "sensorplace.cli", *argv], stdout=stdout,
                              stderr=stderr if stderr_closed else subprocess.PIPE, env=env)
    finally:
        for _, write_end in pipes:
            os.close(write_end)
    assert proc.returncode == 1
    if not stderr_closed:
        assert proc.stderr.decode() == (
            f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n")
    if command == "rank":  # the output files are written first
        assert (tmp_path / "out" / "ranking.csv").exists()


def test_a_failed_write_to_standard_output_returns_1(tmp_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    table = _full_table(tmp_path / "full.csv")
    monkeypatch.setattr(sys, "stdout", Full())
    assert cli.main(["report", str(table)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


def test_a_process_started_without_standard_output_exits_1_with_one_error_line(tmp_path):
    # ``sensorplace report table >&-``: Python then sets sys.stdout to None
    table = _full_table(tmp_path / "full.csv")
    proc = subprocess.run([sys.executable, "-m", "sensorplace.cli", "report", str(table)],
                          stderr=subprocess.PIPE, env=_process_env(),
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr.decode() == (
        f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n")
