"""End-to-end runs and the command-line surface."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sensorplace
from sensorplace import cli
from sensorplace import io as pio
from sensorplace import run as runner
from sensorplace import tablerun, textio
from sensorplace.config import _PARSERS, RunConfig
from sensorplace.errors import ComputationError, ManifestError
from sensorplace.rankcorr import compare_rankings
from sensorplace.scoring import enumerate_subsets, rank_placements


def _corpus(tmp_path, n=3, length=520, noise=0.0, seed=0, style="csv", **kwargs):
    manifest = runner.run_synth(
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


# --- run_rank ------------------------------------------------------------------

def test_rank_places_discriminative_singleton_first(tmp_path):
    manifest = _corpus(tmp_path)
    ranking, payload = runner.run_rank(manifest, _config(subset_sizes=(1,)))
    assert ranking.labels()[0] == "LW"
    assert payload["entries"][0]["sites"] == "LW"


def test_rank_all_sizes_yields_31_rows(tmp_path):
    manifest = _corpus(tmp_path, n=4)
    ranking, payload = runner.run_rank(manifest, _config())
    assert len(ranking.entries) == 31
    assert [e["rank"] for e in payload["entries"]] == list(range(1, 32))


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
    manifest = _corpus(tmp_path)
    out = tmp_path / "out"
    ranking, payload = runner.run_rank(manifest, _config(), out_dir=out)
    rows = textio.read_ranking_file(out / runner.RANKING_FILENAME)
    assert [r.label for r in rows] == ranking.labels()
    report = json.loads((out / runner.RANK_REPORT_FILENAME).read_text())
    assert report["fingerprint"] == payload["fingerprint"]
    assert report["n_activities"] == 3
    assert "timestamp" not in json.dumps(report).lower()


def test_rank_output_is_byte_identical_across_runs(tmp_path):
    manifest = _corpus(tmp_path)
    outs = []
    for k in range(3):
        out = tmp_path / f"out-{k}"
        runner.run_rank(manifest, _config(), out_dir=out)
        outs.append((out / runner.RANKING_FILENAME).read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_rank_round_trip_agrees_with_itself(tmp_path):
    manifest = _corpus(tmp_path)
    out = tmp_path / "out"
    runner.run_rank(manifest, _config(), out_dir=out)
    labels = [r.label for r in textio.read_ranking_file(out / runner.RANKING_FILENAME)]
    for scope in ("all", "per-size"):
        reports = compare_rankings(labels, list(labels), scope=scope)
        assert all(r.tau == 1.0 for r in reports.values())


def test_rank_multi_window_averages_over_full_windows(tmp_path):
    manifest = _corpus(tmp_path, length=1040)
    _, payload = runner.run_rank(manifest, _config(multi_window=True))
    assert payload["n_windows"] == 2
    assert payload["entries"][0]["sites"] == "LW"
    for diag in payload["activities"]:
        assert diag["windows"] == 2


def test_rank_multi_window_score_is_the_sequential_mean_of_window_scores(tmp_path):
    # heavy noise spreads the window scores, so any other summation order
    # changes the last bits of many subsets
    manifest = _corpus(tmp_path, n=4, length=520, noise=0.3)
    config = _config(series_length=50, multi_window=True)
    window_sets, _ = runner.load_window_sets(pio.parse_manifest(manifest), config)
    assert len(window_sets) == 10
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    per_window = [
        {e.subset: e.score for e in rank_placements(ws, subsets).entries} for ws in window_sets
    ]
    ranking, _ = runner.run_rank(manifest, config)
    assert len(ranking.entries) == len(subsets)
    for entry in ranking.entries:
        total = 0.0
        for scores in per_window:
            total += scores[entry.subset]
        assert entry.score == total / len(per_window)


def test_rank_single_window_is_the_ranking_of_its_window_set(tmp_path):
    manifest = _corpus(tmp_path, n=4, noise=0.3)
    config = _config(series_length=50)
    window_sets, _ = runner.load_window_sets(pio.parse_manifest(manifest), config)
    assert len(window_sets) == 1
    subsets = enumerate_subsets(config.roster, config.subset_sizes)
    ranking, _ = runner.run_rank(manifest, config)
    assert ranking == rank_placements(window_sets[0], subsets)


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
        return {e.subset: e.score for e in ranking.entries}

    per_window = [window_scores(w) for w in range(3)]
    ranking, payload = runner.run_rank(manifest, _config(series_length=L))
    assert {e.subset: e.score for e in ranking.entries} == per_window[0]
    assert [d["windows"] for d in payload["activities"]] == [3, 4, 5]
    ranking, payload = runner.run_rank(manifest, _config(series_length=L, multi_window=True))
    assert payload["n_windows"] == 3
    assert [d["windows"] for d in payload["activities"]] == [3, 4, 5]
    for entry in ranking.entries:
        total = 0.0
        for scores in per_window:
            total += scores[entry.subset]
        assert entry.score == total / 3


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


def test_rank_uniform_subsampling_mode(tmp_path):
    manifest = _corpus(tmp_path, length=1000)
    ranking, payload = runner.run_rank(manifest, _config(subsample="uniform"))
    assert ranking.entries[0].subset.label == "LW"
    assert payload["n_windows"] == 1


def test_rank_ingests_labeled_corpus(tmp_path):
    manifest = _corpus(tmp_path, style="labeled")
    ranking, _ = runner.run_rank(manifest, _config(subset_sizes=(1,)))
    assert ranking.labels()[0] == "LW"


def test_rank_without_drift_matches_direct_generation_ordering(tmp_path):
    # export -> parse -> preprocess must preserve which site wins
    manifest = _corpus(tmp_path, drift=False)
    ranking, _ = runner.run_rank(manifest, _config(subset_sizes=(1,)))
    assert ranking.labels()[0] == "LW"


# --- run_compare -----------------------------------------------------------------

def test_compare_identical_files_all_scopes(tmp_path):
    manifest = _corpus(tmp_path)
    out = tmp_path / "out"
    runner.run_rank(manifest, _config(), out_dir=out)
    table = out / runner.RANKING_FILENAME
    reports, payload = tablerun.run_compare(table, table, scope="per-size", out_dir=out)
    # size-5 holds a single subset, so there is no pair to correlate
    assert set(reports) == {"size-1", "size-2", "size-3", "size-4"}
    assert all(r.tau == 1.0 for r in reports.values())
    tau_lines = (out / tablerun.TAU_TABLE_FILENAME).read_text().splitlines()
    assert len(tau_lines) == 5
    saved = json.loads((out / tablerun.TAU_REPORT_FILENAME).read_text())
    assert saved["results"]["size-2"]["tau"] == 1.0


def test_compare_against_external_truth(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("rank,sites\n1,LW+PE\n2,RW+PE\n3,LW+RW\n")
    predicted = tmp_path / "predicted.csv"
    predicted.write_text("rank,score,sites\n1,0.9,LW+RW\n2,0.5,LW+PE\n3,0.1,RW+PE\n")
    reports, _ = tablerun.run_compare(truth, predicted, scope="per-size")
    assert reports["size-2"].tau == pytest.approx(-1 / 3, abs=1e-15)


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
    rows = textio.read_ranking_file(out / "ranking.csv")
    assert len(rows) == 5  # sizes filter came from the file
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["series_length"] == 500  # flag beat the file


def test_cli_rank_gives_identical_bytes_across_processes(tmp_path):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    outs = []
    for k, threads in enumerate(("1", "1", "2")):
        out = tmp_path / f"out-{k}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
        subprocess.run(
            [sys.executable, "-m", "sensorplace.cli", "rank", str(corpus / "manifest.txt"),
             "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        outs.append(((out / "ranking.csv").read_bytes(), (out / "report.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


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


def test_cli_compare_universe_mismatch_exits_1(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("1,LW\n2,RW\n")
    b = tmp_path / "b.csv"
    b.write_text("1,LW\n2,PE\n")
    assert cli.main(["compare", str(a), str(b), "--scope", "all"]) == 1
    assert "different subsets" in capsys.readouterr().err


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


def test_cli_compare_top_k_beyond_the_table_exits_1(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("1,LW\n2,RW\n3,PE\n")
    assert cli.main(["compare", str(a), str(a), "--scope", "top", "--top-k", "4"]) == 1
    assert _one_error_line(capsys) == "error: top_k 4 exceeds the 3 rows of the ranking\n"


def test_cli_computation_errors_exit_2(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise ComputationError("numeric failure")

    monkeypatch.setattr(runner, "run_rank", boom)
    monkeypatch.setattr(cli.runner, "run_rank", boom)
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
    ranking, _ = runner.run_rank(manifest, _config(subset_sizes=(1, 2)))
    labels = ranking.labels()
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
    assert "act01: site LW: gap of 200 frames at [100, 300)" in _one_error_line(capsys)


def test_cli_validate_rejects_timestamp_hole_as_rank_does(tmp_path, capsys):
    path = _hole_corpus(tmp_path) / "act01.csv"
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 1
    assert f"{path}: site LW: gap of 200 frames at [100, 300)" in _one_error_line(capsys)
    # validate reads the same settings as rank
    assert cli.main(["validate", str(path), "--max-gap", "200"]) == 0
    assert capsys.readouterr().out == f"{path}: ok, 300 frames\n"


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
    assert _one_error_line(capsys).startswith("error: act01: frame 101 (t=10.05)")


def test_cli_uniform_subsampling_reads_every_recording(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    (corpus / "bad.csv").write_text("garbage\n")
    manifest = corpus / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0] + " bad.csv"] + lines[1:]) + "\n")
    capsys.readouterr()
    for mode in ("first", "uniform"):
        code = cli.main(["rank", str(manifest), "--subsample", mode,
                         "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert f"error: act01: {corpus / 'bad.csv'}:1: expected 52 fields" in _one_error_line(capsys)


def test_cli_file_listed_under_two_activities_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    manifest = corpus / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("act03 act03.csv", "act03 act02.csv"))
    capsys.readouterr()
    assert cli.main(["rank", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{manifest}:3: {corpus / 'act02.csv'} is already listed on line 2" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["rank", "validate"])
@pytest.mark.parametrize("flags, message", [
    (["--roster", "LW,RW,PE,ZZ"], "unknown site id 'ZZ'"),
    (["--roster", "LW,HD", "--sizes", "1"], "the head site is excluded from placement"),
    (["--roster", "LW,ZZ"], "unknown site id 'ZZ'"),
], ids=["unknown-site", "head", "unknown-site-in-short-roster"])
def test_cli_roster_is_checked_before_any_file_is_read(tmp_path, capsys, command, flags, message):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    target = corpus / ("manifest.txt" if command == "rank" else "act01.csv")
    capsys.readouterr()
    assert cli.main([command, str(target), *flags]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


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
], ids=["rank-rate-nan", "validate-rate-nan", "config-rate-nan", "validate-rate-tiny",
        "synth-one-activity", "synth-unknown-site", "synth-length-0", "synth-rate-0",
        "synth-negative-noise", "synth-rate-nan", "synth-rate-inf", "synth-rate-below-1"])
def test_cli_bad_rate_and_synth_arguments_exit_1(tmp_path, capsys, argv, message):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "520"])
    (corpus / "nan.cfg").write_text("sample_rate = nan\n")
    capsys.readouterr()
    assert cli.main([arg.format(corpus=corpus) for arg in argv]) == 1
    assert message.format(corpus=corpus) in _one_error_line(capsys)


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
        f"act0{k}: input rate 10 Hz over the target rate 9.99989e-321 Hz "
        "is not a finite ratio"
        for k in (1, 2, 3)
    ) + "\n"


def test_cli_single_dropped_frame_is_repaired(tmp_path):
    corpus = tmp_path / "corpus"
    cli.main(["synth", str(corpus), "--length", "500"])
    path = corpus / "act01.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:250] + lines[251:]) + "\n")
    _, payload = runner.run_rank(corpus / "manifest.txt", _config())
    assert payload["entries"][0]["sites"] == "LW"


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


def test_every_public_name_resolves_and_is_listed():
    listed = dir(sensorplace)
    for name in sensorplace.__all__:
        assert getattr(sensorplace, name) is not None
        assert name in listed


# Runs cli.main in a fresh interpreter and prints its exit code and whether
# numpy was loaded.
_NUMPY_PROBE = """
import sys
from sensorplace import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv, outcome", [
    (["compare", "{t}", "{t}", "--scope", "all"], "0 False"),
    (["compare", "{t}", "{t}", "--scope", "per-size", "--out-dir", "{tmp}/tau"], "0 False"),
    (["compare", "{t}", "{t}", "--scope", "top", "--top-k", "2"], "0 False"),
    (["report", "{t}"], "0 False"),
    (["report", "{t}", "--out", "{tmp}/report.txt"], "0 False"),
    (["--version"], "0 False"),
    (["--help"], "0 False"),
    (["rank", "{corpus}/manifest.txt", "--length", "abc"], "1 False"),
    (["rank", "{corpus}/manifest.txt", "--length", "50", "--out-dir", "{tmp}/out"], "0 True"),
], ids=["compare-all", "compare-per-size", "compare-top", "report", "report-out",
        "version", "help", "usage-error", "rank"])
def test_only_commands_that_compute_on_arrays_load_numpy(tmp_path, argv, outcome):
    table = tmp_path / "ranking.csv"
    table.write_text("rank,score,sites\n1,0.5,LW\n2,0.25,RW\n3,0.125,LW+RW\n")
    cli.main(["synth", str(tmp_path / "corpus"), "--length", "60"])
    argv = [a.format(t=table, tmp=tmp_path, corpus=tmp_path / "corpus") for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(sensorplace.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == outcome
