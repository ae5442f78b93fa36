"""End-to-end runs and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorplace
from sensorplace import cli
from sensorplace import io as pio
from sensorplace import run as runner
from sensorplace.config import RunConfig
from sensorplace.errors import ComputationError, ManifestError
from sensorplace.rankcorr import compare_rankings


def _corpus(tmp_path, n=3, length=520, noise=0.0, seed=0, style="csv", **kwargs):
    manifest, _ = runner.run_synth(
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
    rows = pio.read_ranking_file(out / runner.RANKING_FILENAME)
    assert pio.ranking_labels(rows) == ranking.labels()
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
    labels = pio.ranking_labels(pio.read_ranking_file(out / runner.RANKING_FILENAME))
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
    reports, payload = runner.run_compare(table, table, scope="per-size", out_dir=out)
    # size-5 holds a single subset, so there is no pair to correlate
    assert set(reports) == {"size-1", "size-2", "size-3", "size-4"}
    assert all(r.tau == 1.0 for r in reports.values())
    tau_lines = (out / runner.TAU_TABLE_FILENAME).read_text().splitlines()
    assert len(tau_lines) == 5
    saved = json.loads((out / runner.TAU_REPORT_FILENAME).read_text())
    assert saved["results"]["size-2"]["tau"] == 1.0


def test_compare_against_external_truth(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("rank,sites\n1,LW+PE\n2,RW+PE\n3,LW+RW\n")
    predicted = tmp_path / "predicted.csv"
    predicted.write_text("rank,score,sites\n1,0.9,LW+RW\n2,0.5,LW+PE\n3,0.1,RW+PE\n")
    reports, _ = runner.run_compare(truth, predicted, scope="per-size")
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
    rows = pio.read_ranking_file(out / "ranking.csv")
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
