"""End-to-end benchmark of ``sensorplace rank`` and ``sensorplace compare``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run sets up seeded inputs,
then times whole CLI operations, one fresh ``python -m sensorplace.cli``
process at a time, for about S seconds; checks every output against a
reference computed apart from the program (``reference.py``); and prints
the metrics as one JSON object on the last line of standard output. With
``--trace 1`` each round runs the operation untraced, with spans, and with
allocation peaks (``tracer.py``), and the per-layer metrics are printed
instead. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread everywhere: the machine has 2 vCPUs, and scores do not
# depend on the thread count (README.md in this directory).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
sys.path[:0] = [str(SRC)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 3
MIN_OPS = 3
# A p90 needs ten samples beyond it, so a run of fewer than 40 operations
# reports the median alone; holding runs under 40 keeps the metric set fixed.
MAX_OPS = 39

CORPUS_10HZ = dict(subjects=1, frames=500, rate=10.0, labeled=False, dropouts=0)
WORKLOADS = {
    "acceptance": dict(corpus=CORPUS_10HZ, roster=inputs.DEFAULT_ROSTER,
                       sizes=range(1, 6), length=500, multi_window=False),
    "full_roster": dict(corpus=CORPUS_10HZ, roster=inputs.SITES,
                        sizes=range(1, 13), length=500, multi_window=False),
    "study": dict(corpus=dict(subjects=2, frames=500, extra_frames=60, rate=30.0,
                              labeled=True, dropouts=8),
                  roster=inputs.DEFAULT_ROSTER, sizes=range(1, 6), length=40,
                  multi_window=True),
    "compare_full": None,
}


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv, out_dir):
    """Run one process to its end; return (wall s, exit code, peak RSS MiB)."""
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


# --- set-up ------------------------------------------------------------------------

def set_up(name, seed, work):
    """Make the inputs and run one untimed ``--version``, several times.

    Returns (inputs, set-up seconds per repeat, generator seconds per
    repeat). Only the last repeat's inputs are kept.
    """
    spec = WORKLOADS[name]
    setup_s, synth_s, made = [], [], None
    for rep in range(SETUP_REPEATS):
        target = work / f"inputs{rep}"
        start = time.perf_counter()
        if spec is None:
            made, gen = inputs.make_rankings(target, seed), 0.0
        else:
            made, gen = inputs.make_corpus(target, seed, activities=13, **spec["corpus"])
        _, code, _ = run_process([sys.executable, "-m", "sensorplace.cli", "--version"],
                                 work / f"version{rep}")
        setup_s.append(time.perf_counter() - start)
        synth_s.append(gen)
        if code != 0:
            sys.exit(f"perfbench: 'sensorplace --version' exited {code}")
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    return made, setup_s, synth_s


def op_argv(name, made, out_dir):
    spec = WORKLOADS[name]
    if spec is None:
        first, second, _ = made
        return ["compare", str(first), str(second), "--scope", "all", "--out-dir", str(out_dir)]
    argv = ["rank", str(made.manifest), "--out-dir", str(out_dir),
            "--sizes", ",".join(map(str, spec["sizes"])), "--length", str(spec["length"]),
            "--roster", ",".join(spec["roster"])]
    if "HD" in spec["roster"]:
        argv.append("--allow-head")
    if spec["multi_window"]:
        argv.append("--multi-window")
    return argv


# --- checks --------------------------------------------------------------------------

def make_checker(name, made, seed):
    """A function from an operation's output directory to its problems."""
    spec = WORKLOADS[name]
    verdicts, first_bytes = {}, []
    if spec is None:
        _, _, expect = made
        expect = dict(expect, scipy_tau=reference.scipy_tau(expect["first"], expect["second"]))
        filename = "tau.csv"

        def check_text(text):
            return reference.check_tau_table(text, expect)
    else:
        roster = tuple(spec["roster"])
        sets = reference.window_sets(made.manifest, roster, spec["length"], spec["multi_window"])
        filename = "ranking.csv"

        def check_text(text):
            rng = np.random.default_rng([seed, 3])
            return reference.check_ranking(text, sets, roster, list(spec["sizes"]),
                                           made.activities, rng)

    def check(out_dir):
        try:
            blob = (out_dir / filename).read_bytes()
        except OSError as exc:
            return [f"cannot read {filename}: {exc}"]
        if blob not in verdicts:
            try:
                verdicts[blob] = check_text(blob.decode("utf-8"))
            except ValueError as exc:
                verdicts[blob] = [f"unreadable {filename}: {exc}"]
        if not first_bytes:
            first_bytes.append(blob)
        if blob != first_bytes[0]:
            return verdicts[blob] + [f"{filename} differs from the run's first operation"]
        return verdicts[blob]
    return check


# --- measurement -----------------------------------------------------------------------

def measure(seconds, round_fn, min_rounds, max_rounds):
    """Run whole rounds while the next one is expected to end in time."""
    start = time.perf_counter()
    lengths = []
    while len(lengths) < max_rounds:
        t0 = time.perf_counter()
        round_fn(len(lengths))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_rounds and elapsed + statistics.median(lengths) > seconds:
            return


class Ops:
    """Operations of one run, their timings and their verdicts."""

    def __init__(self, name, made, work):
        self.name, self.made, self.work = name, made, work
        self.results = []  # (kind, wall s, exit code, peak RSS MiB, out dir)

    def run(self, kind, traced=None):
        index = len(self.results)
        out_dir = self.work / "ops" / f"{index:04d}"
        argv = op_argv(self.name, self.made, out_dir / "out")
        if traced is None:
            cmd = [sys.executable, "-m", "sensorplace.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), repr(time.perf_counter()),
                   str(out_dir / "spans.json"), traced, str(index), "--", *argv]
        wall, code, rss = run_process(cmd, out_dir)
        self.results.append((kind, wall, code, rss, out_dir))

    def judge(self, check):
        """(attempted, failed, correct) over every operation run."""
        failed, correct = 0, True
        for _, _, code, _, out_dir in self.results:
            if code != 0:
                failed += 1
                print(f"operation in {out_dir} exited {code}", file=sys.stderr)
                continue
            problems = check(out_dir / "out")
            if problems:
                failed += 1
                correct = False
                print(f"operation in {out_dir} failed its checks: {problems[:5]}", file=sys.stderr)
        return len(self.results), failed, correct

    def walls(self, kind):
        return [wall for k, wall, *_ in self.results if k == kind]


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- traced per-layer metrics ------------------------------------------------------------

# Self time summed per layer metric, by span name.
SELF_TIME = {
    "io.parse_s": ("io.parse_keypoint_file",),
    "skeleton.preprocess_s": ("run.preprocess_recording",),
    "run.load_s": ("run.load_window_sets",),
    "run.merge_s": ("run.rank_window_sets",),
    "scoring.vector_s": ("scoring.score_subset",),
    "scoring.sort_s": ("run.rank_placements",),
    "kernels.pair_sum_s": ("_kernels.pairwise_cosine_distance_sum",),
    "io.write_s": ("io.write_ranking_file", "io.write_json_report", "io.write_tau_table"),
    "io.read_ranking_s": ("io.read_ranking_file",),
    "rankcorr.compare_s": ("run.compare_rankings",),
}
UNITS = {
    "cli.import_s": "s", "io.parse_s": "s", "io.frames_parsed": "count", "io.bytes_read": "B",
    "skeleton.preprocess_s": "s", "skeleton.frames_out": "count",
    "skeleton.frames_used_ratio": "ratio", "run.load_s": "s", "run.merge_s": "s",
    "run.window_sets": "count", "scoring.rank_s": "s", "scoring.vector_s": "s",
    "scoring.sort_s": "s", "scoring.subsets_scored": "count", "scoring.peak_alloc_mb": "MiB",
    "kernels.pair_sum_s": "s", "kernels.pair_terms": "count", "kernels.bytes_in": "B",
    "io.write_s": "s", "io.read_ranking_s": "s", "rankcorr.compare_s": "s",
    "rankcorr.item_pairs": "count", "rankcorr.peak_alloc_mb": "MiB", "synth.generate_s": "s",
}


def layer_values(trace, name, made):
    """Per-layer values of one spans-traced operation."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_time = {}
    for i, s in enumerate(spans):
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + s["end"] - s["start"] - child[i]

    def total(span_name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == span_name)

    out = {k: sum(self_time.get(n, 0.0) for n in names) for k, names in SELF_TIME.items()}
    out["cli.import_s"] = trace["import_s"]
    out["scoring.rank_s"] = sum(s["end"] - s["start"] for s in spans
                                if s["name"] == "run.rank_placements")
    out["scoring.subsets_scored"] = total("run.rank_placements", "subsets")
    out["kernels.pair_terms"] = total("_kernels.pairwise_cosine_distance_sum", "pair_terms")
    out["kernels.bytes_in"] = total("_kernels.pairwise_cosine_distance_sum", "bytes_in")
    out["rankcorr.item_pairs"] = sum(math.comb(s.get("items", 0), 2) for s in spans
                                     if s["name"] == "run.compare_rankings")
    out["skeleton.frames_out"] = total("run.preprocess_recording", "frames_out")
    out["run.window_sets"] = total("run.load_window_sets", "window_sets")
    parsed = [s["path"] for s in spans if "path" in s]
    frames = sum(made.files[p][0] for p in parsed) if parsed else 0
    out["io.frames_parsed"] = frames
    out["io.bytes_read"] = sum(made.files[p][1] for p in parsed) if parsed else 0
    spec = WORKLOADS[name]
    used = out["run.window_sets"] * made.activities * spec["length"] * made.stride if spec else 0
    out["skeleton.frames_used_ratio"] = used / frames if frames else 0.0
    return out


def traced_metrics(name, made, ops, synth_s, spans_out):
    """Per-layer metrics of a traced run; all its spans go to ``spans_out``."""
    per_op, peaks, absent = [], {"run.rank_placements": [], "run.compare_rankings": []}, set()
    traces = []
    for kind, _, code, _, out_dir in ops.results:
        if kind not in ("spans", "alloc") or code != 0:
            continue
        trace = json.loads((out_dir / "spans.json").read_text())
        traces.append(dict(trace, kind=kind))
        absent.update(trace["absent"])
        if kind == "spans":
            per_op.append(layer_values(trace, name, made))
        else:
            for s in trace["spans"]:
                peaks[s["name"]].append(s["peak_alloc_bytes"] / 2**20)
    # Times are medians; counts take the lower median so they stay whole.
    values = {k: (statistics.median if UNITS[k] == "s" else statistics.median_low)(
        [op[k] for op in per_op]) for k in per_op[0]} if per_op else {}
    values["scoring.peak_alloc_mb"] = max(peaks["run.rank_placements"], default=0.0)
    values["rankcorr.peak_alloc_mb"] = max(peaks["run.compare_rankings"], default=0.0)
    values["synth.generate_s"] = statistics.median(synth_s)
    spans_out.write_text(json.dumps(traces))

    plain, traced = statistics.median(ops.walls("untraced")), statistics.median(ops.walls("spans"))
    print(f"tracing overhead: traced op {traced:.4f} s - untraced op_s.p50 {plain:.4f} s"
          f" = {traced - plain:+.4f} s ({(traced - plain) / plain:+.1%})")
    if absent:
        print(f"absent spans (reported as 0): {', '.join(sorted(absent))}")
    work = traced - values.get("cli.import_s", 0.0)
    for key in sorted(k for k, u in UNITS.items() if u == "s" and k in SELF_TIME):
        if values.get(key):
            print(f"  {key:<24} {values[key]:9.4f} s  {values[key] / work:6.1%} of op minus import")
    return {k: metric(values.get(k, 0.0), unit) for k, unit in UNITS.items()}


# --- main -----------------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sensorplace" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'sensorplace'}")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        made, setup_s, synth_s = set_up(args.workload, args.seed, work)
        ops = Ops(args.workload, made, work)
        if args.trace:
            def one_round(index):
                if index == 0:
                    ops.run("warm-up")
                ops.run("untraced")
                ops.run("spans", traced="spans")
                ops.run("alloc", traced="alloc")
            measure(args.seconds, one_round, min_rounds=1, max_rounds=MAX_OPS // 3)
        else:
            measure(args.seconds, lambda _: ops.run("untraced"), MIN_OPS, MAX_OPS)
        attempted, failed, correct = ops.judge(make_checker(args.workload, made, args.seed))
        if args.trace:
            metrics = traced_metrics(args.workload, made, ops, synth_s,
                                     WORK / f"spans-{args.workload}-{args.seed}.json")
        else:
            walls = ops.walls("untraced")
            print(f"{len(walls)} operations, wall s: {' '.join(f'{w:.4f}' for w in walls)}")
            print(f"set-up s: {' '.join(f'{s:.4f}' for s in setup_s)}")
            metrics = {
                "op_s.p50": metric(statistics.median(walls), "s"),
                "peak_rss_mb": metric(max(r[3] for r in ops.results), "MiB"),
                "setup_s": metric(statistics.median(setup_s), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
