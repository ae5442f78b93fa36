"""Run one ``sensorplace`` command with its public layer functions traced.

    python perfbench/tracer.py LAUNCH_T SPANS_OUT {spans,alloc} OP_ID -- ARGV...

The wrappers are installed from outside, at the module attribute each
caller looks up, then ``sensorplace.cli.main(ARGV)`` runs. With ``spans``
every wrapped call records (name, start, end, parent, op) plus counts taken
from its arguments and result; with ``alloc`` only ``rank_placements`` and
``compare_rankings`` are wrapped, each with a tracemalloc peak, so the
allocation tracer never slows the timed spans. Spans stay in memory and are
written to SPANS_OUT as JSON when the command ends. A name a later version
of the program no longer has is listed as absent.

LAUNCH_T is the parent's ``time.perf_counter()`` just before it started
this process; on Linux both read CLOCK_MONOTONIC, so the difference to the
time ``sensorplace.cli`` finished importing is interpreter start plus
import.
"""

import json
import sys
import time

launch_t = float(sys.argv[1])

import importlib  # noqa: E402

import sensorplace.cli  # noqa: E402

import_s = time.perf_counter() - launch_t

# (module, attribute, span name): the attribute is looked up in that module
# by its caller at call time.
TRACED = (
    ("sensorplace.io", "parse_manifest", "io.parse_manifest"),
    ("sensorplace.io", "parse_keypoint_file", "io.parse_keypoint_file"),
    ("sensorplace.io", "write_ranking_file", "io.write_ranking_file"),
    ("sensorplace.io", "write_json_report", "io.write_json_report"),
    ("sensorplace.io", "read_ranking_file", "io.read_ranking_file"),
    ("sensorplace.io", "write_tau_table", "io.write_tau_table"),
    ("sensorplace.run", "preprocess_recording", "run.preprocess_recording"),
    ("sensorplace.run", "load_window_sets", "run.load_window_sets"),
    ("sensorplace.run", "rank_window_sets", "run.rank_window_sets"),
    ("sensorplace.run", "rank_placements", "run.rank_placements"),
    ("sensorplace.run", "compare_rankings", "run.compare_rankings"),
    ("sensorplace.scoring", "score_subset", "scoring.score_subset"),
    ("sensorplace._kernels", "pairwise_cosine_distance_sum", "_kernels.pairwise_cosine_distance_sum"),
)
ALLOC_TRACED = ("run.rank_placements", "run.compare_rankings")


def _counts(name, args, result):
    """Work done by one call, read from its inputs and result."""
    if name == "io.parse_keypoint_file":
        return {"path": str(args[0])}
    if name == "run.preprocess_recording":
        return {"frames_out": int(result.points.shape[1])}
    if name == "run.load_window_sets":
        return {"window_sets": len(result[0])}
    if name == "run.rank_placements":
        return {"subsets": len(args[1])}
    if name == "run.compare_rankings":
        return {"items": len(args[0])}
    if name == "_kernels.pairwise_cosine_distance_sum":
        rows = args[0].shape[0]
        return {"pair_terms": rows * (rows - 1) // 2, "bytes_in": int(args[0].nbytes)}
    return {}


def _span_wrapper(fn, name, spans, stack, op):
    def traced(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = {"name": name, "start": start, "end": end,
                            "parent": parent, "op": op}
        try:
            spans[index].update(_counts(name, args, result))
        except (AttributeError, TypeError, IndexError):
            spans[index]["uncounted"] = True
        return result
    return traced


def _alloc_wrapper(fn, name, spans, op):
    import tracemalloc

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            spans.append({"name": name, "op": op, "peak_alloc_bytes": peak})
    return traced


def main():
    spans_out, mode, op = sys.argv[2], sys.argv[3], int(sys.argv[4])
    argv = sys.argv[sys.argv.index("--") + 1:]
    spans, stack, absent = [], [], []
    for module_name, attr, name in TRACED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(name)
        elif mode == "spans":
            setattr(module, attr, _span_wrapper(fn, name, spans, stack, op))
        elif name in ALLOC_TRACED:
            setattr(module, attr, _alloc_wrapper(fn, name, spans, op))
    code = 1
    try:
        code = sensorplace.cli.main(argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump({"import_s": import_s, "absent": absent, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
