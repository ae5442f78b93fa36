"""Command-line interface.

Subcommands: ``validate`` (schema-check keypoint files), ``rank``
(manifest -> placement ranking), ``compare`` (two rankings -> Kendall's
tau), ``synth`` (emit a synthetic keypoint corpus), ``report`` (render a
ranking as text). Exit codes: 0 success, 1 input/config error,
2 computation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from . import run as runner
from .config import load_config
from .errors import ComputationError, DataError


def _sites(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _sizes(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    # All default to None so a config file can supply values; explicit
    # flags override the file.
    sub.add_argument("--config", type=Path, default=None,
                     help="key=value config file supplying defaults")
    sub.add_argument("--roster", type=_sites, default=None, metavar="SITES",
                     help="comma-separated site ids (default LW,RW,PE,LF,RF)")
    sub.add_argument("--length", dest="series_length", type=int, default=None,
                     help="frames per scored window (default 500)")
    sub.add_argument("--rate", dest="sample_rate", type=float, default=None,
                     help="target sample rate in Hz (default 10)")
    sub.add_argument("--threshold", dest="confidence_threshold", type=float,
                     default=None, help="keypoint confidence threshold (default 0.3)")
    sub.add_argument("--max-gap", type=int, default=None,
                     help="longest repairable gap in frames (default 10)")
    sub.add_argument("--sizes", dest="subset_sizes", type=_sizes, default=None,
                     metavar="N,N,...", help="subset sizes to score (default 1,2,3,4)")
    sub.add_argument("--subsample", choices=("first", "uniform"), default=None,
                     help="how to cut long recordings to the window length")
    sub.add_argument("--multi-window", action=argparse.BooleanOptionalAction,
                     default=None, help="average scores over all full windows")
    sub.add_argument("--allow-head", action=argparse.BooleanOptionalAction,
                     default=None, help="permit HD in the roster")


def _config_overrides(args) -> dict:
    keys = (
        "roster", "series_length", "sample_rate", "confidence_threshold",
        "max_gap", "subset_sizes", "subsample", "multi_window", "allow_head",
    )
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _cmd_validate(args) -> int:
    checks = runner.run_validate(args.paths)
    for check in checks:
        status = "ok" if check.ok else "ok with warnings"
        print(f"{check.path}: {status}, {check.n_frames} frames")
        for warning in check.warnings:
            print(f"  warning: {warning}")
    return 0


def _cmd_rank(args) -> int:
    config = load_config(args.config, _config_overrides(args))
    ranking, payload = runner.run_rank(args.manifest, config, out_dir=args.out_dir)
    best = ranking.entries[0]
    print(f"ranked {len(ranking.entries)} subsets over {ranking.n_activities} activities")
    print(f"best placement: {best.subset.label} (score {best.score:.6f})")
    out_dir = Path(args.out_dir)
    print(f"wrote {out_dir / runner.RANKING_FILENAME} and {out_dir / runner.RANK_REPORT_FILENAME}")
    return 0


def _cmd_compare(args) -> int:
    reports, payload = runner.run_compare(
        args.first, args.second, scope=args.scope, top_k=args.top_k,
        out_dir=args.out_dir,
    )
    sys.stdout.write(runner.render_compare_text(payload))
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        print(f"wrote {out_dir / runner.TAU_TABLE_FILENAME} and {out_dir / runner.TAU_REPORT_FILENAME}")
    return 0


def _cmd_synth(args) -> int:
    manifest_path, payload = runner.run_synth(
        args.out_dir,
        n_activities=args.activities,
        discriminative_sites=_sites(args.discriminative),
        seed=args.seed,
        noise_sigma=args.noise,
        length=args.length,
        sample_rate=args.rate,
        style=args.style,
        drift=args.drift,
    )
    print(f"wrote {payload['activities']} activities to {args.out_dir}")
    print(f"manifest: {manifest_path}")
    return 0


def _cmd_report(args) -> int:
    text = runner.run_report(args.ranking, out_path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorplace",
        description="Rank on-body sensor placements from 2D pose keypoint recordings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="schema-check keypoint files")
    p.add_argument("paths", nargs="+", type=Path)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("rank", help="rank placement subsets from a manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    _add_config_flags(p)
    p.set_defaults(func=_cmd_rank)

    p = subs.add_parser("compare", help="Kendall's tau between two ranking files")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    p.add_argument("--scope", choices=("all", "per-size", "top"), default="per-size")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("synth", help="emit a synthetic keypoint corpus")
    p.add_argument("out_dir", type=Path)
    p.add_argument("--activities", type=int, default=3)
    p.add_argument("--discriminative", default="LW",
                   help="comma-separated sites that differ across activities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="per-coordinate Gaussian noise sigma")
    p.add_argument("--length", type=int, default=500)
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--style", choices=("csv", "labeled"), default="csv")
    p.add_argument("--drift", action=argparse.BooleanOptionalAction, default=True,
                   help="add whole-body drift removed by centralization")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("report", help="render a ranking file as text")
    p.add_argument("ranking", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
