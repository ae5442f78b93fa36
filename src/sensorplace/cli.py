"""Command-line interface.

Subcommands: ``validate`` (parse and preprocess keypoint files as
``rank`` does), ``rank`` (manifest -> placement ranking), ``compare`` (two
rankings -> Kendall's tau), ``synth`` (emit a synthetic keypoint corpus),
``report`` (render a ranking as text). Exit codes: 0 success, 1
input/config error (usage errors included), 2 computation error.

Each command imports its modules when it runs. ``validate`` and ``rank``
compute on arrays in ``run`` and read their settings through ``config``,
which loads only once every flag has passed its ``sites`` check, so a bad
settings value is reported before numpy loads. ``synth`` lives in
``synth``, and ``compare`` and ``report`` in ``textio``. Building the
parser needs only ``sites``, so ``--version``, ``--help`` and usage errors
load none of them, and ``compare`` and ``report`` never load numpy or
``config``.

``main`` returns the exit code. ``console_main``, the process entry, ends
the process with it once standard output and error are flushed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from pathlib import Path

from . import __version__, sites
from .errors import ComputationError, ConfigError, DataError


def _flag_type(parse):
    """``parse`` as a flag's type: a usage error carries the message of its
    ValueError, where argparse would name the function (``invalid
    size_list``)."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


integer, number, site_list = map(_flag_type, (sites.integer, sites.number, sites.site_list))


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input, so they exit 1 like every other input
    error; argparse's own default is 2, the numeric-failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if file is sys.stdout:  # --help, --version: argparse drops a failed write
            _write(message)
        else:
            super()._print_message(message, file)


def _complain(line: str) -> None:
    # without a writable standard error (a closed pipe, ``2>&-``) the exit
    # code alone tells
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(line + "\n")


def _stdout_error(exc: OSError) -> DataError:
    return DataError(f"cannot write standard output: {exc.strerror or exc}")


def _write(text: str, flush: bool = False) -> None:
    """Write ``text`` to standard output; a failed write exits 1 with one
    error line, as an output file that cannot be written does."""
    try:
        if sys.stdout is None:  # the process started without one (``>&-``)
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except OSError as exc:
        raise _stdout_error(exc) from None


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    # All default to None so a config file can supply values; explicit
    # flags override the file.
    sub.add_argument("--config", type=Path, default=None,
                     help="key=value config file supplying defaults")
    for setting in sites.SETTINGS:
        if setting.parse is sites.switch:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": _flag_type(setting.parse), "metavar": setting.metavar}
        sub.add_argument(setting.flag, dest=setting.key, default=None,
                         help=f"{setting.help} (default {sites.shown(setting.default)})", **kind)


def _run_config(args):
    # each flag given is checked on its own first, so its error names it
    overrides = {}
    for setting in sites.SETTINGS:
        if (value := getattr(args, setting.key)) is not None:
            try:
                overrides[setting.key] = setting.check(value)
            except DataError as exc:
                raise ConfigError(f"argument {setting.flag}: {exc}") from None
    from .config import load_config

    return load_config(args.config, overrides)


def _fail(exc) -> int:
    """Write the one error line of a failed command or file; return its exit
    code."""
    if isinstance(exc, ComputationError):
        _complain(f"computation error: {exc}")
        return 2
    _complain(f"error: {exc}")
    return 1


def _cmd_validate(args) -> int:
    # every file is loaded first, as rank loads its recordings; then each
    # file's lines are written in order and flushed, so they keep their
    # place among the error lines when both streams share a file; the exit
    # code is the worst one seen
    config = _run_config(args)
    from .run import _load_in_two_processes, validate_recording

    code = 0
    jobs = [(path, config) for path in args.paths]
    for path, result in zip(args.paths, _load_in_two_processes(validate_recording, jobs)):
        if isinstance(result, Exception):
            code = max(code, _fail(result))
            continue
        frames, warnings = result
        _write("".join([f"{path}: {'ok with warnings' if warnings else 'ok'}, {frames} frames\n",
                        *(f"  warning: {warning}\n" for warning in warnings)]), flush=True)
    return code


def _cmd_rank(args) -> int:
    config = _run_config(args)
    from . import run

    (labels, scores), payload = run.run_rank(args.manifest, config, out_dir=args.out_dir)
    out_dir = Path(args.out_dir)
    _write(f"ranked {len(labels)} subsets over {payload['n_activities']} activities\n"
           f"best placement: {labels[0]} (score {scores[0]:.6f})\n"
           f"wrote {out_dir / run.RANKING_FILENAME} and {out_dir / run.RANK_REPORT_FILENAME}\n")
    return 0


def _cmd_compare(args) -> int:
    from . import textio

    reports, payload = textio.run_compare(
        args.first, args.second, scope=args.scope, top_k=args.top_k,
        out_dir=args.out_dir,
    )
    _write(textio.render_compare_text(payload))
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        _write(f"wrote {out_dir / textio.TAU_TABLE_FILENAME} and {out_dir / textio.TAU_REPORT_FILENAME}\n")
    return 0


def _cmd_synth(args) -> int:
    from .io import parse_manifest
    from .synth import run_synth

    # the synth flags not given are not in args, so run_synth's defaults apply
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")}
    manifest_path = run_synth(args.out_dir, **options)
    _write(f"wrote {len(parse_manifest(manifest_path))} activities to {args.out_dir}\n"
           f"manifest: {manifest_path}\n")
    return 0


def _cmd_report(args) -> int:
    from .textio import run_report

    text = run_report(args.ranking, out_path=args.out)
    if args.out is None:
        _write(text)
    else:
        _write(f"wrote {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sensorplace",
        description="Rank on-body sensor placements from 2D pose keypoint recordings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="parse and preprocess keypoint files as rank does")
    p.add_argument("paths", nargs="+", type=Path)
    _add_config_flags(p)
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
    p.add_argument("--top-k", type=integer, default=3)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("synth", help="emit a synthetic keypoint corpus",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("out_dir", type=Path)
    p.add_argument("--activities", dest="n_activities", type=integer, metavar="ACTIVITIES")
    p.add_argument("--discriminative", dest="discriminative_sites", type=site_list,
                   metavar="DISCRIMINATIVE",
                   help="comma-separated sites that differ across activities")
    p.add_argument("--seed", type=integer)
    p.add_argument("--noise", dest="noise_sigma", type=number, metavar="NOISE",
                   help="per-coordinate Gaussian noise sigma")
    p.add_argument("--length", type=integer)
    p.add_argument("--rate", dest="sample_rate", type=number, metavar="RATE")
    p.add_argument("--style", choices=("csv", "labeled"))
    p.add_argument("--drift", action=argparse.BooleanOptionalAction,
                   help="add whole-body drift removed by centralization")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("report", help="render a ranking file as text")
    p.add_argument("ranking", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DataError, ComputationError) as exc:
        return _fail(exc)


def console_main():
    """The process entry (``python -m sensorplace.cli``, the ``sensorplace``
    script): run ``main``, flush standard output and error, and end the
    process with ``os._exit``. That skips the interpreter's teardown, which
    frees numpy and every module: 24-28 ms after a ``rank`` and 11 ms after
    a ``compare`` on 2 vCPUs. Output files are closed and renamed before
    ``main`` returns; ``atexit`` handlers do not run. An exception ``main``
    does not handle ends the process the normal way, with its traceback."""
    # one BLAS thread unless the environment names a count, set before numpy
    # loads: rank and validate then fork a single-threaded process, and no
    # command makes a BLAS call
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, --version and usage errors
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a failed command has said why already
            _complain(f"error: {_stdout_error(exc)}")
            code = 1
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
