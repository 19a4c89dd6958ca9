"""Command-line front end: synth, estimate, bench, converge, scan.

Every run writes a JSON manifest alongside its outputs (embedded in the
report for stdout-only runs).  Exit codes: 0 success, 2 usage/validation,
3 runtime or numeric failure.  A rejected flag (an unwritable --out too)
prints "error: --<flag>: ..." and exits 2; synth, bench, converge and scan
record it in their manifest as "error:UsageError: ...".  The base seed
comes from --seed, the HURSTLAB_SEED environment variable, or 0, in that
order.  estimate and scan draw no random numbers, so for them the seed
only reaches the manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
from pathlib import Path

from . import __version__
from .estimators import FIT_FAILURES, DegenerateSeries, Method, NoConvergence, estimate
from .evalharness import (
    ExperimentGrid,
    find_nmin,
    mean_convergence_curve,
    run_grid,
    write_convergence_csv,
    write_replicates_csv,
    write_summary_csv,
)
from .fgn import EmbeddingNotPSD, FgnSpec, synthesize_fgn
from .series import read_series_csv, write_series_csv
from .traces import (
    Unit,
    bin_to_series,
    parse_capture_csv,
    sliding_window_scan,
    write_window_scan_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
# scan's bin width for a capture when --bin-width is not given, in seconds.
CAPTURE_BIN_WIDTH = 0.01


class UsageError(Exception):
    """Invalid flag value; message names the offending flag."""


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _base_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HURSTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"HURSTLAB_SEED: not an integer: {env!r}") from exc
    return 0


def _manifest(command: str, args, base_seed: int, started: str, status: str) -> dict:
    parameters = {
        key: str(value)
        for key, value in sorted(vars(args).items())
        if key not in ("command", "handler") and value is not None
    }
    return {
        "command": command,
        "parameters": parameters,
        "base_seed": base_seed,
        "toolkit_version": __version__,
        "started": started,
        "finished": _now(),
        "status": status,
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


@contextlib.contextmanager
def _out_errors():
    """An output that cannot be written is a usage error of --out."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc


@contextlib.contextmanager
def _plan_errors(args):
    """Turn a plan that a library call rejects into a UsageError for its flag: each
    plan check's ValueError starts with the parameter's name ("t0 must be ...")."""
    try:
        yield
    except ValueError as exc:
        name = str(exc).partition(" ")[0]
        if name not in vars(args):
            raise
        raise UsageError(f"--{name.replace('_', '-')}: {exc}") from exc


@contextlib.contextmanager
def _manifest_on_exit(path: Path, command: str, args, base_seed: int):
    """Create path's directory, then write the run manifest there however the block
    exits: "ok", what the block sets as run["status"], or the escaping exception."""
    run = {"status": "ok"}
    started = _now()
    try:
        with _out_errors():
            path.parent.mkdir(parents=True, exist_ok=True)
        yield run
    except BaseException as exc:
        run["status"] = f"error:{type(exc).__name__}: {exc}"
        with contextlib.suppress(OSError):
            _write_manifest(path, _manifest(command, args, base_seed, started, run["status"]))
        raise
    with _out_errors():
        _write_manifest(path, _manifest(command, args, base_seed, started, run["status"]))


def _flag_run(run: dict, what: str, *warnings: str) -> int:
    """A run whose fits failed too often: warn, record the status, exit 3."""
    run["status"] = f"error:flagged {what}"
    for warning in warnings:
        print(f"warning: >10% {warning}", file=sys.stderr)
    return EXIT_RUNTIME


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Comma list of integers; "A..B" gives A, 2A, 4A, ... up to B."""
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            values = []
            while 0 < lo <= hi:
                values.append(lo)
                lo *= 2
            return tuple(values)
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: expected integers, got {text!r}") from exc


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: expected numbers, got {text!r}") from exc


def _methods_from(args, default=tuple(Method)) -> tuple[Method, ...]:
    return tuple(dict.fromkeys(Method(name) for name in args.method)) if args.method else default


def _one_method(args) -> Method:
    methods = _methods_from(args, default=(Method.WHITTLE,))
    if len(methods) != 1:
        raise UsageError(f"--method: {args.command} takes exactly one method")
    return methods[0]


def cmd_synth(args) -> int:
    base_seed = _base_seed(args)
    out = Path(args.out)
    with _manifest_on_exit(out.with_name(out.name + ".manifest.json"), "synth", args, base_seed):
        with _plan_errors(args):
            spec = FgnSpec(hurst=args.hurst, length=args.length, variance=args.variance, seed=base_seed)
        series = synthesize_fgn(spec)
        with _out_errors():
            write_series_csv(out, series)
    return EXIT_OK


def cmd_estimate(args) -> int:
    base_seed = _base_seed(args)
    try:
        series = read_series_csv(args.path)
    except OSError as exc:
        raise UsageError(f"path: cannot read {args.path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"path: {exc}") from exc
    if series.length < 64:
        raise UsageError(f"path: series has {series.length} points; at least 64 are required")
    methods = _methods_from(args)

    started = _now()
    entries = []
    failed = False
    for method in methods:
        try:
            result = estimate(series, method)
            entries.append(
                {
                    "method": method.value,
                    "H": result.value,
                    "ci_low": result.ci_low,
                    "ci_high": result.ci_high,
                    "diagnostics": dict(result.diagnostics),
                }
            )
        except FIT_FAILURES as exc:
            failed = True
            entries.append({"method": method.value, "error": f"{type(exc).__name__}: {exc}"})
    status = "ok" if not failed else "error:estimator failure"
    report = {
        "manifest": _manifest("estimate", args, base_seed, started, status),
        "estimates": entries,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        with _out_errors():
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text + "\n", encoding="utf-8")
            _write_manifest(out.with_name(out.name + ".manifest.json"), report["manifest"])
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_bench(args) -> int:
    base_seed = _base_seed(args)
    out_dir = Path(args.out)
    with _manifest_on_exit(out_dir / "manifest.json", "bench", args, base_seed) as run:
        with _plan_errors(args):
            grid = ExperimentGrid(
                hursts=_parse_float_list(args.hursts, "--hursts"),
                lengths=_parse_int_list(args.lengths, "--lengths"),
                replicates=args.replicates,
                methods=_methods_from(args),
                base_seed=base_seed,
            )
            result = run_grid(grid, threads=args.threads)
        with _out_errors():
            write_summary_csv(out_dir / "summary.csv", result.summaries)
            write_replicates_csv(out_dir / "replicates.csv", result.records)
        for method in grid.methods:
            for hurst in grid.hursts:
                nmin = find_nmin(result.summaries, method, hurst, grid.lengths)
                shown = nmin if nmin is not None else "none"
                print(f"N_min method={method.value} H={hurst:g}: {shown}")
        if result.flagged:
            return _flag_run(run, "cells", *(
                f"replicate failures for method={method.value} H={hurst:g} N={length}"
                for method, hurst, length in result.flagged))
    return EXIT_OK


def cmd_converge(args) -> int:
    base_seed = _base_seed(args)
    out = Path(args.out)
    with _manifest_on_exit(out.with_name(out.name + ".manifest.json"), "converge", args, base_seed) as run:
        method = _one_method(args)
        with _plan_errors(args):
            curve = mean_convergence_curve(
                method=method,
                hurst=args.hurst,
                series_count=args.series_count,
                max_length=args.max_length,
                t0=args.t0,
                tu=args.tu,
                base_seed=base_seed,
                threads=args.threads,
            )
        with _out_errors():
            write_convergence_csv(out, curve)
        if curve.flagged:
            return _flag_run(run, "checkpoints", f"series failures at {len(curve.flagged)} of "
                             f"{len(curve.counts)} checkpoints, first at t={curve.flagged[0]}")
    return EXIT_OK


def _load_scan_input(args):
    """A scan input is a capture CSV (by header) or a plain series file."""
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            first = next((line.strip() for line in fh if line.strip()), "")
        if first.lower() == "timestamp,bytes":
            bin_width = CAPTURE_BIN_WIDTH if args.bin_width is None else args.bin_width
            unit = Unit.BYTES if args.unit is None else args.unit
            binned = bin_to_series(parse_capture_csv(args.path), bin_width=bin_width, unit=unit)
            return binned.values, binned.bin_width, binned.origin
        if args.unit is not None:
            raise UsageError("--unit: a plain series has no unit; --unit applies to a capture")
        # A plain series' samples are one second apart unless --bin-width says otherwise.
        return read_series_csv(args.path).values, 1.0 if args.bin_width is None else args.bin_width, 0.0
    except OSError as exc:
        raise UsageError(f"path: cannot read {args.path}: {exc}") from exc
    except ValueError as exc:
        # ParseError and EmptyCapture are ValueErrors too.
        raise UsageError(f"path: {exc}") from exc


def cmd_scan(args) -> int:
    base_seed = _base_seed(args)
    out = Path(args.out)
    with _manifest_on_exit(out.with_name(out.name + ".manifest.json"), "scan", args, base_seed) as run:
        # A plain series never reaches bin_to_series, so this is its only check.
        if args.bin_width is not None and not args.bin_width > 0:
            raise UsageError("--bin-width: bin_width must be positive")
        method = _one_method(args)
        values, bin_width, origin = _load_scan_input(args)
        stride = args.stride if args.stride is not None else args.window // 2
        with _plan_errors(args):
            scan = sliding_window_scan(values, args.window, stride, method)
        with _out_errors():
            write_window_scan_csv(out, scan, bin_width=bin_width, origin=origin)
        if scan.flagged:
            windows = len(scan.points) + len(scan.failures)
            return _flag_run(run, "windows", f"window failures: {len(scan.failures)} of {windows}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurstlab",
        description="Fractional Gaussian noise synthesis, Hurst estimation, and benchmarking.",
    )
    parser.add_argument("--version", action="version", version=f"hurstlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic fGn series as CSV")
    synth.add_argument("--hurst", type=float, required=True)
    synth.add_argument("--length", type=int, required=True)
    synth.add_argument("--variance", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--out", required=True)
    synth.set_defaults(handler=cmd_synth)

    est = sub.add_parser("estimate", help="estimate H for a series file, JSON to stdout")
    est.add_argument("path")
    est.add_argument("--method", action="append", choices=[m.value for m in Method])
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--out", default=None)
    est.set_defaults(handler=cmd_estimate)

    bench = sub.add_parser("bench", help="Monte-Carlo bias/sigma/MSE grid with N_min report")
    bench.add_argument("--hursts", default="0.5,0.6,0.7,0.8,0.9")
    bench.add_argument("--lengths", default="64..65536")
    bench.add_argument("--replicates", type=int, default=200)
    bench.add_argument("--method", action="append", choices=[m.value for m in Method])
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(handler=cmd_bench)

    conv = sub.add_parser("converge", help="mean convergence curve over prefix lengths")
    conv.add_argument("--method", action="append", choices=[m.value for m in Method])
    conv.add_argument("--hurst", type=float, required=True)
    conv.add_argument("--series-count", dest="series_count", type=int, default=200)
    conv.add_argument("--max-length", dest="max_length", type=int, default=2**16)
    conv.add_argument("--t0", type=int, default=2**6)
    conv.add_argument("--tu", type=int, default=200)
    conv.add_argument("--seed", type=int, default=None)
    conv.add_argument("--threads", type=int, default=1)
    conv.add_argument("--out", required=True)
    conv.set_defaults(handler=cmd_converge)

    scan = sub.add_parser("scan", help="sliding-window H estimates over a long series or capture")
    scan.add_argument("path")
    scan.add_argument("--window", type=int, required=True)
    scan.add_argument("--stride", type=int, default=None)
    scan.add_argument("--method", action="append", choices=[m.value for m in Method])
    scan.add_argument("--bin-width", dest="bin_width", type=float, default=None,
                      help=f"seconds per sample (default: {CAPTURE_BIN_WIDTH:g} for a capture, 1 for a series)")
    scan.add_argument("--unit", choices=[u.value for u in Unit], default=None,
                      help="what a capture's bins sum (default: bytes); not for a plain series")
    scan.add_argument("--seed", type=int, default=None)
    scan.add_argument("--out", required=True)
    scan.set_defaults(handler=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateSeries, NoConvergence, EmbeddingNotPSD) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
