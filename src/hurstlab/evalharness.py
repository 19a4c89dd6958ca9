"""Monte-Carlo benchmarking: bias/sigma/MSE grids, precision classes,
minimum-usable-length search, and mean-convergence curves.

Replicate seeds are derived from (base_seed, H, N, replicate) through
child_seed, so every estimator in a grid cell sees the same series set
(paired comparison) and results are identical for any worker count.

A grid cell runs as blocks of REPLICATE_BLOCK replicates, one pool task
each: a block builds its embedding once and synthesizes its series as one
stack.  Blocks go to the pool largest first (by N times block size), so
the longest series do not start last and run alone; their rows are put
back in grid order, so outputs do not depend on the schedule either.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .estimators import FIT_FAILURES, Method, estimate, too_many_failures
from .estimators.rs import rs_prefix_estimates
from .estimators.whittle import whittle_point_value, whittle_prefix_estimates
from .fgn import EmbeddingNotPSD, FgnSpec, check_seed, child_seed, hurst_key, synthesize_block, synthesize_fgn
from .series import TimeSeries

DEFAULT_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_LENGTHS = tuple(2**i for i in range(6, 17))
ALL_METHODS = (Method.RS, Method.PERIODOGRAM, Method.WHITTLE, Method.ABRY_VEITCH)
# Replicates per pool task.  Fixed, never derived from the worker count:
# at N = 2^16 a block's normals and spectrum take 8 MB each.
REPLICATE_BLOCK = 8


class Precision(str, Enum):
    HIGH_PRECISION = "high_precision"
    ACCEPTABLE = "acceptable"
    BIASED = "biased"
    POOR = "poor"


@dataclass(frozen=True)
class ReplicateStats:
    """Bias, spread, and mean squared error of one estimate set."""

    bias: float
    std_dev: float
    mse: float


@dataclass(frozen=True)
class StatsSummary:
    """Per-(method, H, N) Monte-Carlo aggregate."""

    method: Method
    hurst_nominal: float
    length: int
    bias: float
    std_dev: float
    mse: float
    precision: Precision


@dataclass(frozen=True)
class ReplicateRecord:
    method: Method
    hurst_nominal: float
    length: int
    replicate: int
    estimate: Optional[float]
    status: str


@dataclass(frozen=True)
class ExperimentGrid:
    """A benchmark plan: Hurst values x lengths x replicates x methods."""

    hursts: tuple = DEFAULT_HURSTS
    lengths: tuple = DEFAULT_LENGTHS
    replicates: int = 200
    methods: tuple = ALL_METHODS
    base_seed: int = 0

    def __post_init__(self):
        hursts = tuple(sorted(set(float(h) for h in self.hursts)))
        lengths = tuple(sorted(set(int(n) for n in self.lengths)))
        methods = tuple(dict.fromkeys(Method(m) for m in self.methods))
        if not hursts or any(not 0.0 < h < 1.0 for h in hursts):
            raise ValueError("hursts must be a non-empty subset of (0,1)")
        if not lengths or any(n < 64 for n in lengths):
            raise ValueError("lengths must be non-empty and all at least 64")
        if self.replicates < 2:
            raise ValueError("replicates must be at least 2")
        if not methods:
            raise ValueError("methods must be non-empty")
        check_seed(self.base_seed)
        object.__setattr__(self, "hursts", hursts)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class GridResult:
    summaries: tuple[StatsSummary, ...]
    records: tuple[ReplicateRecord, ...]
    flagged: tuple[tuple[Method, float, int], ...]


@dataclass(frozen=True)
class ConvergenceCurve:
    """Mean estimate over replicated series as a function of prefix length.

    std_errors holds each checkpoint's sample standard deviation over its
    contributing series divided by sqrt(count), None where fewer than two
    series contributed.
    """

    method: Method
    hurst_nominal: float
    checkpoints: tuple[tuple[int, float], ...]
    counts: tuple[int, ...]
    std_errors: tuple[Optional[float], ...]
    flagged: tuple[int, ...] = ()


def summarize_replicates(estimates: Sequence[float], nominal: float) -> ReplicateStats:
    """Bias b = H0 - mean, sample standard deviation, and MSE against H0."""
    values = np.asarray(list(estimates), dtype=float)
    if values.size < 2:
        raise ValueError("at least 2 estimates are required")
    if not np.all(np.isfinite(values)):
        raise ValueError("estimates must all be finite")
    bias = float(nominal - values.mean())
    std_dev = float(values.std(ddof=1))
    mse = float(((values - nominal) ** 2).mean())
    return ReplicateStats(bias=bias, std_dev=std_dev, mse=mse)


def classify_precision(bias: float, std_dev: float) -> Precision:
    """Precision class from |bias| and sigma; every finite pair maps to one class."""
    if not (np.isfinite(bias) and np.isfinite(std_dev)):
        raise ValueError("bias and std_dev must be finite")
    magnitude = abs(bias)
    if magnitude <= 0.03 and std_dev <= 0.015:
        return Precision.HIGH_PRECISION
    if 0.03 < magnitude < 0.05 and std_dev <= 0.02:
        return Precision.ACCEPTABLE
    if magnitude > 0.1:
        return Precision.BIASED
    return Precision.POOR


def _usable_cores() -> int:
    """Cores this process may run on; all of them where the platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_map(task, items, threads):
    if threads < 1:
        raise ValueError("threads must be at least 1")
    # The pool forks all its workers at the first submit: start no idle ones,
    # and no more than the cores this process may run on.
    workers = min(threads, len(items), _usable_cores())
    if workers <= 1:
        return [task(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def _point_value(series, method: Method) -> float:
    """Point estimate only; skips the Whittle CI stencil in bulk runs."""
    if method is Method.WHITTLE:
        return whittle_point_value(series)
    return estimate(series, method).value


def _estimate_block(args):
    """Rows (method, replicate, estimate, status) for replicates start..stop-1 of one cell."""
    hurst, length, start, stop, methods, base_seed = args
    replicates = range(start, stop)
    specs = [FgnSpec(hurst=hurst, length=length, seed=child_seed(base_seed, hurst_key(hurst), length, r))
             for r in replicates]
    try:
        block = synthesize_block(specs)
    except EmbeddingNotPSD as exc:
        return [(m, r, None, f"error:{type(exc).__name__}") for r in replicates for m in methods]
    rows = []
    for replicate, values in zip(replicates, block):
        series = TimeSeries(values)
        for method in methods:
            try:
                rows.append((method, replicate, _point_value(series, method), "ok"))
            except FIT_FAILURES as exc:
                rows.append((method, replicate, None, f"error:{type(exc).__name__}"))
    return rows


def run_grid(grid: ExperimentGrid, threads: int = 1) -> GridResult:
    """Run the full Monte-Carlo grid; all methods see identical series per cell.

    Individual replicate failures are recorded, not fatal; a
    (method, H, N) cell whose failure share exceeds 10% is flagged.
    """
    blocks = [
        (h, n, start, min(start + REPLICATE_BLOCK, grid.replicates), grid.methods, grid.base_seed)
        for h in grid.hursts
        for n in grid.lengths
        for start in range(0, grid.replicates, REPLICATE_BLOCK)
    ]
    # Largest blocks (N x replicates) first; their rows go back in grid order.
    schedule = sorted(blocks, key=lambda b: -b[1] * (b[3] - b[2]))
    done = dict(zip(schedule, _parallel_map(_estimate_block, schedule, threads)))
    cells: dict[tuple[float, int], list] = {}
    for block in blocks:
        cells.setdefault(block[:2], []).extend(done[block])

    records: list[ReplicateRecord] = []
    summaries: list[StatsSummary] = []
    flagged: list[tuple[Method, float, int]] = []
    for (hurst, length), rows in cells.items():
        for method in grid.methods:
            method_rows = [r for r in rows if r[0] is method]
            records.extend(
                ReplicateRecord(method, hurst, length, rep, value, status)
                for _, rep, value, status in method_rows
            )
            values = [value for _, _, value, status in method_rows if status == "ok"]
            if too_many_failures(grid.replicates - len(values), grid.replicates):
                flagged.append((method, hurst, length))
            if len(values) >= 2:
                stats = summarize_replicates(values, hurst)
                summaries.append(
                    StatsSummary(
                        method=method,
                        hurst_nominal=hurst,
                        length=length,
                        bias=stats.bias,
                        std_dev=stats.std_dev,
                        mse=stats.mse,
                        precision=classify_precision(stats.bias, stats.std_dev),
                    )
                )
    return GridResult(summaries=tuple(summaries), records=tuple(records), flagged=tuple(flagged))


def find_nmin(
    summaries: Sequence[StatsSummary], method: Method, hurst: float, lengths: Sequence[int] = ()
) -> Optional[int]:
    """Smallest N whose cell and every larger cell classify as high precision.

    lengths names the grid's cells; one without a summary (fewer than 2
    successful replicates) is not high precision.
    """
    precision = {
        s.length: s.precision
        for s in summaries
        if s.method is Method(method) and abs(s.hurst_nominal - hurst) < 1e-9
    }
    if not precision and not lengths:
        raise ValueError(f"no summaries for method={method} at H={hurst}")
    nmin: Optional[int] = None
    for length in sorted(set(precision) | set(lengths)):
        if precision.get(length) is Precision.HIGH_PRECISION:
            if nmin is None:
                nmin = length
        else:
            nmin = None
    return nmin


def _convergence_task(args):
    method, hurst, max_length, checkpoints, seed = args
    series = synthesize_fgn(FgnSpec(hurst=hurst, length=max_length, seed=seed))
    if method is Method.RS:
        return rs_prefix_estimates(series, checkpoints)
    if method is Method.WHITTLE:
        return whittle_prefix_estimates(series, checkpoints)
    values = []
    for t in checkpoints:
        try:
            values.append(_point_value(series.values[:t], method))
        except FIT_FAILURES:
            values.append(None)
    return values


def mean_convergence_curve(
    method: Method,
    hurst: float,
    series_count: int = 200,
    max_length: int = 2**16,
    t0: int = 2**6,
    tu: int = 200,
    base_seed: int = 0,
    threads: int = 1,
) -> ConvergenceCurve:
    """Average prefix estimates over replicated series at t0, t0+tu, t0+2*tu, ...

    Estimator failures are skipped per checkpoint; counts report how many
    series contributed to each mean, std_errors its standard error, and
    flagged lists the checkpoints where too many series failed.  R/S fits
    every checkpoint of a series in one sweep (rs_prefix_estimates), and
    Whittle starts each checkpoint's fit from the previous one's H
    (whittle_prefix_estimates); other methods fit each prefix.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must be in (0,1)")
    if t0 < 64:
        raise ValueError("t0 must be at least 64")
    if max_length < t0:
        raise ValueError("max_length must be at least t0")
    if tu < 1:
        raise ValueError("tu must be positive")
    if series_count < 1:
        raise ValueError("series_count must be positive")
    check_seed(base_seed)
    method = Method(method)
    checkpoints = tuple(range(t0, max_length + 1, tu))
    tasks = [
        (method, hurst, max_length, checkpoints, child_seed(base_seed, hurst_key(hurst), max_length, index))
        for index in range(series_count)
    ]
    per_series = _parallel_map(_convergence_task, tasks, threads)

    means: list[tuple[int, float]] = []
    counts: list[int] = []
    std_errors: list[Optional[float]] = []
    for position, t in enumerate(checkpoints):
        values = [row[position] for row in per_series if row[position] is not None]
        counts.append(len(values))
        means.append((t, float(np.mean(values)) if values else float("nan")))
        std_errors.append(float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) >= 2 else None)
    flagged = tuple(
        t for t, count in zip(checkpoints, counts) if too_many_failures(series_count - count, series_count)
    )
    return ConvergenceCurve(
        method=method, hurst_nominal=hurst, checkpoints=tuple(means), counts=tuple(counts), flagged=flagged,
        std_errors=tuple(std_errors),
    )


def write_summary_csv(path, summaries: Sequence[StatsSummary]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "H0", "N", "bias", "std", "mse", "class"])
        for s in summaries:
            writer.writerow(
                [s.method.value, f"{s.hurst_nominal:.10g}", s.length,
                 f"{s.bias:.10g}", f"{s.std_dev:.10g}", f"{s.mse:.10g}", s.precision.value]
            )


def write_replicates_csv(path, records: Sequence[ReplicateRecord]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "H0", "N", "replicate", "estimate", "status"])
        for r in records:
            value = "" if r.estimate is None else f"{r.estimate:.10g}"
            writer.writerow(
                [r.method.value, f"{r.hurst_nominal:.10g}", r.length, r.replicate, value, r.status]
            )


def write_convergence_csv(path, curve: ConvergenceCurve) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_estimate", "count", "std_error"])
        for (t, mean), count, std_error in zip(curve.checkpoints, curve.counts, curve.std_errors):
            writer.writerow([t, f"{mean:.10g}", count, "" if std_error is None else f"{std_error:.10g}"])
