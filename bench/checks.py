"""Output checks for each workload, against reference.py and method properties.

Each check_* function reads one round's outputs and returns a list of
failure messages (empty when every check passes).  Series are regenerated
from the documented replicate seeds with the program's own synthesizer;
the estimates and statistics they are compared with come from reference.py.
None of this is timed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference
from workloads import BIN_WIDTH_S, HURST

# Tolerances.  R/S and periodogram match the references to ~1e-15; the CSVs
# print 10 significant digits, so 1e-9 covers the rounding.  The program's
# Whittle minimizer stops at xatol = 1e-4 (measured |dH| <= 1.6e-5), so
# Whittle gets twice that.  The Abry-Veitch reference uses the published
# 16-digit Daubechies taps.
TOLERANCE = {"rs": 1e-9, "periodogram": 1e-9, "whittle": 2e-4, "abry_veitch": 1e-8}
SUMMARY_TOLERANCE = 1e-8
# Pooled autocovariance gate, in standard errors.  With 3 SE per lag the
# eleven lags 0..10 together fired on 18 of 1000 simulated exact-fGn runs;
# 4.5 SE fired on none, and a series made with H = 0.75 misses by > 10 SE.
ACOV_SE_GATE = 4.5
ACOV_LAGS = 11
ACOV_LENGTHS = tuple(2**i for i in range(6, 13))
WHITTLE_MAX_BIAS = 0.03
WHITTLE_BIAS_FROM = 2**11
TRACE_MEAN_H_TOLERANCE = 0.03
SAMPLED_PER_LENGTH = 2
SAMPLED_CHECKPOINTS = 4
SAMPLED_WINDOWS = 6


def program_series(base_seed: int, length: int, index: int) -> np.ndarray:
    """Replicate `index` of length N, as hurstlab synthesizes it inside bench and converge."""
    from hurstlab.fgn import FgnSpec, child_seed, hurst_key, synthesize_fgn

    seed = child_seed(base_seed, hurst_key(HURST), length, index)
    return synthesize_fgn(FgnSpec(hurst=HURST, length=length, seed=seed)).values


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _classify(bias: float, std: float) -> str:
    if abs(bias) <= 0.03 and std <= 0.015:
        return "high_precision"
    if 0.03 < abs(bias) < 0.05 and std <= 0.02:
        return "acceptable"
    if abs(bias) > 0.1:
        return "biased"
    return "poor"


def grid_failed(out: Path) -> int:
    return sum(row["status"] != "ok" for row in _rows(out / "replicates.csv"))


def check_grid(workload, out: Path, seed: int) -> list[str]:
    problems: list[str] = []
    rows = _rows(out / "replicates.csv")
    expected = workload.replicates * len(workload.lengths) * len(workload.methods)
    if len(rows) != expected:
        problems.append(f"replicates.csv has {len(rows)} rows, expected {expected}")
    estimates: dict[tuple[str, int], dict[int, float]] = {}
    for row in rows:
        if row["status"] == "ok":
            estimates.setdefault((row["method"], int(row["N"])), {})[int(row["replicate"])] = float(row["estimate"])

    rng = np.random.default_rng([seed, 11])
    for length in workload.lengths:
        for index in rng.choice(workload.replicates, SAMPLED_PER_LENGTH, replace=False).tolist():
            x = program_series(seed, length, index)
            for method in workload.methods:
                got = estimates.get((method, length), {}).get(index)
                want = reference.ESTIMATORS[method](x)
                if got is None or abs(got - want) > TOLERANCE[method]:
                    problems.append(f"{method} N={length} replicate {index}: {got} vs reference {want:.10g}")

    problems += check_autocovariance(
        [program_series(seed, n, i) for n in ACOV_LENGTHS if n in workload.lengths for i in range(workload.replicates)])

    summary = _rows(out / "summary.csv")
    nmin_found: dict[str, int | None] = {}
    for row in sorted(summary, key=lambda r: (r["method"], int(r["N"]))):
        method, length = row["method"], int(row["N"])
        values = np.array(list(estimates.get((method, length), {}).values()))
        if values.size < 2:
            problems.append(f"summary row {method} N={length} has no replicates behind it")
            continue
        bias, std, mse = float(row["bias"]), float(row["std"]), float(row["mse"])
        want = (HURST - values.mean(), values.std(ddof=1), ((values - HURST) ** 2).mean())
        if any(abs(a - b) > SUMMARY_TOLERANCE for a, b in zip((bias, std, mse), want)):
            problems.append(f"summary {method} N={length}: bias/std/mse {bias}, {std}, {mse} vs {want}")
        if row["class"] != _classify(bias, std):
            problems.append(f"summary {method} N={length}: class {row['class']} vs {_classify(bias, std)}")
        if method == "whittle" and length >= WHITTLE_BIAS_FROM and abs(bias) > WHITTLE_MAX_BIAS:
            problems.append(f"whittle N={length}: |bias| {abs(bias):.4f} > {WHITTLE_MAX_BIAS}")
        if row["class"] != "high_precision":
            nmin_found[method] = None
        elif nmin_found.get(method) is None:
            nmin_found[method] = length
    if len(summary) != len(workload.lengths) * len(workload.methods):
        problems.append(f"summary.csv has {len(summary)} rows")

    printed = {}
    for line in (out / "stdout.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("N_min method="):
            head, value = line.rsplit(": ", 1)
            printed[head.split()[1].split("=")[1]] = None if value == "none" else int(value)
    for method in workload.methods:
        if method not in printed or printed[method] != nmin_found.get(method):
            problems.append(f"N_min for {method}: printed {printed.get(method, 'nothing')}, "
                            f"summary classes give {nmin_found.get(method)}")
    return problems


def check_autocovariance(all_series: list[np.ndarray]) -> list[str]:
    """Pooled lag-k products of exact fGn are unbiased for rho(k): gate each lag."""
    per_series = np.array([[x[: x.size - k] @ x[k:] / (x.size - k) for k in range(ACOV_LAGS)]
                           for x in all_series])
    mean = per_series.mean(axis=0)
    se = per_series.std(axis=0, ddof=1) / math.sqrt(len(all_series))
    want = reference.fgn_autocovariance(HURST, np.arange(ACOV_LAGS))
    z = np.abs(mean - want) / se
    return [f"autocovariance lag {k}: {mean[k]:.5f} vs {want[k]:.5f} ({z[k]:.1f} SE)"
            for k in range(ACOV_LAGS) if z[k] > ACOV_SE_GATE]


def converge_failed(workload, kept: dict) -> int:
    return sum(workload.series_count - c for counts in kept.get("convergence_counts", []) for c in counts)


def check_converge(workload, out: Path, seed: int, kept: dict) -> list[str]:
    problems: list[str] = []
    all_counts = kept.get("convergence_counts", [])
    if len(all_counts) != len(workload.methods):
        problems.append(f"{len(all_counts)} convergence curves kept, expected {len(workload.methods)}")
    for method, counts in zip(workload.methods, all_counts):
        short = [t for t, c in zip(workload.checkpoints, counts) if c != workload.series_count]
        if len(counts) != len(workload.checkpoints) or short:
            problems.append(f"{method}: checkpoints missing series: {short[:5]}")

    rng = np.random.default_rng([seed, 13])
    sampled = sorted(rng.choice(workload.checkpoints, SAMPLED_CHECKPOINTS, replace=False).tolist())
    full = [program_series(seed, workload.max_length, i) for i in range(workload.series_count)]
    for method in workload.methods:
        rows = _rows(out / f"{method}.csv")
        curve = {int(r["t"]): float(r["mean_estimate"]) for r in rows}
        if list(curve) != list(workload.checkpoints):
            problems.append(f"{method}: checkpoints {list(curve)[:3]}... differ from t0, t0+tu, ...")
        for t in sampled:
            want = float(np.mean([reference.ESTIMATORS[method](x[:t]) for x in full]))
            got = curve.get(t, math.nan)
            if not abs(got - want) <= TOLERANCE[method]:
                problems.append(f"{method} t={t}: mean {got} vs reference {want:.10g}")
    return problems


def trace_failed(workload, out: Path) -> int:
    return sum(row["status"] != "ok" for row in _rows(out / "scan.csv"))


def check_trace(workload, out: Path, seed: int, run_dir: Path) -> list[str]:
    packet_bins = np.load(run_dir / "packet_bins.npy")
    problems: list[str] = []
    first = int(packet_bins.min())
    want = np.bincount(packet_bins - first).astype(float)
    binned = np.load(out / "binned.npy")
    if binned.shape != want.shape or not np.array_equal(binned, want):
        moved = int(np.abs(binned - want).sum()) if binned.shape == want.shape else -1
        problems.append(f"binned series differs from bincount of packets ({binned.size} vs {want.size} bins, "
                        f"{moved} frames moved)")
    origin = float((out / "binned_origin.txt").read_text(encoding="utf-8"))
    if not math.isclose(origin, first * BIN_WIDTH_S, abs_tol=1e-9):
        problems.append(f"bin origin {origin} vs {first * BIN_WIDTH_S}")

    rows = _rows(out / "scan.csv")
    expected_windows = (want.size - workload.window) // workload.stride + 1
    if len(rows) != expected_windows:
        problems.append(f"{len(rows)} windows, expected floor((M - w)/s) + 1 = {expected_windows}")
    ok = [r for r in rows if r["status"] == "ok"]
    for r in ok:
        h, lo, hi = float(r["H"]), float(r["ci_low"] or "nan"), float(r["ci_high"] or "nan")
        if not lo <= h <= hi:
            problems.append(f"window {r['t_start_index']}: CI [{lo}, {hi}] does not bracket {h}")
    starts = [int(r["t_start_index"]) for r in rows]
    if starts != list(range(0, workload.stride * len(rows), workload.stride)):
        problems.append("window starts are not 0, s, 2s, ...")

    rng = np.random.default_rng([seed, 17])
    for r in rng.choice(ok, min(SAMPLED_WINDOWS, len(ok)), replace=False).tolist():
        start = int(r["t_start_index"])
        ref = reference.whittle_estimate(want[start : start + workload.window])
        if abs(float(r["H"]) - ref) > TOLERANCE["whittle"]:
            problems.append(f"window {start}: H {r['H']} vs reference {ref:.10g}")
    mean_h = float(np.mean([float(r["H"]) for r in ok])) if ok else math.nan
    if not abs(mean_h - HURST) <= TRACE_MEAN_H_TOLERANCE:
        problems.append(f"mean window H {mean_h:.4f} is not within {TRACE_MEAN_H_TOLERANCE} of {HURST}")
    return problems
