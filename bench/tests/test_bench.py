"""The benchmark's own tests: each workload at a small size passes its
checks, and each check fails on a corrupted output.

Run from the root of a checkout: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5
SMALL = {
    "grid": workloads.Grid(replicates=4, lengths=(64, 128, 256, 512, 2048)),
    "converge": workloads.Converge(series_count=2, max_length=2048, t0=64, tu=200),
    "trace": workloads.Trace(bins=2**14, window=2048, stride=512),
}


def _round(workload, tmp: Path, trace: bool = False):
    inputs = workload.prepare(tmp, SEED)
    out = tmp / ("traced" if trace else "round")
    result = run.run_round(workload, inputs, out, SEED, 1, trace, time.monotonic() + 170)
    return out, result


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """small_run(name) -> (workload, run dir, output dir, round result), run once per module."""
    done = {}

    def get(name):
        if name not in done:
            tmp = tmp_path_factory.mktemp(name)
            done[name] = (SMALL[name], tmp, *_round(SMALL[name], tmp))
        return done[name]

    return get


def _copy(small_run, name, tmp_path):
    workload, run_dir, out, result = small_run(name)
    shutil.copytree(out, tmp_path / "out")
    return workload, run_dir, tmp_path / "out", dict(result)


def _check(workload, out, result, run_dir):
    return run.check_outputs(workload, out, SEED, result, run_dir)


def _edit_csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_checks(small_run, name):
    workload, run_dir, out, result = small_run(name)
    problems, failed = _check(workload, out, result, run_dir)
    assert problems == []
    assert failed == 0


def test_grid_detects_swapped_estimates(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "grid", tmp_path)

    def swap(rows):
        whittle = {(r["N"], r["replicate"]): r["estimate"] for r in rows if r["method"] == "whittle"}
        for r in rows:
            if r["method"] == "rs":
                r["estimate"] = whittle[(r["N"], r["replicate"])]
        return rows

    _edit_csv(out / "replicates.csv", swap)
    problems, _ = _check(workload, out, result, run_dir)
    assert any(p.startswith("rs N=") for p in problems)


def test_grid_detects_shifted_summary_bias(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "grid", tmp_path)

    def shift(rows):
        rows[3]["bias"] = f"{float(rows[3]['bias']) + 1e-4:.10g}"
        return rows

    _edit_csv(out / "summary.csv", shift)
    problems, _ = _check(workload, out, result, run_dir)
    assert any("bias/std/mse" in p for p in problems)


def test_grid_detects_whittle_bias_and_wrong_class(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "grid", tmp_path)

    def bias(rows):
        for r in rows:
            if r["method"] == "whittle" and int(r["N"]) == 2048:
                r["bias"] = "0.05"
                r["class"] = "high_precision"
        return rows

    _edit_csv(out / "summary.csv", bias)
    problems, _ = _check(workload, out, result, run_dir)
    assert any(p.startswith("whittle N=2048: |bias|") for p in problems)
    assert any("class high_precision vs poor" in p for p in problems)


def test_grid_detects_wrong_nmin_line(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "grid", tmp_path)
    text = (out / "stdout.txt").read_text(encoding="utf-8")
    lines = [line.rsplit(": ", 1)[0] + ": 64" if "method=rs" in line else line for line in text.splitlines()]
    (out / "stdout.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems, _ = _check(workload, out, result, run_dir)
    assert any(p.startswith("N_min for rs") for p in problems)


def test_autocovariance_gate_passes_exact_fgn_and_rejects_wrong_h():
    rng = np.random.default_rng(3)
    exact = [reference.synthesize_fgn(0.8, 512, rng) for _ in range(200)]
    wrong = [reference.synthesize_fgn(0.75, 512, rng) for _ in range(200)]
    assert checks.check_autocovariance(exact) == []
    assert checks.check_autocovariance(wrong) != []


def test_converge_detects_missing_series(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "converge", tmp_path)
    counts = [list(c) for c in result["convergence_counts"]]
    counts[1][4] -= 1
    result["convergence_counts"] = counts
    problems, _ = _check(workload, out, result, run_dir)
    assert any("checkpoints missing series" in p for p in problems)
    assert checks.converge_failed(workload, result) == 1


def test_converge_detects_shifted_mean(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "converge", tmp_path)

    def shift(rows):
        for r in rows:
            r["mean_estimate"] = f"{float(r['mean_estimate']) + 1e-3:.10g}"
        return rows

    _edit_csv(out / "whittle.csv", shift)
    problems, _ = _check(workload, out, result, run_dir)
    assert any(p.startswith("whittle t=") for p in problems)


def test_converge_detects_rs_replaced_by_whittle(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "converge", tmp_path)
    shutil.copyfile(out / "whittle.csv", out / "rs.csv")
    problems, _ = _check(workload, out, result, run_dir)
    assert any(p.startswith("rs t=") for p in problems)


def test_trace_detects_one_moved_frame(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "trace", tmp_path)
    binned = np.load(out / "binned.npy")
    binned[100] -= 1
    binned[101] += 1
    np.save(out / "binned.npy", binned)
    problems, _ = _check(workload, out, result, run_dir)
    assert [p for p in problems if "frames moved" in p] == [
        "binned series differs from bincount of packets (16384 vs 16384 bins, 2 frames moved)"]


def test_trace_detects_missing_window(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "trace", tmp_path)
    _edit_csv(out / "scan.csv", lambda rows: rows[:-1])
    problems, _ = _check(workload, out, result, run_dir)
    assert any("windows, expected" in p for p in problems)


def test_trace_detects_bad_ci_and_estimates(small_run, tmp_path):
    workload, run_dir, out, result = _copy(small_run, "trace", tmp_path)

    def corrupt(rows):
        rows[0]["ci_low"] = f"{float(rows[0]['H']) + 0.01:.10g}"
        for r in rows:
            r["H"] = f"{float(r['H']) + 0.05:.10g}"
        return rows

    _edit_csv(out / "scan.csv", corrupt)
    problems, _ = _check(workload, out, result, run_dir)
    assert any("does not bracket" in p for p in problems)
    assert any("vs reference" in p for p in problems)
    assert any(p.startswith("mean window H") for p in problems)


def test_traced_round_matches_untraced_outputs(tmp_path):
    workload = SMALL["grid"]
    inputs = workload.prepare(tmp_path, SEED)
    deadline = time.monotonic() + 170
    plain = run.run_round(workload, inputs, tmp_path / "plain", SEED, 1, False, deadline)
    traced = run.run_round(workload, inputs, tmp_path / "traced", SEED, 1, True, deadline)
    assert run.output_digest(tmp_path / "plain") == run.output_digest(tmp_path / "traced")
    layers = run.per_layer(plain, traced)
    fits = workload.replicates * len(workload.lengths)
    assert layers["rs.estimate_rs.calls"] == fits
    assert layers["whittle.minimize_whittle.calls"] == fits
    assert layers["whittle.objective.calls"] == pytest.approx(layers["whittle.evals_per_fit"] * fits)
    assert layers["cli.main.calls"] == 1
    assert layers["traces.parse_capture_csv.calls"] == 0
    assert -1e-9 <= layers["tracing.unspanned_s"] < 0.01 * layers["tracing.wall_s"]
