"""hurstlab benchmark: time one workload for a fixed span and check its outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload grid|converge|trace --seed N --seconds S --trace 0|1

The inputs derive from --seed.  The run repeats whole rounds until S
seconds have passed; each round starts one fresh Python process
(bench/child.py) with BLAS pinned to one thread, which runs the
workload's hurstlab commands through hurstlab.cli.main.  The first round's outputs are checked against
bench/reference.py; every later round must reproduce them byte for byte.
With --trace 0 the last stdout line reports the end-to-end metrics
(medians over rounds); with --trace 1 each round runs the commands
single-process twice, untraced and then with spans at every layer
boundary, and the line reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# A round may not start once this much of the 180 s limit has gone.
HARD_LIMIT_S = 150.0
ENV = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

os.environ.update({k: v for k, v in ENV.items() if k != "PYTHONPATH"})
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import checks  # noqa: E402
import workloads  # noqa: E402


def run_round(workload, inputs: dict, round_dir: Path, seed: int, threads: int, trace: bool,
              deadline: float) -> dict:
    """Run the round's commands in one fresh process and return its figures."""
    round_dir.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "seed": seed,
        "stdout": str(round_dir / "stdout.txt"),
        "spans": str(round_dir / "spans.jsonl"),
        "trace": trace,
        "warmup_methods": list(workload.methods),
        "commands": workload.commands(round_dir, seed, threads, inputs),
    }
    spec_path = round_dir / "process.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = round_dir / "result.json"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(result_path)],
        env={**os.environ, **ENV}, cwd=ROOT, start_new_session=True,
    )
    try:
        return _wait(proc, result_path, deadline)
    finally:
        _stop(proc)


def _wait(proc: subprocess.Popen, result_path: Path, deadline: float) -> dict:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("round exceeded the time limit") from None
    if code != 0:
        raise RuntimeError(f"round process exited with {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if any(result["exit_codes"]):
        raise RuntimeError(f"hurstlab exited with {result['exit_codes']}")
    return result


def _stop(proc: subprocess.Popen) -> None:
    """Kill whatever is left in the process's group (pool workers, or itself) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def output_digest(round_dir: Path) -> str:
    """Hash of the data outputs; manifests carry timestamps and are left out."""
    digest = hashlib.sha256()
    for path in sorted(round_dir.rglob("*")):
        if path.suffix in (".csv", ".npy", ".txt"):
            digest.update(str(path.relative_to(round_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_outputs(workload, out: Path, seed: int, result: dict, run_dir: Path) -> tuple[list[str], int]:
    """(problems, failed operations) for one round's outputs."""
    if workload.name == "grid":
        return checks.check_grid(workload, out, seed), checks.grid_failed(out)
    if workload.name == "converge":
        return checks.check_converge(workload, out, seed, result), checks.converge_failed(workload, result)
    return checks.check_trace(workload, out, seed, run_dir), checks.trace_failed(workload, out)


def end_to_end(result: dict, fits: int, traffic_s: float) -> dict:
    wall = result["wall_s"]
    return {
        "setup_s": result["setup_s"],
        "wall_s": wall,
        "cpu_s": result["cpu_s"],
        "fits_per_s": fits / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "realtime_x": traffic_s / wall,
    }


def per_layer(baseline: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["tracing.wall_s"] = traced["wall_s"]
    layers["tracing.untraced_wall_s"] = baseline["wall_s"]
    layers["tracing.unspanned_s"] = traced["wall_s"] - accounted
    layers["tracing.overhead_pct"] = 100.0 * (traced["wall_s"] / baseline["wall_s"] - 1.0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks stop every round process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hurstlab" / "cli.py").is_file():
        print(f"error: no hurstlab source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(workload, args, run_dir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, args, run_dir: Path, deadline: float) -> int:
    inputs = workload.prepare(run_dir, args.seed)
    fits = workload.fits(inputs)
    traffic_s = workload.samples(inputs) * workloads.BIN_WIDTH_S
    threads = 1 if args.trace else workloads.pool_workers()

    rows: list[dict] = []
    first_result = first_digest = first_dir = None
    began = time.monotonic()
    # Start a round only if one more of average length still ends inside
    # --seconds (and the hard limit), so a run lasts about --seconds.
    while not rows or (
        time.monotonic() + (time.monotonic() - began) / len(rows) <= min(began + args.seconds, deadline)
    ):
        index = len(rows)
        round_dir = run_dir / f"round-{index}"
        if args.trace:
            baseline = run_round(workload, inputs, round_dir / "untraced", args.seed, threads, False, deadline)
            traced = run_round(workload, inputs, round_dir / "traced", args.seed, threads, True, deadline)
            if output_digest(round_dir / "untraced") != output_digest(round_dir / "traced"):
                raise RuntimeError("tracing changed the outputs")
            rows.append(per_layer(baseline, traced))
            result, out = traced, round_dir / "traced"
        else:
            result = run_round(workload, inputs, round_dir, args.seed, threads, False, deadline)
            rows.append(end_to_end(result, fits, traffic_s))
            out = round_dir
        print(f"round {index}: " + " ".join(f"{k}={v:.4g}" for k, v in rows[-1].items()
                                            if k in ("wall_s", "setup_s", "tracing.wall_s")), file=sys.stderr)
        digest = output_digest(out)
        if first_digest is None:
            first_result, first_digest, first_dir = result, digest, out
        else:
            if digest != first_digest:
                raise RuntimeError(f"round {index} outputs differ from round 0 on the same inputs")
            shutil.rmtree(round_dir)

    problems, failed_per_round = check_outputs(workload, first_dir, args.seed, first_result, run_dir)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name}: {len(rows)} rounds, {fits} operations each", file=sys.stderr)
    if args.trace:
        spans = RUNS / "traces" / f"{workload.name}-seed{args.seed}.spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(first_dir / "spans.jsonl", spans)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": statistics.median(row[m["name"]] for row in rows), "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": fits * len(rows),
        "failed": failed_per_round * len(rows),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
