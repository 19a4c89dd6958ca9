"""Steadiness of the benchmark: two interleaved sets of runs, quartiles, and drift.

    python3 bench/steady.py run --runs 10 --out .bench_runs/sets.json
    python3 bench/steady.py compare .bench_runs/sets.json

`run` makes two sets of runs of the command in BENCHMARK.json, with
run_seconds and tracing off, for every workload: set 1 on seeds 1..runs,
set 2 on seeds runs+1..2*runs.  The two sets alternate run by run, so a
change of host speed during the sets hits both alike.  Every call is a
fresh process.  `run` saves every result line and then compares the sets
as `compare` does.

`compare` prints, per workload and end-to-end metric, each set's median,
quartiles and spread (q3 - q1) / median, and the second median's change
in the metric's worse direction; both are judged against the metric's
bound.  It also compares the share of failed operations, which must be
identical.  It exits 1 when any spread or change exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_once(bench: dict, name: str, seed: int) -> dict:
    argv = [*bench["command"], "--workload", name, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["seed"] = seed
    values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
    print(f"{name} seed={seed} correct={line['correct']} failed={line['failed']}/{line['attempted']} "
          f"{values}", flush=True)
    return line


def run_sets(runs: int) -> list[dict]:
    """Two sets {workload: [result line, ...]}, made alternately."""
    bench = _benchmark()
    sets: list[dict] = [{}, {}]
    for workload in bench["workloads"]:
        name = workload["name"]
        for index in range(runs):
            for number, results in enumerate(sets):
                results.setdefault(name, []).append(_run_once(bench, name, 1 + number * runs + index))
    return sets


def compare(sets: list[dict]) -> bool:
    bench = _benchmark()
    ok = True
    for name in sets[0]:
        print(f"\n{name}")
        shares = [sum(r["failed"] for r in s[name]) / sum(r["attempted"] for r in s[name]) for s in sets]
        correct = all(r["correct"] for s in sets for r in s[name])
        print(f"  correct in every run: {correct}; failed share per set: {shares}")
        ok &= correct and len(set(shares)) == 1
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for s in sets:
                values = [r["metrics"][key]["value"] for r in s[name]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                cells.append(f"median {median:.5g} [q1 {q1:.5g}, q3 {q3:.5g}] spread {spread:.1%}")
                ok &= spread <= bound
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            ok &= worse <= bound
            print(f"  {key:12s} bound {bound:.0%}: " + " | ".join(cells) + f" | second set worse by {worse:+.1%}")
    print("\nwithin bounds" if ok else "\nOUT OF BOUNDS")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="make two interleaved sets of runs and compare them")
    run.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare", help="compare the two sets saved by run")
    cmp.add_argument("sets")
    args = parser.parse_args(argv)

    if args.command == "run":
        sets = run_sets(args.runs)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(sets, indent=1) + "\n", encoding="utf-8")
    else:
        sets = json.loads(Path(args.sets).read_text(encoding="utf-8"))
    return 0 if compare(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
