"""One process of a timed round: a fresh Python process running hurstlab.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec names the source tree, the hurstlab command lines, the methods
to warm up, whether to trace, and where to put stdout and spans.  The process times set-up
(importing hurstlab and one warm-up fit per method), then each command
through hurstlab.cli.main, and writes its figures to RESULT_JSON.
Run by run.py, which sets PYTHONPATH and pins BLAS to one thread.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
    # reaped child, i.e. the largest pool worker.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _keep_results(cli, kept: dict) -> None:
    """Keep what two library calls return, for the checks: one extra call each."""
    converge = cli.mean_convergence_curve
    binning = cli.bin_to_series

    def mean_convergence_curve(*args, **kwargs):
        curve = converge(*args, **kwargs)
        kept.setdefault("convergence_counts", []).append(list(curve.counts))
        return curve

    def bin_to_series(*args, **kwargs):
        binned = binning(*args, **kwargs)
        kept["binned"] = binned
        return binned

    cli.mean_convergence_curve = mean_convergence_curve
    cli.bin_to_series = bin_to_series


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))

    start = time.perf_counter()
    import hurstlab
    from hurstlab import cli
    from hurstlab.estimators import estimate

    if not Path(hurstlab.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"child: hurstlab imported from {hurstlab.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    import numpy as np

    warmup = np.random.default_rng(spec["seed"]).standard_normal(1024)
    for method in spec["warmup_methods"]:
        estimate(warmup, method)
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.install()
    kept: dict = {}
    _keep_results(cli, kept)

    wall_s = 0.0
    exit_codes = []
    cpu_before = _cpu_seconds()
    with open(spec["stdout"], "w", encoding="utf-8") as stdout:
        for argv in spec["commands"]:
            with contextlib.redirect_stdout(stdout):
                began = time.perf_counter()
                exit_codes.append(cli.main(argv))
                wall_s += time.perf_counter() - began
            binned = kept.pop("binned", None)
            if binned is not None:
                command_dir = Path(argv[argv.index("--out") + 1]).parent
                np.save(command_dir / "binned.npy", binned.values)
                (command_dir / "binned_origin.txt").write_text(repr(binned.origin), encoding="utf-8")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu_seconds() - cpu_before,
        "peak_rss_mb": _peak_rss_mb(),
        "exit_codes": exit_codes,
    }
    if "convergence_counts" in kept:
        result["convergence_counts"] = kept["convergence_counts"]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(spec["spans"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
