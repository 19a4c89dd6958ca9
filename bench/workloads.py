"""The three benchmark workloads: what each runs, on which inputs.

grid      the paper's main experiment, `hurstlab bench` on the acceptance
          grid's shape (H = 0.8, N = 2^6 .. 2^16, all four methods) with
          the process pool.  Every replicate is a new series, so synthesis
          is about a third of the work.
converge  `hurstlab converge` for Whittle and for R/S over 2^16-sample
          series with t0 = 64, tu = 200 (328 prefix fits per series): the
          fits share their data, synthesis is under 1%.
trace     `hurstlab scan` of one generated ~10^6-packet capture counted
          in frames per 10 ms bin, Whittle windows with CI: ingestion-bound.

All inputs derive from the benchmark seed; the program only sees the
command lines and the capture file.  commands() lists the command lines a
round runs, one after the other, in one process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import reference

HURST = 0.8
# Every sample is read as one 10 ms bin of traffic, the bin width of the
# trace capture, so realtime_x compares like with like across workloads.
BIN_WIDTH_S = 0.01


def pool_workers() -> int:
    """The pool size for pooled workloads: the usable cores, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Grid:
    replicates: int = 32
    lengths: tuple = tuple(2**i for i in range(6, 17))
    methods: tuple = ("rs", "periodogram", "whittle", "abry_veitch")
    name: str = "grid"

    def commands(self, out, seed: int, threads: int, _inputs) -> list[list[str]]:
        return [["bench", "--hursts", str(HURST),
                 "--lengths", ",".join(str(n) for n in self.lengths),
                 "--replicates", str(self.replicates),
                 *[arg for m in self.methods for arg in ("--method", m)],
                 "--seed", str(seed), "--threads", str(threads), "--out", str(out)]]

    def fits(self, _inputs) -> int:
        return self.replicates * len(self.lengths) * len(self.methods)

    def samples(self, _inputs) -> int:
        return self.replicates * sum(self.lengths)

    def prepare(self, run_dir, seed: int) -> dict:
        return {}


@dataclass(frozen=True)
class Converge:
    series_count: int = 2
    max_length: int = 2**16
    t0: int = 64
    tu: int = 200
    methods: tuple = ("whittle", "rs")
    name: str = "converge"

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(range(self.t0, self.max_length + 1, self.tu))

    def commands(self, out, seed: int, threads: int, _inputs) -> list[list[str]]:
        return [["converge", "--method", m, "--hurst", str(HURST),
                 "--series-count", str(self.series_count), "--max-length", str(self.max_length),
                 "--t0", str(self.t0), "--tu", str(self.tu),
                 "--seed", str(seed), "--threads", str(threads), "--out", str(out / f"{m}.csv")]
                for m in self.methods]

    def fits(self, _inputs) -> int:
        return self.series_count * len(self.checkpoints) * len(self.methods)

    def samples(self, _inputs) -> int:
        # Both commands analyse the same series (same child seeds).
        return self.series_count * self.max_length

    def prepare(self, run_dir, seed: int) -> dict:
        return {}


@dataclass(frozen=True)
class Trace:
    bins: int = 2**15
    rate: float = 30.0  # mean packets per bin
    sigma: float = 5.0  # standard deviation of packets per bin
    window: int = 4096
    stride: int = 512
    methods: tuple = ("whittle",)
    name: str = "trace"

    def commands(self, out, seed: int, _threads: int, inputs) -> list[list[str]]:
        return [["scan", inputs["capture"], "--window", str(self.window),
                 "--stride", str(self.stride), "--method", "whittle",
                 "--bin-width", str(BIN_WIDTH_S), "--unit", "frames",
                 "--seed", str(seed), "--out", str(out / "scan.csv")]]

    def fits(self, inputs) -> int:
        return (inputs["bins"] - self.window) // self.stride + 1

    def samples(self, inputs) -> int:
        return inputs["bins"]

    def prepare(self, run_dir, seed: int) -> dict:
        """Write capture.csv: rint(rate + sigma * fGn_H) frames per 10 ms bin.

        Arrival times are uniform inside the middle 98% of their bin and
        printed to the microsecond, so no rounding moves a frame across a
        bin edge; frame sizes are uniform on 64 .. 1518 bytes.  The frames'
        bin numbers go to packet_bins.npy for the checks.
        """
        rng = np.random.default_rng([seed, 7])
        noise = reference.synthesize_fgn(HURST, self.bins, rng)
        counts = np.maximum(np.rint(self.rate + self.sigma * noise), 0).astype(np.int64)
        bins = np.repeat(np.arange(self.bins), counts)
        offsets = rng.uniform(0.01, 0.99, bins.size)
        order = np.lexsort((offsets, bins))
        micros = np.rint((bins[order] + offsets[order]) * BIN_WIDTH_S * 1e6).astype(np.int64)
        sizes = rng.integers(64, 1519, bins.size)
        lines = [f"{t // 1_000_000}.{t % 1_000_000:06d},{s}" for t, s in zip(micros.tolist(), sizes.tolist())]
        path = run_dir / "capture.csv"
        path.write_text("timestamp,bytes\n" + "\n".join(lines) + "\n", encoding="utf-8")
        np.save(run_dir / "packet_bins.npy", bins[order])
        return {"capture": str(path), "bins": int(bins.max()) - int(bins.min()) + 1}


WORKLOADS = {w.name: w for w in (Grid(), Converge(), Trace())}
