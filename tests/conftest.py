import os
from types import SimpleNamespace

# Single-threaded BLAS: the suite's hot paths are small matvecs where
# OpenBLAS threading only adds handshake overhead, and pool workers
# already occupy every core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from hurstlab import evalharness
from hurstlab.fgn import FgnSpec, synthesize_fgn
from hurstlab.series import write_series_csv


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the harness's process pool: record each pool's
    max_workers and the items it is given, and run its tasks in this
    process, so no process starts."""
    sizes, given = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, task, items):
            given.append(list(items))
            return map(task, given[-1])

    monkeypatch.setattr(evalharness, "ProcessPoolExecutor", RecordingPool)
    return SimpleNamespace(sizes=sizes, items=given)


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fixtures")


@pytest.fixture(scope="session")
def white_noise_file(fixture_dir):
    path = fixture_dir / "white_noise.csv"
    write_series_csv(path, synthesize_fgn(FgnSpec(hurst=0.5, length=2**14, seed=101)))
    return path


@pytest.fixture(scope="session")
def fgn08_file(fixture_dir):
    path = fixture_dir / "fgn_h08_n65536.csv"
    write_series_csv(path, synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=202)))
    return path


@pytest.fixture(scope="session")
def capture_file(fixture_dir):
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 60.0, 20000))
    sizes = rng.integers(64, 1500, times.size)
    path = fixture_dir / "capture.csv"
    with open(path, "w") as fh:
        fh.write("timestamp,bytes\n")
        for t, s in zip(times, sizes):
            fh.write(f"{t:.6f},{s}\n")
    return path
