import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hurstlab import cli, evalharness, fgn
from hurstlab.estimators import NoConvergence, whittle
from hurstlab.fgn import EmbeddingNotPSD
from hurstlab.series import write_series_csv
from hurstlab.traces import Unit, bin_to_series, parse_capture_csv


def run_cli(*argv):
    return cli.main(list(argv))


def raise_not_psd(*args, **kwargs):
    raise EmbeddingNotPSD("eigenvalue -1")


def expected_pool_sizes(tasks):
    """The pool sizes a --threads 64 run of this many tasks starts: none when one worker suffices."""
    workers = min(64, tasks, len(os.sched_getaffinity(0)))
    return [workers] if workers > 1 else []


class TestSynth:
    def test_writes_series_of_requested_length(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run_cli("synth", "--hurst", "0.8", "--length", "256", "--seed", "42", "--out", str(out)) == 0
        assert out.read_text().count("\n") == 256
        assert (tmp_path / "series.csv.manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--hurst", "0.8", "--length", "128", "--seed", "7", "--out", str(a))
        run_cli("synth", "--hurst", "0.8", "--length", "128", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_hurst_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("synth", "--hurst", "1.2", "--length", "64", "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "hurst must be in (0,1)" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HURSTLAB_SEED", "99")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        run_cli("synth", "--hurst", "0.6", "--length", "64", "--out", str(a))
        run_cli("synth", "--hurst", "0.6", "--length", "64", "--out", str(b))
        run_cli("synth", "--hurst", "0.6", "--length", "64", "--seed", "99", "--out", str(c))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("synth", "--hurst", "0.7", "--length", "64", "--seed", "3", "--out", str(out))
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["base_seed"] == 3
        assert manifest["parameters"]["hurst"] == "0.7"
        assert manifest["toolkit_version"]
        assert manifest["started"] <= manifest["finished"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_embedding_exits_3_and_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run_cli("synth", "--hurst", "0.8", "--length", "65536", "--variance", "1e308",
                     "--out", str(out))
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: EmbeddingNotPSD: ")
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["status"].startswith("error:EmbeddingNotPSD: ")
        assert not out.exists()


class TestEstimate:
    def test_white_noise_fixture_all_methods(self, white_noise_file, capsys):
        assert run_cli("estimate", str(white_noise_file)) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["estimates"]) == 4
        for entry in report["estimates"]:
            assert {"method", "H", "ci_low", "ci_high", "diagnostics"} <= set(entry)
            assert 0.4 <= entry["H"] <= 0.65
        assert report["manifest"]["command"] == "estimate"

    def test_fgn_fixture_whittle_close_to_nominal(self, fgn08_file, capsys):
        assert run_cli("estimate", str(fgn08_file), "--method", "whittle") == 0
        report = json.loads(capsys.readouterr().out)
        (entry,) = report["estimates"]
        assert 0.77 <= entry["H"] <= 0.83

    def test_short_series_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_series_csv(path, np.arange(63, dtype=float))
        assert run_cli("estimate", str(path)) == 2
        assert "64" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("estimate", str(tmp_path / "nope.csv")) == 2

    def test_estimator_failure_exits_3_with_reason(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_series_csv(path, np.full(128, 5.0))
        rc = run_cli("estimate", str(path), "--method", "rs")
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert "DegenerateSeries" in report["estimates"][0]["error"]

    def test_report_written_to_out(self, white_noise_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli("estimate", str(white_noise_file), "--method", "whittle", "--out", str(out))
        capsys.readouterr()
        assert json.loads(out.read_text())["estimates"][0]["method"] == "whittle"
        assert (tmp_path / "report.json.manifest.json").exists()


class TestBench:
    def test_small_grid_outputs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = run_cli(
            "bench", "--hursts", "0.7,0.8", "--lengths", "64..256", "--replicates", "6",
            "--method", "whittle", "--seed", "11", "--out", str(out),
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "N_min method=whittle H=0.7" in printed
        assert "N_min method=whittle H=0.8" in printed
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,H0,N,bias,std,mse,class"
        assert len(summary) == 1 + 2 * 3  # 2 hursts x 3 lengths
        replicates = (out / "replicates.csv").read_text().splitlines()
        assert len(replicates) == 1 + 2 * 3 * 6
        assert json.loads((out / "manifest.json").read_text())["command"] == "bench"

    def test_threads_do_not_change_results(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (2, "t2")):
            out = tmp_path / name
            rc = run_cli(
                "bench", "--hursts", "0.8", "--lengths", "64,128", "--replicates", "5",
                "--method", "whittle", "--method", "rs", "--seed", "4",
                "--threads", str(threads), "--out", str(out),
            )
            assert rc == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("bench", "--hursts", "0.8", "--lengths", "32,64", "--out", str(tmp_path / "x"))
        assert rc == 2

    def test_cell_without_estimates_gives_no_nmin(self, tmp_path, monkeypatch, capsys):
        def fail(series, method):
            raise NoConvergence("patched failure")

        monkeypatch.setattr(evalharness, "estimate", fail)
        out = tmp_path / "b"
        rc = run_cli(
            "bench", "--hursts", "0.8", "--lengths", "64", "--replicates", "2",
            "--method", "rs", "--out", str(out),
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "N_min method=rs H=0.8: none" in captured.out
        assert "Traceback" not in captured.err
        assert json.loads((out / "manifest.json").read_text())["status"] == "error:flagged cells"

    def test_largest_cell_without_estimates_gives_no_nmin(self, tmp_path, monkeypatch, capsys):
        # Every shorter cell is exact, so only the failed largest cell stands
        # between N = 64 and a printed N_min.
        def exact_below_256(series):
            if len(series) >= 256:
                raise NoConvergence("patched failure")
            return 0.8

        monkeypatch.setattr(evalharness, "whittle_point_value", exact_below_256)
        out = tmp_path / "b"
        rc = run_cli(
            "bench", "--hursts", "0.8", "--lengths", "64,128,256", "--replicates", "4",
            "--method", "whittle", "--seed", "3", "--out", str(out),
        )
        assert rc == 3
        assert "N_min method=whittle H=0.8: none" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["status"] == "error:flagged cells"

    def assert_pool_capped(self, replicates, tasks, tmp_path, recording_pool):
        rc = run_cli(
            "bench", "--hursts", "0.7,0.8", "--lengths", "64", "--replicates", str(replicates),
            "--method", "rs", "--threads", "64", "--out", str(tmp_path / "b"),
        )
        assert rc == 0
        assert recording_pool.sizes == expected_pool_sizes(tasks)
        assert [len(items) for items in recording_pool.items] == [tasks] * len(recording_pool.sizes)

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, recording_pool):
        # 2 cells of 2 replicates: one block, so one task, per cell.
        self.assert_pool_capped(2, 2, tmp_path, recording_pool)

    def test_pool_has_no_more_workers_than_tasks_or_cores(self, tmp_path, recording_pool):
        # 2 cells of 80 replicates: 10 blocks of 8 per cell.
        self.assert_pool_capped(80, 20, tmp_path, recording_pool)

    def test_embedding_failure_flags_only_its_cell(self, tmp_path, monkeypatch, capsys):
        argv = ("bench", "--hursts", "0.7,0.8", "--lengths", "64,128", "--replicates", "10",
                "--method", "rs", "--method", "whittle", "--seed", "5")
        assert run_cli(*argv, "--out", str(tmp_path / "clean")) == 0
        build_embedding = fgn.build_embedding

        def fail_one_cell(spec):
            if (spec.hurst, spec.length) == (0.8, 128):
                raise EmbeddingNotPSD("patched eigenvalue")
            return build_embedding(spec)

        monkeypatch.setattr(fgn, "build_embedding", fail_one_cell)
        out = tmp_path / "failed"
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(out)) == 3
        assert json.loads((out / "manifest.json").read_text())["status"] == "error:flagged cells"
        err = capsys.readouterr().err
        for method in ("rs", "whittle"):
            assert f"replicate failures for method={method} H=0.8 N=128" in err
        assert "H=0.7" not in err and "N=64" not in err

        def split(path, cell):
            lines = path.read_text().splitlines()[1:]
            return [x for x in lines if x.split(",")[1:3] == cell], [x for x in lines if x.split(",")[1:3] != cell]

        failed, failed_rest = split(out / "replicates.csv", ["0.8", "128"])
        clean, clean_rest = split(tmp_path / "clean" / "replicates.csv", ["0.8", "128"])
        assert failed_rest == clean_rest
        assert len(failed) == len(clean) == 2 * 10
        assert all(line.endswith(",,error:EmbeddingNotPSD") for line in failed)
        failed, failed_rest = split(out / "summary.csv", ["0.8", "128"])
        clean, clean_rest = split(tmp_path / "clean" / "summary.csv", ["0.8", "128"])
        assert failed == [] and len(clean) == 2
        assert failed_rest == clean_rest


class TestConverge:
    def test_small_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run_cli(
            "converge", "--method", "whittle", "--hurst", "0.8",
            "--series-count", "2", "--max-length", "664", "--seed", "2", "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mean_estimate,count,std_error"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [64, 264, 464, 664]
        assert [line.split(",")[2] for line in lines[1:]] == ["2"] * 4
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["status"] == "ok"

    def test_degenerate_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = run_cli(
            "converge", "--method", "rs", "--hurst", "0.8",
            "--series-count", "1", "--max-length", "64", "--out", str(out),
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    def test_runtime_failure_recorded_in_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "mean_convergence_curve", raise_not_psd)
        out = tmp_path / "curve.csv"
        rc = run_cli("converge", "--method", "whittle", "--hurst", "0.8", "--out", str(out))
        assert rc == 3
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["status"].startswith("error:")

    def test_mostly_failed_checkpoints_flag_the_run(self, tmp_path, monkeypatch, capsys):
        checkpoint_fit = whittle._checkpoint_fit

        def short_prefixes_fail(series, previous):
            if len(series) < 300:
                raise NoConvergence("patched failure")
            return checkpoint_fit(series, previous)

        monkeypatch.setattr(whittle, "_checkpoint_fit", short_prefixes_fail)
        out = tmp_path / "curve.csv"
        rc = run_cli(
            "converge", "--method", "whittle", "--hurst", "0.8",
            "--series-count", "2", "--max-length", "664", "--seed", "2", "--out", str(out),
        )
        assert rc == 3
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [t for t, mean, _, _ in rows if mean == "nan"] == ["64", "264"]
        assert [(count, std_error) for _, mean, count, std_error in rows if mean == "nan"] == [("0", "")] * 2
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["status"] == "error:flagged checkpoints"
        assert "2 of 4 checkpoints, first at t=64" in capsys.readouterr().err

    def test_bad_t0_is_usage_error(self, tmp_path):
        rc = run_cli(
            "converge", "--method", "whittle", "--hurst", "0.8",
            "--t0", "32", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--hurst", "1.5"), ("--t0", "32"), ("--max-length", "32"), ("--tu", "0"), ("--series-count", "0")],
    )
    def test_bad_plan_names_the_flag(self, flag, value, tmp_path, capsys):
        argv = {"--hurst": "0.8", "--series-count": "1", "--max-length": "64", flag: value}
        args = [item for pair in argv.items() for item in pair]
        rc = run_cli("converge", "--method", "rs", *args, "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_pool_has_no_more_workers_than_series(self, tmp_path, recording_pool):
        rc = run_cli(
            "converge", "--method", "rs", "--hurst", "0.8", "--series-count", "2",
            "--max-length", "264", "--threads", "64", "--out", str(tmp_path / "c.csv"),
        )
        assert rc == 0
        assert recording_pool.sizes == expected_pool_sizes(2)


@pytest.mark.parametrize("command", ["bench", "converge"])
def test_threads_below_one_is_usage_error(command, tmp_path, capsys):
    argv = ["--hurst", "0.8"] if command == "converge" else []
    rc = run_cli(command, *argv, "--threads", "0", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --threads: ")


class TestScan:
    def test_series_input_row_count(self, fgn08_file, tmp_path):
        out = tmp_path / "scan.csv"
        rc = run_cli(
            "scan", str(fgn08_file), "--window", "256", "--stride", "128",
            "--method", "whittle", "--out", str(out),
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 511

    def test_capture_input_monotone_seconds(self, capture_file, tmp_path):
        out = tmp_path / "scan.csv"
        rc = run_cli(
            "scan", str(capture_file), "--window", "256", "--stride", "128",
            "--method", "rs", "--bin-width", "0.01", "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text().splitlines()[1:]
        seconds = [float(line.split(",")[1]) for line in lines]
        assert seconds == sorted(seconds)
        assert len(lines) >= 2

    def test_stride_not_below_window_is_usage_error(self, fgn08_file, tmp_path, capsys):
        rc = run_cli(
            "scan", str(fgn08_file), "--window", "256", "--stride", "256",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "--stride" in capsys.readouterr().err

    def test_runtime_failure_recorded_in_manifest(self, fgn08_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sliding_window_scan", raise_not_psd)
        out = tmp_path / "scan.csv"
        rc = run_cli("scan", str(fgn08_file), "--window", "256", "--out", str(out))
        assert rc == 3
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["status"].startswith("error:")

    def test_mostly_failed_windows_flag_the_run(self, tmp_path, capsys):
        # Whittle needs 64 samples, so every 32-sample window fails.
        series = tmp_path / "series.csv"
        write_series_csv(series, np.random.default_rng(5).standard_normal(1024))
        out = tmp_path / "scan.csv"
        rc = run_cli("scan", str(series), "--window", "32", "--method", "whittle", "--out", str(out))
        assert rc == 3
        assert "63 of 63" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["status"] == "error:flagged windows"
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 63
        assert all(row.endswith(",error:ValueError") for row in rows)

    def test_series_seconds_follow_bin_width(self, series_file, tmp_path):
        rows = {}
        for name, argv in (("default", []), ("given", ["--bin-width", "0.01"])):
            out = tmp_path / f"{name}.csv"
            assert run_cli("scan", str(series_file), "--window", "256", "--method", "rs", *argv,
                           "--out", str(out)) == 0
            rows[name] = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows["default"][:2] == [["0", "0"], ["128", "128"]]
        assert rows["given"][:2] == [["0", "0"], ["128", "1.28"]]

    def test_capture_bin_width_defaults_to_10_ms(self, capture_file, tmp_path):
        outs = []
        for name, argv in (("default", []), ("given", ["--bin-width", "0.01"])):
            out = tmp_path / f"{name}.csv"
            assert run_cli("scan", str(capture_file), "--window", "256", "--method", "rs", *argv,
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_capture_bins_bytes_without_unit(self, capture_file, tmp_path, monkeypatch):
        binned = []

        def recording_bin_to_series(*args, **kwargs):
            binned.append(bin_to_series(*args, **kwargs))
            return binned[-1]

        monkeypatch.setattr(cli, "bin_to_series", recording_bin_to_series)
        out = tmp_path / "scan.csv"
        assert run_cli("scan", str(capture_file), "--window", "256", "--method", "rs",
                       "--out", str(out)) == 0
        assert binned[0].unit is Unit.BYTES
        assert binned[0].values.sum() == parse_capture_csv(capture_file).sizes.sum()
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert "unit" not in manifest["parameters"]

    def test_default_stride_is_half_window(self, fgn08_file, tmp_path):
        out = tmp_path / "scan.csv"
        rc = run_cli("scan", str(fgn08_file), "--window", "512", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        starts = [int(line.split(",")[0]) for line in lines[1:3]]
        assert starts == [0, 256]


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 2


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "hurstlab" in capsys.readouterr().out


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, np.random.default_rng(8).standard_normal(1024))
    return path


# Each command's base argv is a valid, quick plan; a case appends flags
# that override it, so exactly one flag is wrong.
BASE_ARGV = {
    "synth": ["--hurst", "0.8", "--length", "64"],
    "bench": ["--hursts", "0.8", "--lengths", "64", "--replicates", "2", "--method", "rs"],
    "converge": ["--hurst", "0.8", "--series-count", "1", "--max-length", "64"],
    "scan": ["--window", "256"],
}


@pytest.mark.parametrize(
    "command, argv, flag",
    [
        ("synth", "--hurst 1.2", "--hurst"),
        ("synth", "--hurst nan", "--hurst"),
        ("synth", "--length 1", "--length"),
        ("synth", "--variance 0", "--variance"),
        ("synth", "--variance inf", "--variance"),
        ("synth", "--seed -1", "--seed"),
        ("bench", "--hursts 0.8,1.5", "--hursts"),
        ("bench", "--hursts abc", "--hursts"),
        ("bench", "--lengths 32,64", "--lengths"),
        ("bench", "--lengths 0..64", "--lengths"),
        ("bench", "--lengths 64,x", "--lengths"),
        ("bench", "--replicates 1", "--replicates"),
        ("bench", "--threads 0", "--threads"),
        ("bench", "--seed -1", "--seed"),
        ("bench", "--seed 18446744073709551616", "--seed"),
        ("bench", "--seed=-18446744073709551616", "--seed"),
        ("converge", "--hurst 1.5", "--hurst"),
        ("converge", "--t0 32", "--t0"),
        ("converge", "--max-length 32", "--max-length"),
        ("converge", "--tu 0", "--tu"),
        ("converge", "--series-count 0", "--series-count"),
        ("converge", "--threads 0", "--threads"),
        ("converge", "--method rs --method whittle", "--method"),
        ("converge", "--seed -1", "--seed"),
        ("converge", "--seed 18446744073709551616", "--seed"),
        ("scan", "--window 0", "--window"),
        ("scan", "--window -8", "--window"),
        ("scan", "--window 2048", "--window"),
        ("scan", "--stride 256", "--stride"),
        ("scan", "--stride 0", "--stride"),
        ("scan", "--bin-width 0", "--bin-width"),
        ("scan", "--bin-width nan", "--bin-width"),
        ("scan", "--unit frames", "--unit"),
        ("scan", "--method rs --method whittle", "--method"),
    ],
)
def test_rejected_plan_names_the_flag_and_is_recorded(command, argv, flag, series_file, tmp_path, capsys):
    path = [str(series_file)] if command == "scan" else []
    if command == "bench":
        out, manifest = tmp_path / "out", tmp_path / "out" / "manifest.json"
    else:
        out, manifest = tmp_path / "out.csv", tmp_path / "out.csv.manifest.json"
    rc = run_cli(command, *path, *BASE_ARGV[command], *argv.split(), "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert json.loads(manifest.read_text())["status"].startswith(f"error:UsageError: {flag}:")


@pytest.mark.parametrize("command", ["synth", "estimate", "bench", "converge", "scan"])
def test_out_under_a_regular_file_is_usage_error(command, series_file, tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    argv = {**BASE_ARGV, "estimate": ["--method", "rs"]}[command]
    path = [str(series_file)] if command in ("estimate", "scan") else []
    rc = run_cli(command, *path, *argv, "--out", str(regular / "x"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --out: ")


@pytest.mark.parametrize("hurst, flag", [("1.2", "--hurst"), ("0.8", "--out")])
def test_unwritable_manifest_does_not_hide_the_error(hurst, flag, tmp_path, capsys):
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.manifest.json").mkdir()
    rc = run_cli("synth", "--hurst", hurst, "--length", "64", "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


def test_lengths_range_doubles_from_its_start():
    assert cli._parse_int_list("100..1000", "--lengths") == (100, 200, 400, 800)
    assert cli._parse_int_list("64..256", "--lengths") == (64, 128, 256)
    assert cli._parse_int_list("64..63", "--lengths") == ()


def test_commands_run_without_scipy(tmp_path):
    # A fresh interpreter imports the CLI, fits Whittle (so a lazy import
    # would show) and runs a command; scipy must never have been imported.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from hurstlab import cli\n"
        "from hurstlab.estimators import estimate\n"
        "estimate(np.random.default_rng(0).standard_normal(256), 'whittle')\n"
        "code = cli.main(['synth', '--hurst', '0.8', '--length', '128', '--seed', '1', '--out', sys.argv[1]])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "series.csv")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "0 []"


def run_under_blas_threads(threads, *argv):
    """Run python with argv in a child whose BLAS thread counts are all set
    to threads.  Set outright: conftest pins them only by setdefault."""
    src = Path(__file__).resolve().parents[1] / "src"
    pins = {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, **pins, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bench_outputs_do_not_depend_on_blas_threads(tmp_path):
    # A Whittle grid at N >= 2^15, run under 1 and 2 BLAS threads, writes
    # the same bytes.
    for threads in (1, 2):
        run_under_blas_threads(
            threads, "-m", "hurstlab.cli", "bench", "--hursts", "0.8", "--lengths", "32768,65536",
            "--replicates", "8", "--method", "whittle", "--seed", "1", "--out", str(tmp_path / str(threads)),
        )
    for name in ("summary.csv", "replicates.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_converge_and_transform_estimates_do_not_depend_on_blas_threads(tmp_path):
    # The warm-started Whittle curve up to 2^16, and the periodogram and
    # Abry-Veitch estimates at 2^16, under 1 and 2 BLAS threads.
    script = (
        "from hurstlab.estimators import estimate_abry_veitch, estimate_periodogram\n"
        "from hurstlab.fgn import FgnSpec, synthesize_fgn\n"
        "for seed in range(1, 5):\n"
        "    x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=seed))\n"
        "    print(repr(estimate_periodogram(x).value), repr(estimate_abry_veitch(x).value))\n"
    )
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"whittle{threads}.csv"
        run_under_blas_threads(
            threads, "-m", "hurstlab.cli", "converge", "--method", "whittle", "--hurst", "0.8",
            "--series-count", "2", "--max-length", "65536", "--tu", "2000", "--seed", "1", "--out", str(out),
        )
        outputs.append((out.read_bytes(), run_under_blas_threads(threads, "-c", script).split()))
    assert len(outputs[0][0].splitlines()) == 34
    assert len(outputs[0][1]) == 8
    assert outputs[0] == outputs[1]
