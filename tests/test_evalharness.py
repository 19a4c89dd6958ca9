import numpy as np
import pytest

from hurstlab import evalharness
from hurstlab.estimators import FIT_FAILURES, Method, estimate, estimate_whittle
from hurstlab.estimators.whittle import whittle_point_value
from hurstlab.evalharness import (
    ALL_METHODS,
    REPLICATE_BLOCK,
    ConvergenceCurve,
    ExperimentGrid,
    Precision,
    ReplicateRecord,
    StatsSummary,
    classify_precision,
    find_nmin,
    mean_convergence_curve,
    run_grid,
    summarize_replicates,
    write_convergence_csv,
    write_replicates_csv,
    write_summary_csv,
)
from hurstlab.fgn import FgnSpec, child_seed, hurst_key, synthesize_fgn


class TestSummarizeReplicates:
    def test_exact_estimates(self):
        stats = summarize_replicates([0.8, 0.8, 0.8], 0.8)
        assert stats.bias == pytest.approx(0.0, abs=1e-15)
        assert stats.std_dev == pytest.approx(0.0, abs=1e-15)
        assert stats.mse == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_spread(self):
        stats = summarize_replicates([0.7, 0.9], 0.8)
        assert stats.bias == pytest.approx(0.0, abs=1e-15)
        assert stats.std_dev == pytest.approx(np.sqrt(0.02), rel=1e-12)
        assert stats.mse == pytest.approx(0.01, rel=1e-12)

    def test_pure_bias_positive_means_underestimation(self):
        stats = summarize_replicates([0.75] * 4, 0.8)
        assert stats.bias == pytest.approx(0.05, rel=1e-12)
        assert stats.std_dev == 0.0
        assert stats.mse == pytest.approx(0.0025, rel=1e-12)

    def test_requires_two_estimates(self):
        with pytest.raises(ValueError):
            summarize_replicates([0.8], 0.8)
        with pytest.raises(ValueError):
            summarize_replicates([0.8, np.nan], 0.8)

    @pytest.mark.parametrize("seed", range(5))
    def test_mse_identity(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.2, 0.9, rng.integers(2, 40))
        stats = summarize_replicates(values, 0.7)
        n = values.size
        identity = stats.bias**2 + (n - 1) / n * stats.std_dev**2
        assert stats.mse == pytest.approx(identity, abs=1e-12)
        assert stats.mse >= stats.bias**2 - 1e-12


class TestClassifyPrecision:
    @pytest.mark.parametrize(
        "bias,std,expected",
        [
            (0.02, 0.01, Precision.HIGH_PRECISION),
            (0.04, 0.018, Precision.ACCEPTABLE),
            (0.12, 0.5, Precision.BIASED),
            (0.07, 0.03, Precision.POOR),
            (-0.02, 0.01, Precision.HIGH_PRECISION),
            (-0.12, 0.01, Precision.BIASED),
            (0.05, 0.01, Precision.POOR),
            (0.1, 0.01, Precision.POOR),
            (0.03, 0.015, Precision.HIGH_PRECISION),
            (0.02, 0.5, Precision.POOR),
        ],
    )
    def test_rules(self, bias, std, expected):
        assert classify_precision(bias, std) is expected

    def test_total_over_a_mesh(self):
        for bias in np.linspace(-0.5, 0.5, 41):
            for std in np.linspace(0.0, 0.3, 31):
                assert classify_precision(bias, std) in Precision

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            classify_precision(np.nan, 0.01)


class TestExperimentGrid:
    def test_defaults_match_benchmark_plan(self):
        grid = ExperimentGrid()
        assert grid.hursts == (0.5, 0.6, 0.7, 0.8, 0.9)
        assert grid.lengths == tuple(2**i for i in range(6, 17))
        assert grid.replicates == 200
        assert len(grid.methods) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentGrid(hursts=(1.5,))
        with pytest.raises(ValueError):
            ExperimentGrid(lengths=(32,))
        with pytest.raises(ValueError):
            ExperimentGrid(replicates=1)


def reference_records(grid):
    """The grid's records from one synthesize_fgn per replicate seed, in grid order."""
    records = []
    for hurst in grid.hursts:
        for length in grid.lengths:
            series = [
                synthesize_fgn(FgnSpec(hurst=hurst, length=length,
                                       seed=child_seed(grid.base_seed, hurst_key(hurst), length, r)))
                for r in range(grid.replicates)
            ]
            for method in grid.methods:
                for replicate, one in enumerate(series):
                    try:
                        value = whittle_point_value(one) if method is Method.WHITTLE else estimate(one, method).value
                        records.append(ReplicateRecord(method, hurst, length, replicate, value, "ok"))
                    except FIT_FAILURES as exc:
                        records.append(ReplicateRecord(method, hurst, length, replicate, None,
                                                       f"error:{type(exc).__name__}"))
    return tuple(records)


class TestRunGrid:
    def test_smallest_grid(self):
        grid = ExperimentGrid(
            hursts=(0.5,), lengths=(64,), replicates=2,
            methods=(Method.WHITTLE, Method.RS), base_seed=1,
        )
        result = run_grid(grid)
        assert len(result.records) == 4  # 2 replicates x 2 methods
        assert len(result.summaries) == 2
        for s in result.summaries:
            assert np.isfinite([s.bias, s.std_dev, s.mse]).all()

    def test_methods_share_series_and_seed_derivation_is_stable(self):
        grid = ExperimentGrid(
            hursts=(0.7,), lengths=(128,), replicates=3,
            methods=(Method.WHITTLE, Method.PERIODOGRAM), base_seed=9,
        )
        result = run_grid(grid)
        for record in result.records:
            seed = child_seed(9, hurst_key(0.7), 128, record.replicate)
            series = synthesize_fgn(FgnSpec(hurst=0.7, length=128, seed=seed))
            expected = estimate(series, record.method).value
            assert record.estimate == pytest.approx(expected, abs=1e-12)

    def test_deterministic_across_thread_counts(self):
        grid = ExperimentGrid(
            hursts=(0.6, 0.8), lengths=(64, 128), replicates=4,
            methods=(Method.WHITTLE,), base_seed=5,
        )
        assert run_grid(grid, threads=1) == run_grid(grid, threads=2)

    @pytest.mark.parametrize("replicates", [10, 17])
    def test_blocks_match_per_replicate_reference(self, replicates):
        # Neither count is a multiple of the block, so each cell ends in a short block.
        assert replicates % REPLICATE_BLOCK
        grid = ExperimentGrid(
            hursts=(0.6, 0.8), lengths=(64, 200, 1024), replicates=replicates,
            methods=ALL_METHODS, base_seed=21,
        )
        serial = run_grid(grid, threads=1)
        assert serial.records == reference_records(grid)
        assert run_grid(grid, threads=2) == serial

    def test_pool_gets_largest_blocks_first_and_records_return_in_grid_order(self, recording_pool, monkeypatch):
        monkeypatch.setattr(evalharness, "_usable_cores", lambda: 2)
        grid = ExperimentGrid(
            hursts=(0.6, 0.8), lengths=(64, 128, 256), replicates=10, methods=(Method.RS,), base_seed=3,
        )
        result = run_grid(grid, threads=2)
        (items,) = recording_pool.items
        work = [length * (stop - start) for _, length, start, stop, *_ in items]
        assert work == sorted(work, reverse=True)
        assert sorted((h, n, start, stop) for h, n, start, stop, *_ in items) == [
            (h, n, start, min(start + REPLICATE_BLOCK, 10))
            for h in grid.hursts for n in grid.lengths for start in range(0, 10, REPLICATE_BLOCK)
        ]
        assert [(r.hurst_nominal, r.length, r.replicate) for r in result.records] == [
            (h, n, r) for h in grid.hursts for n in grid.lengths for r in range(10)
        ]
        assert result == run_grid(grid, threads=1)


def _summary(method, hurst, length, precision):
    return StatsSummary(
        method=method, hurst_nominal=hurst, length=length,
        bias=0.0, std_dev=0.0, mse=0.0, precision=precision,
    )


class TestFindNmin:
    def test_threshold_at_256(self):
        rows = [
            _summary(Method.WHITTLE, 0.8, 2**i,
                     Precision.HIGH_PRECISION if 2**i >= 256 else Precision.POOR)
            for i in range(6, 17)
        ]
        assert find_nmin(rows, Method.WHITTLE, 0.8) == 256

    def test_absent_when_never_high_precision(self):
        rows = [_summary(Method.RS, 0.8, 2**i, Precision.BIASED) for i in range(6, 17)]
        assert find_nmin(rows, Method.RS, 0.8) is None

    def test_monotone_suffix_rule_skips_isolated_pass(self):
        precisions = {
            2**10: Precision.HIGH_PRECISION,
            2**11: Precision.POOR,
        }
        rows = [
            _summary(Method.WHITTLE, 0.8, 2**i,
                     precisions.get(2**i, Precision.HIGH_PRECISION if 2**i >= 2**12 else Precision.POOR))
            for i in range(6, 17)
        ]
        assert find_nmin(rows, Method.WHITTLE, 0.8) == 2**12

    def test_absent_when_largest_cell_fails(self):
        rows = [
            _summary(Method.WHITTLE, 0.8, 2**i,
                     Precision.HIGH_PRECISION if i < 16 else Precision.POOR)
            for i in range(6, 17)
        ]
        assert find_nmin(rows, Method.WHITTLE, 0.8) is None

    def test_empty_slice_rejected(self):
        rows = [_summary(Method.RS, 0.8, 64, Precision.POOR)]
        with pytest.raises(ValueError):
            find_nmin(rows, Method.WHITTLE, 0.8)


class TestMeanConvergenceCurve:
    def test_degenerate_single_checkpoint(self):
        curve = mean_convergence_curve(
            Method.WHITTLE, 0.8, series_count=1, max_length=64, t0=64, tu=200, base_seed=3,
        )
        assert len(curve.checkpoints) == 1
        t, mean = curve.checkpoints[0]
        assert t == 64
        seed = child_seed(3, hurst_key(0.8), 64, 0)
        direct = estimate(synthesize_fgn(FgnSpec(hurst=0.8, length=64, seed=seed)), Method.WHITTLE).value
        assert mean == pytest.approx(direct, abs=1e-12)

    def test_checkpoint_grid(self):
        curve = mean_convergence_curve(
            Method.RS, 0.7, series_count=2, max_length=1064, t0=64, tu=200, base_seed=4,
        )
        assert [t for t, _ in curve.checkpoints] == [64, 264, 464, 664, 864, 1064]
        assert curve.counts == (2,) * 6

    def test_default_checkpoint_count_is_328(self):
        assert len(range(64, 2**16 + 1, 200)) == 328

    def test_deterministic_across_thread_counts(self):
        kwargs = dict(series_count=4, max_length=464, t0=64, tu=200, base_seed=6)
        a = mean_convergence_curve(Method.WHITTLE, 0.8, threads=1, **kwargs)
        b = mean_convergence_curve(Method.WHITTLE, 0.8, threads=2, **kwargs)
        assert a == b

    def test_rs_deterministic_across_thread_counts(self):
        kwargs = dict(series_count=4, max_length=2000, t0=64, tu=37, base_seed=6)
        a = mean_convergence_curve(Method.RS, 0.8, threads=1, **kwargs)
        b = mean_convergence_curve(Method.RS, 0.8, threads=2, **kwargs)
        assert a == b

    def test_rs_curve_matches_per_prefix_estimates(self):
        kwargs = dict(series_count=3, max_length=2000, t0=64, tu=97, base_seed=8)
        curve = mean_convergence_curve(Method.RS, 0.7, **kwargs)
        series = [
            synthesize_fgn(FgnSpec(hurst=0.7, length=2000, seed=child_seed(8, hurst_key(0.7), 2000, i))).values
            for i in range(3)
        ]
        for t, mean in curve.checkpoints:
            direct = np.mean([estimate(x[:t], Method.RS).value for x in series])
            assert mean == pytest.approx(direct, rel=0.0, abs=1e-12)
        assert curve.counts == (3,) * len(curve.checkpoints)

    def test_std_errors_are_sd_over_root_count(self):
        kwargs = dict(series_count=3, max_length=464, t0=64, tu=200, base_seed=8)
        curve = mean_convergence_curve(Method.RS, 0.7, **kwargs)
        series = [
            synthesize_fgn(FgnSpec(hurst=0.7, length=464, seed=child_seed(8, hurst_key(0.7), 464, i))).values
            for i in range(3)
        ]
        assert len(curve.std_errors) == len(curve.checkpoints)
        for (t, _), std_error in zip(curve.checkpoints, curve.std_errors):
            values = [estimate(x[:t], Method.RS).value for x in series]
            assert std_error == pytest.approx(np.std(values, ddof=1) / np.sqrt(3), rel=1e-9)

    def test_single_series_has_no_std_error(self):
        curve = mean_convergence_curve(Method.RS, 0.8, series_count=1, max_length=264, t0=64, base_seed=3)
        assert curve.std_errors == (None, None)

    def test_whittle_sweep_matches_scalar_estimates(self):
        # 64864 and 65264 take the packed transform, 65464 (largest factor
        # 167) and 65536 rfft.  Each runs as a one-checkpoint sweep, whose
        # only fit is the full-range one, so it equals the scalar fit.
        seed = child_seed(5, hurst_key(0.8), 2**16, 0)
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=seed)).values
        for t in (64864, 65264, 65464, 65536):
            values = evalharness._convergence_task((Method.WHITTLE, 0.8, 2**16, (t,), seed))
            assert values == [estimate_whittle(x[:t]).value]

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_convergence_curve(Method.WHITTLE, 0.8, t0=32)
        with pytest.raises(ValueError):
            mean_convergence_curve(Method.WHITTLE, 0.8, max_length=32)


def test_csv_writers(tmp_path):
    summaries = [_summary(Method.WHITTLE, 0.8, 256, Precision.HIGH_PRECISION)]
    write_summary_csv(tmp_path / "summary.csv", summaries)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "method,H0,N,bias,std,mse,class"
    assert lines[1] == "whittle,0.8,256,0,0,0,high_precision"

    grid = ExperimentGrid(hursts=(0.5,), lengths=(64,), replicates=2,
                          methods=(Method.RS,), base_seed=0)
    result = run_grid(grid)
    write_replicates_csv(tmp_path / "replicates.csv", result.records)
    lines = (tmp_path / "replicates.csv").read_text().splitlines()
    assert lines[0] == "method,H0,N,replicate,estimate,status"
    assert len(lines) == 3

    curve = ConvergenceCurve(
        method=Method.RS, hurst_nominal=0.8,
        checkpoints=((64, 0.75), (264, 0.79)), counts=(2, 2), std_errors=(None, None),
    )
    write_convergence_csv(tmp_path / "curve.csv", curve)
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "t,mean_estimate,count,std_error"
    assert lines[1] == "64,0.75,2,"

    curve = ConvergenceCurve(
        method=Method.RS, hurst_nominal=0.8,
        checkpoints=((64, 0.75), (264, float("nan"))), counts=(3, 0), std_errors=(0.0125, None),
    )
    write_convergence_csv(tmp_path / "curve.csv", curve)
    assert (tmp_path / "curve.csv").read_text().splitlines()[1:] == ["64,0.75,3,0.0125", "264,nan,0,"]
