import numpy as np
import pytest

from hurstlab.estimators import DegenerateSeries, Method, estimate_rs, rescaled_range
from hurstlab.estimators.rs import _block_sizes, rs_prefix_estimates
from hurstlab.estimators.whittle import whittle_point_value
from hurstlab.fgn import FgnSpec, child_seed, synthesize_fgn


def _direct_rescaled_range(x, size):
    """Mean R/S over non-overlapping blocks, computed block by block."""
    blocks = x.size // size
    data = x[: blocks * size].reshape(blocks, size)
    dev = data - data.mean(axis=1, keepdims=True)
    cum = np.cumsum(dev, axis=1)
    return ((cum.max(axis=1) - cum.min(axis=1)) / data.std(axis=1)).mean()


def test_rescaled_range_matches_direct_computation():
    rng = np.random.default_rng(0)
    x = rng.normal(2.0, 3.0, 1000)
    for size in (8, 16, 33, 100):
        assert rescaled_range(x, size) == pytest.approx(_direct_rescaled_range(x, size), rel=1e-10)


def test_estimate_rs_matches_direct_fit_at_convergence_length():
    # The terminal checkpoint of the acceptance convergence curve: an
    # H=0.8 fGn prefix of 65464 samples on the default block grid
    # (8 blocks per decade from 8 up to n/2, i.e. 8 ... 25298).
    n = 65464
    x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=45)).values[:n]
    sizes = [s for s in (round(8 * 10 ** (k / 8)) for k in range(40)) if s <= n // 2]
    assert sizes[-1] == 25298
    ratios = [_direct_rescaled_range(x, size) for size in sizes]
    slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
    est = estimate_rs(x)
    assert est.diagnostics["points_used"] == len(sizes)
    assert est.diagnostics["clamped"] == 0.0
    assert est.value == pytest.approx(slope, rel=0.0, abs=1e-12)


def test_white_noise_band():
    values = [
        estimate_rs(synthesize_fgn(FgnSpec(hurst=0.5, length=2**16, seed=child_seed(41, r)))).value
        for r in range(100)
    ]
    assert 0.45 <= np.mean(values) <= 0.62


def test_constant_series_is_degenerate():
    with pytest.raises(DegenerateSeries):
        estimate_rs(np.full(256, 1.0))


def test_fgn_h08_band_and_higher_spread_than_whittle():
    rs_values, whittle_values = [], []
    for r in range(100):
        series = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=child_seed(42, r)))
        rs_values.append(estimate_rs(series).value)
        whittle_values.append(whittle_point_value(series))
    assert 0.68 <= np.mean(rs_values) <= 0.85
    assert np.std(rs_values, ddof=1) > np.std(whittle_values, ddof=1)


def _series_with_constant_run(level):
    x = 3.0 * synthesize_fgn(FgnSpec(hurst=0.8, length=4096, seed=5)).values + 100.0
    x[1000:1100] = level
    return x


@pytest.mark.parametrize("level", [100.0, 0.0, -7.25, 1e6])
def test_constant_run_is_degenerate_at_any_level(level):
    # The 8-sample blocks inside the run are constant at every prefix
    # that holds them; running sums used to give them a tiny positive
    # variance (1.5e-13 at level 100), so the full series passed.
    x = _series_with_constant_run(level)
    for n in (1200, 2048, 4096):
        with pytest.raises(DegenerateSeries):
            estimate_rs(x[:n])
    assert 0.0 < estimate_rs(x[:1000]).value < 1.0


def test_nearly_constant_block_is_measured_not_rejected():
    x = _series_with_constant_run(100.0)[:1200]
    x[1000:1100:8] += 1e-6  # every block in the run now varies, barely
    est = estimate_rs(x).value
    sizes = _block_sizes(x.size)
    ratios = [_direct_rescaled_range(x, size) for size in sizes]
    assert est == pytest.approx(np.polyfit(np.log(sizes), np.log(ratios), 1)[0], abs=1e-9)
    # The 1e-6 steps keep about 8 digits at level 100, hence the looser bound.
    assert estimate_rs(1e3 * x - 5.0).value == pytest.approx(est, abs=1e-8)


def _per_prefix(x, checkpoints):
    values = []
    for t in checkpoints:
        try:
            values.append(estimate_rs(x[:t]).value)
        except ValueError:  # DegenerateSeries included
            values.append(None)
    return values


@pytest.mark.parametrize("hurst", [0.3, 0.8])
@pytest.mark.parametrize("t0, tu", [(64, 200), (100, 37)])
def test_prefix_sweep_matches_per_prefix_fits(hurst, t0, tu):
    x = synthesize_fgn(FgnSpec(hurst=hurst, length=2**14, seed=46)).values
    checkpoints = range(t0, x.size + 1, tu)
    swept = rs_prefix_estimates(x, checkpoints)
    direct = _per_prefix(x, checkpoints)
    assert len(swept) == len(direct)
    assert all(v is not None for v in direct)
    assert max(abs(a - b) for a, b in zip(swept, direct)) <= 1e-12


def test_prefix_sweep_fails_where_per_prefix_fits_fail():
    x = _series_with_constant_run(100.0)
    checkpoints = range(1, x.size + 1, 13)
    swept = rs_prefix_estimates(x, checkpoints)
    direct = _per_prefix(x, checkpoints)
    assert [v is None for v in swept] == [v is None for v in direct]
    # Too short for a block grid below 22 samples; a constant block of 8
    # inside 1000..1100 from t = 1008 on.
    assert [t for t, v in zip(checkpoints, swept) if v is not None] == [
        t for t in checkpoints if 22 <= t < 1008
    ]
    assert max(abs(a - b) for a, b in zip(swept, direct) if a is not None) <= 1e-12


def test_prefix_sweep_checkpoint_bounds():
    x = synthesize_fgn(FgnSpec(hurst=0.7, length=256, seed=47)).values
    assert rs_prefix_estimates(x, []) == []
    with pytest.raises(ValueError):
        rs_prefix_estimates(x, [64, 257])


def test_minimum_length():
    with pytest.raises(ValueError):
        estimate_rs(np.arange(15.0))


def test_shift_scale_equivariance():
    x = synthesize_fgn(FgnSpec(hurst=0.7, length=2**12, seed=43)).values
    a = estimate_rs(x).value
    b = estimate_rs(4.0 * x + 1000.0).value
    assert abs(a - b) < 1e-6


def test_diagnostics_include_regression_correlation():
    est = estimate_rs(synthesize_fgn(FgnSpec(hurst=0.8, length=2**14, seed=44)))
    assert est.method is Method.RS
    assert est.diagnostics["corr_coef"] > 0.95
    assert est.diagnostics["points_used"] >= 2
