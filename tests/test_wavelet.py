import numpy as np
import pytest

from hurstlab.estimators import (
    DegenerateSeries,
    Method,
    dwt,
    dwt_detail_variances,
    estimate_abry_veitch,
)
from hurstlab.estimators.wavelet import DB3_HIGHPASS, DB3_LOWPASS
from hurstlab.fgn import FgnSpec, child_seed, synthesize_fgn
from oracles import idwt

# Daubechies extremal-phase coefficients (e.g. Daubechies 1992, Table 6.1).
DB3 = [0.3326705529500825, 0.8068915093110924, 0.4598775021184914,
       -0.1350110200102546, -0.0854412738820267, 0.0352262918857095]


def test_db2_db3_match_published_values():
    # The package ships db3 only.
    np.testing.assert_allclose(DB3_LOWPASS, DB3, atol=1e-12)


@pytest.mark.parametrize("moments", [3])
def test_filter_orthonormality(moments):
    h = DB3_LOWPASS
    assert h.size == 2 * moments
    assert h.sum() == pytest.approx(np.sqrt(2.0), rel=1e-12)
    for shift in range(0, h.size, 2):
        inner = np.dot(h[shift:], h[: h.size - shift])
        assert inner == pytest.approx(1.0 if shift == 0 else 0.0, abs=1e-10)


@pytest.mark.parametrize("moments", [3])
def test_highpass_kills_polynomials(moments):
    g = DB3_HIGHPASS
    n = np.arange(g.size, dtype=float)
    for power in range(moments):
        assert abs(np.dot(g, n**power)) < 1e-7


@pytest.mark.parametrize("length", [64, 96, 1000, 4096])
def test_perfect_reconstruction(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    details, approx = dwt(x)
    rebuilt = idwt(details, approx)
    assert np.max(np.abs(rebuilt - x)) <= 1e-9 * np.max(np.abs(x))


def test_energy_preserved():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(512)
    details, approx = dwt(x)
    energy = sum(float(d @ d) for d in details) + float(approx @ approx)
    assert energy == pytest.approx(float(x @ x), rel=1e-12)


def test_coefficient_counts_halve():
    details, approx = dwt(np.zeros(1024))
    assert [d.size for d in details] == [512, 256, 128, 64, 32, 16, 8, 4, 2, 1]
    assert approx.size == 1


class TestDetailVariances:
    def test_white_noise_flat_in_scale(self):
        slopes = []
        for r in range(100):
            x = synthesize_fgn(FgnSpec(hurst=0.5, length=2**14, seed=child_seed(51, r)))
            triples = dwt_detail_variances(x)
            scales = np.array([t.scale for t in triples], dtype=float)
            logs = np.log2([t.variance for t in triples])
            slopes.append(np.polyfit(scales, logs, 1)[0])
        assert abs(np.mean(slopes)) < 0.05

    def test_fgn_h08_slope_near_2h_minus_1(self):
        slopes = []
        for r in range(100):
            x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=child_seed(52, r)))
            triples = [t for t in dwt_detail_variances(x) if t.scale >= 3]
            scales = np.array([t.scale for t in triples], dtype=float)
            logs = np.log2([t.variance for t in triples])
            slopes.append(np.polyfit(scales, logs, 1)[0])
        assert abs(np.mean(slopes) - 0.6) < 0.05

    def test_counts_follow_halving(self):
        triples = dwt_detail_variances(np.random.default_rng(0).standard_normal(1024))
        assert [t.count for t in triples] == [512, 256, 128, 64, 32, 16, 8]

    def test_odd_cascade_lengths_keep_floor_counts(self):
        for n in (100, 4097, 1000):
            triples = dwt_detail_variances(np.random.default_rng(n).standard_normal(n))
            counts = [n // 2**j for j in range(1, n.bit_length()) if n // 2**j >= 8]
            assert [t.count for t in triples] == counts
            assert [t.scale for t in triples] == list(range(1, len(counts) + 1))

    def test_too_few_scales_rejected(self):
        with pytest.raises(ValueError):
            dwt_detail_variances(np.random.default_rng(0).standard_normal(16))


class TestEstimateAbryVeitch:
    def test_white_noise_mean_near_half(self):
        values = [
            estimate_abry_veitch(
                synthesize_fgn(FgnSpec(hurst=0.5, length=2**14, seed=child_seed(53, r)))
            ).value
            for r in range(100)
        ]
        assert abs(np.mean(values) - 0.5) < 0.03

    def test_single_seed_h08_long_series(self):
        est = estimate_abry_veitch(synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=42)))
        assert 0.76 <= est.value <= 0.86
        assert est.ci_low is not None and est.ci_low <= est.value <= est.ci_high

    def test_tiny_series_still_returns_value(self):
        # N=2^6 leaves a single octave at or above the default minimum scale,
        # so the fit range widens downward and says so
        est = estimate_abry_veitch(synthesize_fgn(FgnSpec(hurst=0.8, length=64, seed=5)))
        assert 0.0 < est.value < 1.0
        assert est.diagnostics["scale_range_reduced"] == 1.0

    def test_odd_length_drops_the_trailing_sample(self):
        # 4097 -> 4096 at the first octave, then a power of two all the way.
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=4097, seed=5)).values
        assert estimate_abry_veitch(x).value == estimate_abry_veitch(x[:4096]).value

    def test_length_100_returns_value(self):
        # Octave counts 50, 25, 12: the cascade turns odd at 25 and goes on.
        est = estimate_abry_veitch(synthesize_fgn(FgnSpec(hurst=0.8, length=100, seed=5)))
        assert 0.0 < est.value < 1.0

    def test_power_of_two_unchanged_by_truncation_path(self):
        # dwt on a power of two runs to one coefficient without truncating,
        # so the variances are the plain dwt's, bit for bit.
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**12, seed=55)).values
        details, _ = dwt(x)
        plain = [float(np.mean(d**2)) for d in details if d.size >= 8]
        assert [t.variance for t in dwt_detail_variances(x)] == plain

    def test_shift_scale_equivariance(self):
        x = synthesize_fgn(FgnSpec(hurst=0.7, length=2**12, seed=54)).values
        a = estimate_abry_veitch(x).value
        b = estimate_abry_veitch(2.0 * x + 5.0).value
        assert abs(a - b) < 1e-6

    def test_constant_series_degenerate(self):
        with pytest.raises((DegenerateSeries, ValueError)):
            estimate_abry_veitch(np.full(1024, 2.0))

    def test_diagnostics_keys(self):
        est = estimate_abry_veitch(synthesize_fgn(FgnSpec(hurst=0.6, length=1024, seed=2)))
        assert est.method is Method.ABRY_VEITCH
        assert {"slope", "points_used", "scale_min", "scale_max", "scale_range_reduced"} <= set(
            est.diagnostics
        )
