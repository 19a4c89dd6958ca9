import numpy as np
import pytest

from hurstlab.evalharness import DEFAULT_HURSTS, DEFAULT_LENGTHS, ExperimentGrid
from hurstlab.fgn import (
    EmbeddingNotPSD,
    FgnSpec,
    build_embedding,
    child_seed,
    hurst_key,
    synthesize_fgn,
    target_autocovariance,
)
from oracles import aggregate_blocks, complex_ring_fgn


def naive_dft_real(x):
    """O(n^2) reference DFT, real part; independent of the fft used in fgn."""
    n = x.size
    k = np.arange(n)
    return (x[None, :] * np.exp(-2j * np.pi * np.outer(k, k) / n)).sum(axis=1).real


class TestTargetAutocovariance:
    def test_white_noise_lag1_is_zero(self):
        assert target_autocovariance(0.5, 1.0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_lag_zero_is_variance(self):
        assert target_autocovariance(0.3, 2.5, 0) == 2.5
        assert target_autocovariance(0.9, 2.5, 0) == 2.5

    def test_h08_lag1(self):
        # 0.5 * (2^1.6 - 2)
        assert target_autocovariance(0.8, 1.0, 1) == pytest.approx(0.5157165665103982, rel=1e-12)

    def test_tail_ratio_follows_power_law(self):
        ratio = target_autocovariance(0.8, 1.0, 200) / target_autocovariance(0.8, 1.0, 100)
        assert ratio == pytest.approx(2.0 ** (-0.4), rel=1e-4)

    @pytest.mark.parametrize("hurst", [0.6, 0.7, 0.8, 0.9])
    def test_positive_and_strictly_decreasing_for_persistent_h(self, hurst):
        rho = target_autocovariance(hurst, 1.0, np.arange(1, 1001))
        assert np.all(rho > 0)
        assert np.all(np.diff(rho) < 0)

    def test_white_noise_all_lags_zero(self):
        rho = target_autocovariance(0.5, 3.0, np.arange(1, 100))
        assert np.max(np.abs(rho)) < 1e-12

    @pytest.mark.parametrize("hurst", [0.6, 0.8])
    def test_doubling_ratio_at_k_1000(self, hurst):
        ratio = target_autocovariance(hurst, 1.0, 2000) / target_autocovariance(hurst, 1.0, 1000)
        assert abs(ratio - 2.0 ** (2 * hurst - 2)) < 0.01

    def test_partial_sums_keep_growing(self):
        # hyperbolic decay: the autocorrelation is not summable for H > 0.5
        rho = target_autocovariance(0.8, 1.0, np.arange(1, 100001))
        partial_1e3 = rho[:1000].sum()
        partial_1e5 = rho.sum()
        assert partial_1e5 > 1.1 * partial_1e3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            target_autocovariance(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            target_autocovariance(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            target_autocovariance(0.7, 0.0, 1)
        with pytest.raises(ValueError):
            target_autocovariance(0.5, np.inf, 1)
        with pytest.raises(ValueError):
            target_autocovariance(0.7, 1.0, -1)
        with pytest.raises(ValueError):
            target_autocovariance(0.7, 1.0, 1.5)


class TestFgnSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FgnSpec(hurst=1.2, length=64)
        with pytest.raises(ValueError):
            FgnSpec(hurst=0.8, length=1)
        with pytest.raises(ValueError):
            FgnSpec(hurst=0.8, length=64, variance=-1.0)
        with pytest.raises(ValueError):
            FgnSpec(hurst=0.8, length=64, seed=2**64)


class TestBuildEmbedding:
    def test_white_noise_spectrum_is_flat(self):
        eigenvalues = build_embedding(FgnSpec(hurst=0.5, length=8, variance=2.0))
        assert np.allclose(eigenvalues, 2.0, atol=1e-12)

    @pytest.mark.parametrize("length", [2**6, 3, 65])
    def test_eigenvalues_match_naive_dft_h08(self, length):
        spec = FgnSpec(hurst=0.8, length=length)
        eigenvalues = build_embedding(spec)
        rho = target_autocovariance(0.8, 1.0, np.arange(spec.length + 1))
        circ = np.concatenate([rho, rho[-2:0:-1]])
        reference = naive_dft_real(circ)
        assert reference.min() >= -1e-10
        np.testing.assert_allclose(eigenvalues, np.maximum(reference, 0.0), atol=1e-9)

    @pytest.mark.parametrize("length", [2**10, 3, 65])
    def test_eigenvalues_match_naive_dft_h09(self, length):
        spec = FgnSpec(hurst=0.9, length=length)
        eigenvalues = build_embedding(spec)
        rho = target_autocovariance(0.9, 1.0, np.arange(spec.length + 1))
        circ = np.concatenate([rho, rho[-2:0:-1]])
        reference = naive_dft_real(circ)
        assert reference.min() >= -1e-8
        np.testing.assert_allclose(eigenvalues, np.maximum(reference, 0.0), atol=1e-7)

    def test_full_size_h09_nonnegative(self):
        eigenvalues = build_embedding(FgnSpec(hurst=0.9, length=2**16))
        assert eigenvalues.min() >= 0.0
        assert eigenvalues.size == 2**17


class TestSynthesizeFgn:
    def test_deterministic_per_seed(self):
        spec = FgnSpec(hurst=0.8, length=1024, seed=99)
        a = synthesize_fgn(spec).values
        b = synthesize_fgn(spec).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variance", [1.0, 4.0])
    @pytest.mark.parametrize("length", [2, 3, 64, 65, 1000, 4097, 2**16])
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99])
    def test_matches_complex_ring_reference(self, hurst, length, variance):
        # Same draws, same embedding; only the transforms differ, so the
        # series agree to rounding.
        spec = FgnSpec(hurst=hurst, length=length, variance=variance, seed=child_seed(31, length))
        got = synthesize_fgn(spec).values
        reference = complex_ring_fgn(spec).values
        assert got.shape == reference.shape == (length,)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.sqrt(variance)

    def test_different_seeds_differ(self):
        a = synthesize_fgn(FgnSpec(hurst=0.8, length=256, seed=1)).values
        b = synthesize_fgn(FgnSpec(hurst=0.8, length=256, seed=2)).values
        assert not np.array_equal(a, b)

    def test_white_noise_is_uncorrelated(self):
        n = 2**10
        x = synthesize_fgn(FgnSpec(hurst=0.5, length=n, seed=5)).values
        xc = x - x.mean()
        r1 = (xc[:-1] * xc[1:]).mean() / xc.var()
        assert abs(r1) < 3.0 / np.sqrt(n)

    def test_pooled_autocovariance_matches_target(self):
        # smaller version of the synthesis-exactness gate: 200 replicates,
        # N=256, known zero mean, unbiased lag products
        n, reps = 256, 200
        lags = np.arange(6)
        per_rep = np.empty((reps, lags.size))
        for r in range(reps):
            x = synthesize_fgn(FgnSpec(hurst=0.8, length=n, seed=child_seed(4242, r))).values
            for k in lags:
                per_rep[r, k] = (x[: n - k] @ x[k:]) / (n - k)
        target = target_autocovariance(0.8, 1.0, lags)
        pooled = per_rep.mean(axis=0)
        stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(pooled - target) < 4.0 * stderr)

    def test_variance_scales_with_sigma2(self):
        base = synthesize_fgn(FgnSpec(hurst=0.7, length=512, variance=1.0, seed=8)).values
        scaled = synthesize_fgn(FgnSpec(hurst=0.7, length=512, variance=4.0, seed=8)).values
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12)


class TestAggregateBlocks:
    def test_block_means(self):
        out = aggregate_blocks([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out.values, [1.5, 3.5])

    def test_identity_for_m_1(self):
        out = aggregate_blocks([3.0, 1.0, 4.0], 1)
        np.testing.assert_allclose(out.values, [3.0, 1.0, 4.0])

    def test_trailing_remainder_dropped(self):
        out = aggregate_blocks([1.0, 2.0, 3.0, 4.0, 100.0], 2)
        np.testing.assert_allclose(out.values, [1.5, 3.5])

    def test_m_larger_than_series_rejected(self):
        with pytest.raises(ValueError):
            aggregate_blocks([1.0, 2.0], 3)

    def test_variance_ratio_monte_carlo(self):
        # Var[X] / Var[aggregated] ~ m^{2-2H} in Monte-Carlo mean
        hurst, n, m, reps = 0.8, 2**14, 4, 200
        ratios = []
        for r in range(reps):
            x = synthesize_fgn(FgnSpec(hurst=hurst, length=n, seed=child_seed(777, r))).values
            agg = aggregate_blocks(x, m).values
            ratios.append(x.var() / agg.var())
        expected = m ** (2.0 - 2.0 * hurst)
        assert abs(np.mean(ratios) - expected) < 0.15 * expected

    def test_covariance_scaling_monte_carlo(self):
        # lag-1 covariance of the aggregated series ~ m^{2H-2} * rho(1)
        hurst, n, m, reps = 0.8, 2**14, 4, 200
        lag1 = []
        for r in range(reps):
            x = synthesize_fgn(FgnSpec(hurst=hurst, length=n, seed=child_seed(778, r))).values
            agg = aggregate_blocks(x, m).values
            centered = agg - agg.mean()
            lag1.append((centered[:-1] * centered[1:]).mean())
        expected = m ** (2.0 * hurst - 2.0) * target_autocovariance(hurst, 1.0, 1)
        assert abs(np.mean(lag1) - expected) < 0.15 * expected


def test_child_seed_stable_and_distinct():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
    assert child_seed(1, 2, 3) != child_seed(1, 3, 2)
    assert 0 <= child_seed(123, 456) < 2**64


@pytest.mark.parametrize("base_seed", [0, 1234])
def test_child_seeds_distinct_over_the_default_grid(base_seed):
    replicates = ExperimentGrid().replicates
    seeds = {
        child_seed(base_seed, hurst_key(h), n, r)
        for h in DEFAULT_HURSTS
        for n in DEFAULT_LENGTHS
        for r in range(replicates)
    }
    assert len(seeds) == len(DEFAULT_HURSTS) * len(DEFAULT_LENGTHS) * replicates == 11000


def test_sibling_replicates_uncorrelated():
    # White noise (H = 0.5), so the sample cross-correlation of two
    # independent series has standard deviation 1/sqrt(N).
    n = 2**12
    series = [
        synthesize_fgn(FgnSpec(hurst=0.5, length=n, seed=child_seed(1234, hurst_key(0.5), n, r))).values
        for r in range(4)
    ]
    for a in range(4):
        for b in range(a + 1, 4):
            assert abs(np.corrcoef(series[a], series[b])[0, 1]) < 4.5 / np.sqrt(n)
