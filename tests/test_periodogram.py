import math

import numpy as np
import pytest

import oracles
from hurstlab.estimators import (
    DegenerateSeries,
    Method,
    estimate_periodogram,
    estimate_whittle,
    periodogram_of,
)
from hurstlab.estimators.periodogram import LOW_FRACTION, _has_factor_above_cut
from hurstlab.fgn import FgnSpec, child_seed, synthesize_fgn


def test_pure_cosine_concentrates_at_its_frequency():
    n = 2**8
    t = np.arange(n)
    x = np.cos(np.pi / 2 * t)
    freqs, powers = periodogram_of(x)
    peak = np.argmin(np.abs(freqs - np.pi / 2))
    others = np.delete(powers, peak)
    assert powers[peak] >= 100.0 * others.max()


def test_white_noise_level_matches_sigma2_over_2pi():
    n, sigma2, reps = 2**14, 1.0, 100
    means = []
    for r in range(reps):
        x = synthesize_fgn(FgnSpec(hurst=0.5, length=n, variance=sigma2, seed=child_seed(11, r)))
        _, powers = periodogram_of(x)
        means.append(powers.mean())
    expected = sigma2 / (2.0 * np.pi)
    assert abs(np.mean(means) - expected) < 0.10 * expected


def test_minimum_length():
    with pytest.raises(ValueError):
        periodogram_of(np.ones(15))


def test_frequencies_are_fourier_grid():
    n = 100
    freqs, powers = periodogram_of(np.random.default_rng(0).standard_normal(n))
    assert freqs.size == (n - 1) // 2
    np.testing.assert_allclose(freqs, 2 * np.pi * np.arange(1, freqs.size + 1) / n)
    assert np.all(powers >= 0)


@pytest.mark.parametrize("seed,hurst", [(3, 0.5), (4, 0.8)])
def test_parseval_total_power_matches_variance(seed, hurst):
    n = 2**14
    x = synthesize_fgn(FgnSpec(hurst=hurst, length=n, seed=seed)).values
    _, powers = periodogram_of(x)
    total = 2.0 * powers.sum() * (2.0 * np.pi / n)
    variance = x.var()
    assert abs(total - variance) < 0.01 * variance


# Lengths that go through rfft: powers of two, other smooth even lengths
# and an odd prime.  Even lengths with a prime factor above the cut go
# through the packed half-length transform: 662 = 2 * 331,
# 8158 = 2 * 4079, 34424 = 8 * 13 * 331, 63064 = 8 * 7883,
# 64864 = 32 * 2027 and 65264 = 16 * 4079.  Each half-length h splits as
# s * r, s smooth; r is a prime but for 34424's, 13 * 331.  662's and
# 8158's h is prime, so s = 1 and a plain fft runs.
RFFT_LENGTHS = [16, 17, 64, 4096, 3 * 2**14, 65536, 4079]
PACKED_LENGTHS = [662, 8158, 34424, 63064, 64864, 65264]
INPUTS = ["white", "offset", "integer"]


def _input(kind, n):
    x = np.random.default_rng(n).standard_normal(n)
    if kind == "offset":
        return x + 1e8
    if kind == "integer":
        return np.round(50.0 * x)
    return x


def test_lengths_fall_on_their_transform():
    assert not any(n % 2 == 0 and _has_factor_above_cut(n) for n in RFFT_LENGTHS)
    assert all(n % 2 == 0 and _has_factor_above_cut(n) for n in PACKED_LENGTHS)


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("n", RFFT_LENGTHS)
def test_rfft_lengths_match_oracle_exactly(kind, n):
    x = _input(kind, n)
    for new, old in zip(periodogram_of(x), oracles.periodogram_rfft(x)):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("n", PACKED_LENGTHS)
def test_packed_lengths_match_oracle_to_rounding(kind, n):
    x = _input(kind, n)
    (freqs, powers), (old_freqs, old_powers) = periodogram_of(x), oracles.periodogram_rfft(x)
    assert np.array_equal(freqs, old_freqs)
    assert powers.shape == old_powers.shape
    assert np.abs(powers - old_powers).max() <= 1e-13 * old_powers.max()


# Every packed length of the default convergence grid (t0 = 64, tu = 200).
GRID_PACKED_LENGTHS = [t for t in range(64, 2**16 + 1, 200) if t % 2 == 0 and _has_factor_above_cut(t)]


def test_grid_has_147_packed_lengths():
    assert len(GRID_PACKED_LENGTHS) == 147


@pytest.mark.parametrize("n", GRID_PACKED_LENGTHS)
def test_grid_packed_lengths_match_oracle(n):
    x = _input("white", n)
    powers, expected = periodogram_of(x)[1], oracles.periodogram_rfft(x)[1]
    assert np.abs(powers - expected).max() <= 1e-13 * expected.max()


@pytest.mark.parametrize("n", [RFFT_LENGTHS[3], PACKED_LENGTHS[0], PACKED_LENGTHS[-1]])
def test_constant_series_has_zero_powers(n):
    x = np.full(n, 7.0)
    assert not periodogram_of(x)[1].any()
    with pytest.raises(DegenerateSeries):
        estimate_whittle(x)
    with pytest.raises(DegenerateSeries):
        estimate_periodogram(x)


class TestEstimatePeriodogram:
    def test_white_noise_mean_near_half(self):
        values = [
            estimate_periodogram(
                synthesize_fgn(FgnSpec(hurst=0.5, length=2**14, seed=child_seed(12, r)))
            ).value
            for r in range(100)
        ]
        assert abs(np.mean(values) - 0.5) < 0.05

    def test_fgn_h08_mean_recovered_at_moderate_length(self):
        values = [
            estimate_periodogram(
                synthesize_fgn(FgnSpec(hurst=0.8, length=2**14, seed=child_seed(13, r)))
            ).value
            for r in range(100)
        ]
        assert abs(np.mean(values) - 0.8) < 0.05

    def test_short_series_still_returns_value(self):
        est = estimate_periodogram(synthesize_fgn(FgnSpec(hurst=0.8, length=64, seed=1)))
        assert 0.0 < est.value < 1.0

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeries):
            estimate_periodogram(np.full(256, 3.0))

    def test_shift_scale_equivariance(self):
        x = synthesize_fgn(FgnSpec(hurst=0.7, length=2**12, seed=21)).values
        a = estimate_periodogram(x).value
        b = estimate_periodogram(5.5 * x - 3.0).value
        assert abs(a - b) < 1e-6

    def test_fits_the_lowest_low_fraction_of_frequencies(self):
        for length in (64, 1000, 2**12, 2**16):
            x = synthesize_fgn(FgnSpec(hurst=0.8, length=length, seed=22))
            m = periodogram_of(x)[0].size
            used = estimate_periodogram(x).diagnostics["points_used"]
            assert used == max(2, math.ceil(LOW_FRACTION * m))

    def test_diagnostics_keys(self):
        est = estimate_periodogram(synthesize_fgn(FgnSpec(hurst=0.6, length=1024, seed=2)))
        assert est.method is Method.PERIODOGRAM
        assert {"slope", "intercept", "corr_coef", "points_used", "clamped"} <= set(est.diagnostics)
