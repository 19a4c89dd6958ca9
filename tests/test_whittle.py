import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import factorial, poch, zeta

import oracles
from hurstlab.estimators import (
    DegenerateSeries,
    Method,
    NoConvergence,
    estimate_whittle,
    fgn_spectral_density,
    minimize_whittle,
    periodogram_of,
    whittle,
    whittle_objective,
)
from hurstlab.estimators.whittle import (
    ALIAS_TERMS,
    TOLERANCE,
    WARM_STENCIL,
    whittle_point_value,
    whittle_prefix_estimates,
)
from hurstlab.fgn import FgnSpec, child_seed, hurst_key, synthesize_fgn


def brute_force_density(hurst, lam, terms=10**6):
    """Direct alias sum with one million terms on each side."""
    j = np.arange(1, terms + 1, dtype=float) * 2.0 * np.pi
    expo = -(2.0 * hurst + 1.0)
    s = lam**expo + ((lam + j) ** expo).sum() + ((j - lam) ** expo).sum()
    return (1.0 - np.cos(lam)) * s


def hurwitz_density(hurst, lam):
    """The alias sum in closed form, by two-argument (Hurwitz) zeta:
    lambda^-s + (2 pi)^-s [zeta(s, 1 + lambda/2pi) + zeta(s, 1 - lambda/2pi)]."""
    s = 2.0 * hurst + 1.0
    u = lam / (2.0 * np.pi)
    return (1.0 - np.cos(lam)) * (lam**-s + (2.0 * np.pi) ** -s * (zeta(s, 1.0 + u) + zeta(s, 1.0 - u)))


class TestSpectralDensity:
    def test_white_noise_density_is_flat(self):
        lams = np.linspace(1e-4, np.pi, 200)
        f = fgn_spectral_density(0.5, lams)
        assert f.max() / f.min() - 1.0 < 1e-6

    def test_low_frequency_power_law(self):
        ratio = fgn_spectral_density(0.8, 1e-3) / fgn_spectral_density(0.8, 2e-3)
        assert abs(ratio - 2.0**0.6) < 0.01 * 2.0**0.6

    @pytest.mark.parametrize("lam", [np.pi, np.pi / 2])
    def test_against_million_term_sum(self, lam):
        fast = fgn_spectral_density(0.8, lam)
        slow = brute_force_density(0.8, lam)
        assert abs(fast - slow) < 1e-3 * slow

    @pytest.mark.parametrize("hurst", [0.01, 0.05, 0.3, 0.5, 0.8, 0.95, 0.99])
    def test_against_hurwitz_zeta(self, hurst):
        lams = np.array([1e-4, 0.5, 1.0, 2.0, 3.0, np.pi])
        np.testing.assert_allclose(fgn_spectral_density(hurst, lams), hurwitz_density(hurst, lams), rtol=5e-9)

    def test_monotone_near_nyquist(self):
        assert fgn_spectral_density(0.8, np.pi) < fgn_spectral_density(0.8, np.pi / 2)
        assert fgn_spectral_density(0.8, np.pi) > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fgn_spectral_density(0.8, 0.0)
        with pytest.raises(ValueError):
            fgn_spectral_density(0.8, 3.2)
        with pytest.raises(ValueError):
            fgn_spectral_density(1.1, 1.0)

    def test_fast_surface_matches_direct_sum(self):
        # the objective must equal the profiled contrast computed from
        # fgn_spectral_density within 1e-6 relative, far below the
        # estimator tolerance
        rng = np.random.default_rng(3)
        n = 512
        freqs = 2.0 * np.pi * np.arange(1, (n - 1) // 2 + 1) / n
        powers = np.abs(rng.standard_normal(freqs.size)) + 0.1
        objective = whittle_objective(freqs, powers)
        for hurst in rng.uniform(0.02, 0.98, 12):
            direct = fgn_spectral_density(hurst, freqs)
            direct_norm = direct / direct.mean()
            ihat = powers / powers.mean()
            m = freqs.size
            ratio = (ihat / direct_norm).mean()
            expected = float(np.log(direct_norm).sum() + m * (np.log(ratio) + 1.0))
            assert objective(hurst) == pytest.approx(expected, rel=1e-6)


def test_series_coefficients_match_scipy():
    # The Taylor coefficients 2 (2 pi)^-s (s)_2i / (2i)! * zeta(s + 2i),
    # i < 24, from scipy.special, mapped to Chebyshev coefficients by the
    # same matrix, against the numpy Euler-Maclaurin build over the whole H
    # range.
    even = 2.0 * np.arange(whittle._TAYLOR_TERMS)
    matrix = whittle._chebyshev_matrix()
    assert matrix.shape == (ALIAS_TERMS, whittle._TAYLOR_TERMS)
    for hurst in np.linspace(0.01, 0.99, 981):
        s = 2.0 * hurst + 1.0
        taylor = (2.0 * np.pi) ** -s * poch(s, even) * zeta(s + even) * 2.0 / factorial(even)
        np.testing.assert_allclose(whittle._series_coefficients(s), matrix @ taylor, rtol=2e-15, atol=0)


def test_chebyshev_matrix_maps_monomials():
    # Column i holds the Chebyshev coefficients of ((1 + u) / 8)^i, all
    # >= 0; for i < ALIAS_TERMS the expansion is exact.
    matrix = whittle._chebyshev_matrix()
    assert matrix.min() >= 0.0
    u = np.linspace(-1.0, 1.0, 101)
    chebyshev = np.cos(np.arange(ALIAS_TERMS)[:, None] * np.arccos(u))
    for i in range(ALIAS_TERMS):
        np.testing.assert_allclose(matrix[:, i] @ chebyshev, ((1.0 + u) / 8.0) ** i, rtol=0, atol=1e-15)
    np.testing.assert_allclose(whittle._series_basis(np.pi * np.sqrt((1.0 + u) / 2.0)), chebyshev, rtol=0, atol=1e-14)


def scipy_bounded(objective, maxiter=500):
    return minimize_scalar(
        objective, bounds=(0.01, 0.99), method="bounded", options={"xatol": TOLERANCE, "maxiter": maxiter}
    )


class TestBrentMatchesScipy:
    """minimize_whittle is scipy's bounded Brent step for step: the same x,
    fun and evaluation count, compared with ==."""

    @staticmethod
    def assert_same(objective):
        ours, theirs = minimize_whittle(objective), scipy_bounded(objective)
        assert (ours.x, ours.fun, ours.nfev) == (theirs.x, theirs.fun, theirs.nfev)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8, 0.95, 0.99])
    @pytest.mark.parametrize("length", [64, 65, 4097, 2**16])
    def test_whittle_objectives(self, hurst, length):
        x = synthesize_fgn(FgnSpec(hurst=hurst, length=length, seed=child_seed(41, length))).values
        self.assert_same(whittle_objective(*periodogram_of(x)))

    def test_white_noise(self):
        x = np.random.default_rng(5).standard_normal(1000)
        self.assert_same(whittle_objective(*periodogram_of(x)))

    @pytest.mark.parametrize(
        "objective",
        [
            lambda h: h,  # runs to the lower bound
            lambda h: -h,  # runs to the upper bound
            lambda h: (h - 0.3) * (h - 0.3),
            lambda h: abs(h - 0.5),
            lambda h: math.cos(7.0 * h) + h,
        ],
    )
    def test_plain_functions(self, objective):
        self.assert_same(objective)

    def test_plain_functions_reach_the_bounds(self):
        assert minimize_whittle(lambda h: h).x < 0.01 + TOLERANCE
        assert minimize_whittle(lambda h: -h).x > 0.99 - TOLERANCE

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_objective_fails(self, value):
        theirs = scipy_bounded(lambda h: value)
        assert not (theirs.success and np.isfinite(theirs.fun))
        with pytest.raises(NoConvergence):
            minimize_whittle(lambda h: value)

    def test_evaluation_limit_fails(self, monkeypatch):
        def objective(h):
            return (h - 0.3) * (h - 0.3)

        assert not scipy_bounded(objective, maxiter=4).success
        monkeypatch.setattr(whittle, "_MAX_EVALUATIONS", 4)
        with pytest.raises(NoConvergence):
            minimize_whittle(objective)


class TestWhittleObjective:
    @pytest.mark.parametrize("h0", [0.6, 0.7, 0.8])
    def test_noiseless_self_consistency(self, h0):
        n = 4096
        freqs = 2.0 * np.pi * np.arange(1, (n - 1) // 2 + 1) / n
        powers = fgn_spectral_density(h0, freqs)
        result = minimize_whittle(whittle_objective(freqs, powers))
        assert abs(result.x - h0) < 1e-3

    def test_grids_sharing_size_and_endpoints_fit_independently(self):
        # The Fourier grid and a geometric grid with the same size and
        # endpoints; fitting one must not change the other's fit.
        n = 4096
        fourier = 2.0 * np.pi * np.arange(1, (n - 1) // 2 + 1) / n
        geometric = np.geomspace(fourier[0], fourier[-1], fourier.size)
        for freqs in (fourier, geometric):
            result = minimize_whittle(whittle_objective(freqs, fgn_spectral_density(0.7, freqs)))
            assert abs(result.x - 0.7) < 1e-3

    def test_zero_spectrum_is_degenerate(self):
        with pytest.raises(DegenerateSeries):
            whittle_objective(np.array([0.1, 0.2]), np.zeros(2))


def _differential_periodogram(kind, n):
    """The periodogram of one of the differential tests' series."""
    rng = np.random.default_rng(n)
    if kind == "white":
        x = rng.standard_normal(n)
    elif kind == "integer":
        x = rng.integers(-3, 4, n).astype(float)
    elif kind == "fgn":
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=n, seed=n)).values
    else:
        x = synthesize_fgn(FgnSpec(hurst=0.95, length=n, seed=n)).values + 1e8
    return periodogram_of(x)


@pytest.mark.parametrize("kind", ["white", "fgn", "offset_fgn", "integer"])
@pytest.mark.parametrize("n", [64, 1000, 4097, 65264, 65536])
class TestObjectiveMatchesNormalizedDensity:
    """The profiled contrast does not change when f is rescaled, so the
    objective, which never normalizes f, must match the earlier form that
    divided f by its mean (oracles.whittle_objective_normalized) to rounding."""

    def test_values(self, kind, n):
        freqs, powers = _differential_periodogram(kind, n)
        objective = whittle_objective(freqs, powers)
        normalized = oracles.whittle_objective_normalized(freqs, powers)
        for hurst in np.linspace(0.01, 0.99, 99):
            expected = normalized(hurst)
            assert abs(objective(hurst) - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_minimization(self, kind, n):
        freqs, powers = _differential_periodogram(kind, n)
        result = minimize_whittle(whittle_objective(freqs, powers))
        expected = minimize_whittle(oracles.whittle_objective_normalized(freqs, powers))
        assert result.nfev == expected.nfev
        assert abs(result.x - expected.x) <= 1e-10


SWEEP_CHECKPOINTS = tuple(range(64, 2**16 + 1, 200))
# The bench's Whittle tolerance (bench/checks.py).
SWEEP_TOLERANCE = 2e-4


def sweep_series(hurst, seed):
    return synthesize_fgn(FgnSpec(hurst=hurst, length=2**16, seed=child_seed(seed, hurst_key(hurst), 2**16, 0))).values


class TestPrefixSweep:
    """whittle_prefix_estimates starts each checkpoint's fit from the
    previous checkpoint's H; every value must stay within the bench's
    Whittle tolerance of the full-range fit of the same prefix."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_matches_full_range_fits(self, hurst, seed):
        x = sweep_series(hurst, seed)
        values = whittle_prefix_estimates(x, SWEEP_CHECKPOINTS)
        full = [estimate_whittle(x[:t]).value for t in SWEEP_CHECKPOINTS]
        assert values[0] == full[0]
        assert max(abs(a - b) for a, b in zip(values, full)) <= SWEEP_TOLERANCE

    def test_failed_checkpoint_restarts_full_range(self, monkeypatch):
        x = sweep_series(0.8, 3)
        checkpoints = SWEEP_CHECKPOINTS[:41]
        failed = checkpoints[20]
        checkpoint_fit = whittle._checkpoint_fit

        def fail_once(series, previous):
            if len(series) == failed:
                raise NoConvergence("injected failure")
            return checkpoint_fit(series, previous)

        monkeypatch.setattr(whittle, "_checkpoint_fit", fail_once)
        values = whittle_prefix_estimates(x, checkpoints)
        assert values[20] is None
        assert values[21] == estimate_whittle(x[: checkpoints[21]]).value
        for t, value in zip(checkpoints, values):
            if t != failed:
                assert abs(value - whittle_point_value(x[:t])) <= SWEEP_TOLERANCE

    @pytest.mark.parametrize("kind", ["white", "random_walk"])
    def test_near_the_bounds(self, kind, monkeypatch):
        # White noise sits mid-range; a random walk's fits sit at the upper
        # bound, where the stencil does not fit, so every checkpoint takes
        # the full-range fit.
        steps = np.random.default_rng(7).standard_normal(8192)
        x = steps if kind == "white" else np.cumsum(steps)
        checkpoints = tuple(range(64, 8193, 200))
        full = [whittle_point_value(x[:t]) for t in checkpoints]
        minimizations = count_minimizations(monkeypatch)
        values = whittle_prefix_estimates(x, checkpoints)
        assert max(abs(a - b) for a, b in zip(values, full)) <= SWEEP_TOLERANCE
        if kind == "random_walk":
            assert min(values) > 0.99 - 2.0 * TOLERANCE
            assert minimizations[0] == len(checkpoints)

    def test_far_previous_h_takes_the_full_range_fit(self):
        # A previous H far from this prefix's minimum puts the stencil's
        # vertex outside it, so the checkpoint takes the full-range fit.
        x = sweep_series(0.8, 4)
        assert whittle._checkpoint_fit(x, 0.5) == whittle_point_value(x)

    def test_short_prefixes_and_validation(self):
        x = sweep_series(0.8, 5)
        assert whittle_prefix_estimates(x, [32, 64]) == [None, whittle_point_value(x[:64])]
        assert whittle_prefix_estimates(x, []) == []
        with pytest.raises(ValueError):
            whittle_prefix_estimates(x[:100], [64, 101])


def count_evaluations(monkeypatch):
    """Patch whittle_objective so that every objective it builds counts its
    evaluations; returns the running count as a one-item list."""
    evaluations = [0]
    build = whittle.whittle_objective

    def counted_build(freqs, powers):
        objective = build(freqs, powers)

        def counted(hurst):
            evaluations[0] += 1
            return objective(hurst)

        return counted

    monkeypatch.setattr(whittle, "whittle_objective", counted_build)
    return evaluations


def count_minimizations(monkeypatch):
    """Patch minimize_whittle to count its calls; returns the running count
    as a one-item list."""
    calls = [0]
    minimize = whittle.minimize_whittle

    def counted(objective):
        calls[0] += 1
        return minimize(objective)

    monkeypatch.setattr(whittle, "minimize_whittle", counted)
    return calls


class TestWarmStencil:
    """A warm checkpoint first tries the vertex of the parabola through Q at
    previous - WARM_STENCIL, previous and previous + WARM_STENCIL."""

    def test_accepted_stencil_makes_three_evaluations(self, monkeypatch):
        x = sweep_series(0.8, 1)
        previous = whittle_point_value(x[:65264])
        evaluations = count_evaluations(monkeypatch)
        minimizations = count_minimizations(monkeypatch)
        value = whittle._checkpoint_fit(x, previous)
        assert evaluations[0] == 3
        assert minimizations[0] == 0
        assert abs(value - previous) <= WARM_STENCIL
        assert abs(value - whittle_point_value(x)) <= SWEEP_TOLERANCE

    @pytest.mark.parametrize("offset", [-4 * WARM_STENCIL, 4 * WARM_STENCIL])
    def test_rejected_stencil_takes_the_full_range_fit(self, offset, monkeypatch):
        # A previous H 4 * WARM_STENCIL from the minimum puts the vertex
        # outside the stencil, so the fit is the full-range Brent fit.
        x = sweep_series(0.8, 1)
        previous = whittle_point_value(x) + offset
        expected = minimize_whittle(whittle._objective(x))
        evaluations = count_evaluations(monkeypatch)
        minimizations = count_minimizations(monkeypatch)
        assert whittle._checkpoint_fit(x, previous) == expected.x
        assert minimizations[0] == 1
        assert evaluations[0] == 3 + expected.nfev

    @pytest.mark.parametrize("previous", [0.0105, 0.9895])
    def test_stencil_near_a_bound_takes_brent(self, previous, monkeypatch):
        class Reached(Exception):
            pass

        def first_minimization(objective):
            raise Reached(evaluations[0])

        # The stencil would reach past a bound.
        assert min(previous - 0.01, 0.99 - previous) < WARM_STENCIL
        evaluations = count_evaluations(monkeypatch)
        monkeypatch.setattr(whittle, "minimize_whittle", first_minimization)
        with pytest.raises(Reached) as reached:
            whittle._checkpoint_fit(sweep_series(0.5, 1)[:4096], previous)
        # The full-range fit comes first, with no stencil evaluation before it.
        assert reached.value.args == (0,)

    def test_concave_or_nan_stencil_is_rejected(self, monkeypatch):
        # The vertex of a parabola that opens downward is a maximum, so the
        # checkpoint takes the full-range fit.
        def concave(hurst):
            return -((hurst - 0.5) ** 2)

        monkeypatch.setattr(whittle, "_objective", lambda series: concave)
        assert whittle._checkpoint_fit(None, 0.5) == minimize_whittle(concave).x
        monkeypatch.setattr(whittle, "_objective", lambda series: lambda hurst: math.nan)
        with pytest.raises(NoConvergence):
            whittle._checkpoint_fit(None, 0.5)

    def test_sweep_takes_at_most_3_75_evaluations_per_checkpoint(self, monkeypatch):
        # Timing-free guard on the sweep's speed: a full-range fit takes ~10
        # evaluations, the stencil 3; this series takes ~3.4 per checkpoint.
        evaluations = count_evaluations(monkeypatch)
        whittle_prefix_estimates(sweep_series(0.8, 1), SWEEP_CHECKPOINTS)
        assert evaluations[0] <= 3.75 * len(SWEEP_CHECKPOINTS)


class TestEstimateWhittle:
    def test_single_seed_h08_long_series(self):
        est = estimate_whittle(synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=42)))
        assert 0.78 <= est.value <= 0.82
        assert est.ci_low is not None and est.ci_low <= est.value <= est.ci_high

    def test_white_noise_mean(self):
        values = [
            whittle_point_value(synthesize_fgn(FgnSpec(hurst=0.5, length=2**12, seed=child_seed(31, r))))
            for r in range(100)
        ]
        assert abs(np.mean(values) - 0.5) < 0.02

    def test_ci_width_tracks_sampling_spread(self):
        values, widths = [], []
        for r in range(60):
            est = estimate_whittle(synthesize_fgn(FgnSpec(hurst=0.7, length=2**12, seed=child_seed(32, r))))
            values.append(est.value)
            widths.append((est.ci_high - est.ci_low) / 2 / 1.96)
        spread = np.std(values, ddof=1)
        implied = np.mean(widths)
        assert 0.5 * spread < implied < 2.0 * spread

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            estimate_whittle(np.random.default_rng(0).standard_normal(63))

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeries):
            estimate_whittle(np.full(128, 7.0))

    def test_shift_scale_equivariance(self):
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=2**12, seed=33)).values
        a = estimate_whittle(x).value
        b = estimate_whittle(0.01 * x + 1e6).value
        assert abs(a - b) < 1e-6

    def test_point_value_matches_full_estimate(self):
        x = synthesize_fgn(FgnSpec(hurst=0.7, length=4096, seed=9))
        assert whittle_point_value(x) == estimate_whittle(x).value

    def test_diagnostics_keys(self):
        est = estimate_whittle(synthesize_fgn(FgnSpec(hurst=0.6, length=1024, seed=2)))
        assert est.method is Method.WHITTLE
        assert {"objective", "evaluations", "curvature", "at_bound"} <= set(est.diagnostics)


def blas_env(threads):
    """This process's environment with every BLAS thread count set to threads.
    Set outright, not by setdefault as conftest does, so the child cannot
    inherit the suite's single-thread pin."""
    src = Path(__file__).resolve().parents[1] / "src"
    pins = {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **pins, "PYTHONPATH": str(src)}


def test_estimates_do_not_depend_on_blas_threads():
    # The objective's sums must not follow how BLAS splits a dot product
    # across threads: each fit is compared with == across 1 and 2 threads.
    script = (
        "from hurstlab.estimators import estimate_whittle\n"
        "from hurstlab.fgn import FgnSpec, synthesize_fgn\n"
        "for seed in range(1, 9):\n"
        "    print(repr(estimate_whittle(synthesize_fgn(FgnSpec(hurst=0.8, length=2**16, seed=seed))).value))\n"
    )
    outputs = []
    for threads in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", script], env=blas_env(threads), capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]
