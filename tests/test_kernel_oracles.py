"""The R/S and DWT kernels against their earlier forms in oracles.py.

Max and min do not round, and the running sums and filter products are
the same operations in the same order, so every comparison here is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hurstlab.estimators import rs, wavelet
from hurstlab.estimators.rs import _block_rs, _block_sizes, _prefix_sums, rs_prefix_estimates

LENGTHS = [16, 17, 64, 100, 1000, 4097, 65536]
KINDS = ["white", "rounded", "plateau", "offset", "step"]


def _series(kind, n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "rounded":  # integer values, so neighbours are often equal
        return np.round(2.0 * x)
    if kind == "plateau":  # constant blocks, whose R/S is NaN
        x[n // 4 : n // 4 + max(8, n // 8)] = 3.0
    elif kind == "offset":
        x += 1e8
    elif kind == "step":  # running sums of squares dwarf a block's variance: the rough branch
        x[n // 2 :] += 1e8
    return x


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as error:  # DegenerateSeries included
        return type(error), str(error)


def _with_oracles(fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs, "_block_rs", oracles.block_rs_rows)
        patch.setattr(rs, "_prefix_sums", oracles.prefix_sums_concatenated)
        patch.setattr(wavelet, "_analysis_step", oracles.analysis_step_gather)
        return _outcome(fn, *args)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_prefix_sums_match_concatenated_sums(kind, n):
    x = _series(kind, n)
    for new, old in zip(_prefix_sums(x), oracles.prefix_sums_concatenated(x)):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_block_rs_matches_row_reductions(kind, n):
    x = _series(kind, n)
    prefixes = _prefix_sums(x)
    work = np.empty(n)
    for size in (int(s) for s in _block_sizes(2**16) if s <= n // 2):
        new = _block_rs(x, prefixes, size, work)
        old = oracles.block_rs_rows(x, prefixes, size, np.empty(n))
        assert np.array_equal(new, old, equal_nan=True), size


def test_inputs_reach_the_nan_and_rough_branches():
    x = _series("plateau", 1000)
    assert np.isnan(_block_rs(x, _prefix_sums(x), 8, np.empty(x.size))).any()
    # Each step block, measured from its samples, is an ordinary R/S; the
    # running-sum moments alone would give no finite value.
    x = _series("step", 1000)
    prefix, prefix_sq, _ = _prefix_sums(x)
    variances = (prefix_sq[8::8] - prefix_sq[:-8:8]) / 8 - ((prefix[8::8] - prefix[:-8:8]) / 8) ** 2
    assert (variances <= rs._ROUNDING_FLOOR * prefix_sq[8::8]).any()


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 64, 100, 1000, 2**16])
def test_analysis_step_matches_modular_gather(length):
    approx = np.random.default_rng(length).standard_normal(length)
    for new, old in zip(wavelet._analysis_step(approx), oracles.analysis_step_gather(approx)):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_estimators_match_oracle_kernels(kind, n):
    x = _series(kind, n)
    for fn in (rs.estimate_rs, wavelet.estimate_abry_veitch, wavelet.dwt_detail_variances):
        assert _outcome(fn, x) == _with_oracles(fn, x), fn.__name__
    checkpoints = range(1, n + 1, max(1, n // 50))
    assert rs_prefix_estimates(x, checkpoints) == _with_oracles(rs_prefix_estimates, x, checkpoints)
    details, approx = wavelet.dwt(x)
    old_details, old_approx = _with_oracles(wavelet.dwt, x)
    assert len(details) == len(old_details)
    assert all(np.array_equal(a, b) for a, b in zip(details, old_details))
    assert np.array_equal(approx, old_approx)


@pytest.mark.parametrize("length", range(2, 11))
def test_short_dwt_matches_oracle_kernels(length):
    x = np.random.default_rng(length).standard_normal(length)
    details, approx = wavelet.dwt(x)
    old_details, old_approx = _with_oracles(wavelet.dwt, x)
    assert len(details) == len(old_details)
    assert all(np.array_equal(a, b) for a, b in zip(details, old_details))
    assert np.array_equal(approx, old_approx)


# Runs of one value (repeated samples, constant blocks) mixed with small
# integers and wide-ranging floats.
_runs = st.lists(
    st.tuples(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1e9, 1e9, allow_nan=False)),
        st.integers(1, 12),
    ),
    min_size=16,
    max_size=600,
)
_finite_series = _runs.map(lambda runs: np.repeat([v for v, _ in runs], [k for _, k in runs])[:600])


@settings(max_examples=200, deadline=None)
@given(_finite_series)
def test_estimators_match_oracle_kernels_on_any_finite_series(x):
    for fn in (rs.estimate_rs, wavelet.estimate_abry_veitch):
        assert _outcome(fn, x) == _with_oracles(fn, x), fn.__name__
