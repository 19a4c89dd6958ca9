"""Property tests of the four estimators through estimate(series, method)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab.estimators import DegenerateSeries, Method, estimate
from hurstlab.estimators.whittle import TOLERANCE
from hurstlab.fgn import FgnSpec, synthesize_fgn

# |H(a*x + b) - H(x)| bound per method: rounding only for the regression
# methods; Whittle's bounded minimizer may stop anywhere within its xatol.
EQUIVARIANCE_TOLERANCE = {
    Method.RS: 1e-8,
    Method.PERIODOGRAM: 1e-8,
    Method.WHITTLE: TOLERANCE,
    Method.ABRY_VEITCH: 1e-8,
}

# Powers of two keep every octave of the wavelet cascade even.
_fgn = st.builds(
    lambda hurst, exponent, seed: synthesize_fgn(FgnSpec(hurst=hurst, length=2**exponent, seed=seed)).values,
    st.floats(0.05, 0.95),
    st.integers(6, 12),
    st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("method", list(Method))
class TestEstimateProperties:
    @settings(max_examples=15, deadline=None)
    @given(_fgn)
    def test_value_in_unit_interval_and_deterministic(self, method, x):
        before = x.copy()
        first = estimate(x, method).value
        assert 0.0 < first < 1.0
        assert estimate(x, method).value == first
        np.testing.assert_array_equal(x, before)

    @settings(max_examples=15, deadline=None)
    @given(_fgn, st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
    def test_affine_equivariance(self, method, x, a, b):
        shifted = estimate(a * x + b, method).value
        assert abs(shifted - estimate(x, method).value) <= EQUIVARIANCE_TOLERANCE[method]


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("value", [0.1, 1e8 + 0.3, 1 / 3, 2.7e-5, 7.0, 0.0])
def test_constant_series_is_degenerate(method, value):
    # Most of these constants do not equal their own computed mean, so the
    # centred series holds rounding residue rather than zeros.
    for n in (64, 100, 999, 1000, 4097, 8158, 12345, 65264, 65536):
        with pytest.raises(DegenerateSeries):
            estimate(np.full(n, value), method)
