import numpy as np
import pytest

from hurstlab.series import TimeSeries, as_values, read_series_csv, write_series_csv


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        TimeSeries(np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        TimeSeries(np.ones((2, 2)))


def test_length_matches_values():
    ts = TimeSeries([1.0, 2.0, 3.0])
    assert ts.length == len(ts) == 3


def test_as_values_passthrough_and_coercion():
    ts = TimeSeries([1.0, 2.0])
    assert as_values(ts) is ts.values
    np.testing.assert_allclose(as_values([1, 2, 3]), [1.0, 2.0, 3.0])


def test_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    values = np.array([1.5, -2.25, 3.125e-8, 4e12])
    write_series_csv(path, values)
    back = read_series_csv(path)
    np.testing.assert_allclose(back.values, values, rtol=1e-15)
    assert path.read_text().count("\n") == 4  # one line per value, no header


def test_csv_optional_header(tmp_path):
    path = tmp_path / "with_header.csv"
    path.write_text("value\n1.0\n2.0\n")
    np.testing.assert_allclose(read_series_csv(path).values, [1.0, 2.0])


def test_csv_header_after_leading_blank_lines(tmp_path):
    path = tmp_path / "blank_then_header.csv"
    path.write_text("\n  \nvalue\n1.0\n2.0\n")
    np.testing.assert_allclose(read_series_csv(path).values, [1.0, 2.0])


def test_csv_header_only_before_the_first_value(tmp_path):
    path = tmp_path / "late_header.csv"
    path.write_text("1.0\nvalue\n")
    with pytest.raises(ValueError, match="line 2: not a number"):
        read_series_csv(path)
    path.write_text("value\nvalue\n1.0\n")
    with pytest.raises(ValueError, match="line 2: not a number"):
        read_series_csv(path)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nhello\n")
    with pytest.raises(ValueError, match="line 2"):
        read_series_csv(path)
