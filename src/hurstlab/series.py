"""Time-series container and the one-value-per-line CSV format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """A finite, uniformly sampled, real-valued sequence."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TimeSeries requires a one-dimensional, non-empty sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TimeSeries values must all be finite")
        object.__setattr__(self, "values", arr)

    @property
    def length(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.length


ArrayLike = Union[TimeSeries, np.ndarray, Iterable[float]]


def as_values(series: ArrayLike) -> np.ndarray:
    """Coerce a TimeSeries or array-like to a validated 1-D float array."""
    if isinstance(series, TimeSeries):
        return series.values
    return TimeSeries(np.asarray(series, dtype=float)).values


def write_series_csv(path, series: ArrayLike) -> None:
    """Write one value per line (no header)."""
    values = as_values(series)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for v in values:
            fh.write(f"{v:.17g}\n")


def read_series_csv(path) -> TimeSeries:
    """Read a series file: one value per line, optional "value" header on
    the first non-blank line."""
    values = []
    header_allowed = True
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if header_allowed:
                header_allowed = False
                if text.lower() == "value":
                    continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: not a number: {text!r}") from exc
    if not values:
        raise ValueError("series file contains no values")
    return TimeSeries(np.asarray(values))
