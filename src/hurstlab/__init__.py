"""hurstlab: exact fGn synthesis, Hurst estimation, and series-length benchmarking."""

from .estimators import (
    DegenerateSeries,
    HurstEstimate,
    Method,
    NoConvergence,
    estimate,
    estimate_abry_veitch,
    estimate_periodogram,
    estimate_rs,
    estimate_whittle,
    fgn_spectral_density,
    periodogram_of,
)
from .fgn import (
    AutocovarianceRing,
    EmbeddingNotPSD,
    FgnSpec,
    aggregate_blocks,
    build_embedding,
    child_seed,
    synthesize_fgn,
    target_autocovariance,
)
from .series import TimeSeries, as_values, read_series_csv, write_series_csv

__version__ = "0.1.0"

__all__ = [
    "AutocovarianceRing",
    "DegenerateSeries",
    "EmbeddingNotPSD",
    "FgnSpec",
    "HurstEstimate",
    "Method",
    "NoConvergence",
    "TimeSeries",
    "aggregate_blocks",
    "as_values",
    "build_embedding",
    "child_seed",
    "estimate",
    "estimate_abry_veitch",
    "estimate_periodogram",
    "estimate_rs",
    "estimate_whittle",
    "fgn_spectral_density",
    "periodogram_of",
    "read_series_csv",
    "synthesize_fgn",
    "target_autocovariance",
    "write_series_csv",
    "__version__",
]
