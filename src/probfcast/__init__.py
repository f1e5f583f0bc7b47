"""Calibrated probabilistic forecasts from heterogeneous deterministic models.

Pipeline: learn each model's conditional error profile with a quantile
regression forest over (lead time, model label), shift the learned error
quantiles onto each current forecast, quantile-average the per-model
forecasts hour by hour, and interpolate the averaged quantiles into a full
predictive distribution with exponential tails.  A scenario harness
backtests the whole chain with proper scoring rules.
"""

from .combine import DEFAULT_LEVELS, CombinedForecast, QuantileVector, combine_timestep, vincentize
from .dist import CDFTable, DegenerateDistributionError, PiecewiseCDF, build_cdf
from .error_model import ErrorTable, build_error_table, rank_label_members
from .exceptions import ConfigError, DataError
from .ingest import (
    Dataset,
    Forecasts,
    Observations,
    load_forecasts,
    load_observations,
    slice_scenario,
)
from .pipeline import Horizon, RunConfig, run_scenario, run_scenarios, score_scenario
from .qrf import (
    CovariateVector,
    Forest,
    ForestConfig,
    load_forest,
    oob_coverage,
    predict_quantiles,
    predict_quantiles_batch,
    predict_weights,
    save_forest,
    train,
)
from .scoring import (
    Scores,
    aggregate_by_lead,
    crps,
    crps_ensemble,
    crps_mc,
    interval_coverage,
    log_score,
    mae_median,
)
from .synth import ModelSpec, SynthConfig, synthesize_dataset

__version__ = "0.1.0"
