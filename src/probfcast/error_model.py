"""Forecast-error training tables: rank labelling of ensemble members and error rows.

Errors are plain differences, observation minus forecast, in degC.  Each
(forecast, matching observation) pair yields one training row, so an hour
covered by many runs contributes one row per run.  Exchangeable ensemble
members are first re-labelled by their rank within each run/valid-time
group, which turns an N-member ensemble into N distinct model labels with
individually learnable error profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exceptions import DataError
from .ingest import Dataset, Forecasts

__all__ = [
    "ErrorTable",
    "rank_label_members",
    "build_error_table",
]


@dataclass(eq=False)
class ErrorTable:
    """Array-backed table of (lead_hours, model_label, error) training rows."""

    lead_hours: np.ndarray
    label_codes: np.ndarray
    errors: np.ndarray
    label_set: Tuple[str, ...]
    skipped: int = 0

    def __post_init__(self) -> None:
        self.lead_hours = np.asarray(self.lead_hours, dtype=np.int64)
        self.label_codes = np.asarray(self.label_codes, dtype=np.int64)
        self.errors = np.asarray(self.errors, dtype=float)
        if not (self.lead_hours.shape == self.label_codes.shape == self.errors.shape):
            raise ValueError("column lengths differ")
        if self.label_codes.size and (
            self.label_codes.min() < 0 or self.label_codes.max() >= len(self.label_set)
        ):
            raise ValueError("label code outside label_set")
        if self.errors.size and not np.all(np.isfinite(self.errors)):
            raise ValueError("errors must be finite")

    @property
    def n_rows(self) -> int:
        return int(self.errors.size)


def rank_label_members(forecasts: Forecasts) -> Forecasts:
    """Re-label ensemble members by value rank within each run/valid-time group.

    Members of the same (model_id, init_time, valid_time) group get labels
    ``<model_id>_r<k>`` with k the 1-based ascending rank of their value;
    ties fall back to the original member index.  Relabelled rows drop
    their member index, making the operation idempotent.  Rows without a
    member index keep their model, and row order/cardinality match the input.
    A rank label equal to a model id in ``forecasts.models`` would pool two
    systems under one label, so it is a :class:`DataError`.
    """
    fc = forecasts
    ens = np.flatnonzero(fc.member >= 0)
    if ens.size == 0:
        return fc
    keys = (fc.member[ens], fc.value[ens], fc.valid[ens], fc.init[ens], fc.model[ens])
    rows = ens[np.lexsort(keys)]  # by model, init, valid, then value, member
    model, init, valid = fc.model[rows], fc.init[rows], fc.valid[rows]
    new_group = np.ones(rows.size, dtype=bool)
    new_group[1:] = (model[1:] != model[:-1]) | (init[1:] != init[:-1]) | (valid[1:] != valid[:-1])
    group_start = np.flatnonzero(new_group)
    rank = np.arange(rows.size) - group_start[np.cumsum(new_group) - 1] + 1

    width = int(rank.max()) + 1
    keys, key_of_row = np.unique(model * width + rank, return_inverse=True)
    rank_labels = [f"{fc.models[k // width]}_r{k % width}" for k in keys.tolist()]
    for label, k in zip(rank_labels, keys.tolist()):
        if label in fc.models:
            raise DataError(
                f"model id {label!r} equals a rank label of ensemble {fc.models[k // width]!r}"
            )
    models = tuple(sorted(set(fc.models) | set(rank_labels)))
    code = {m: i for i, m in enumerate(models)}
    relabelled = np.array([code[m] for m in fc.models], dtype=np.int64)[fc.model]
    relabelled[rows] = np.array([code[m] for m in rank_labels], dtype=np.int64)[key_of_row]
    return Forecasts(models, relabelled, np.full(len(fc), -1), fc.init, fc.valid, fc.value)


def build_error_table(train: Dataset) -> ErrorTable:
    """One row per (forecast, matching observation): error = obs - forecast.

    Forecasts whose valid hour has no observation are skipped and counted.
    Ensemble members must already be rank-labelled.  Rows keep the
    forecasts' order.
    """
    fc, obs = train.forecasts, train.observations
    at = np.searchsorted(obs.hour, fc.valid)
    hit = at < obs.hour.size
    hit[hit] = obs.hour[at[hit]] == fc.valid[hit]
    if not hit.any():
        raise DataError("no overlap between forecasts and observations")
    present, codes = np.unique(fc.model[hit], return_inverse=True)
    return ErrorTable(
        lead_hours=fc.lead[hit],
        label_codes=codes.reshape(-1),
        errors=obs.value[at[hit]] - fc.value[hit],
        label_set=tuple(fc.models[c] for c in present.tolist()),
        skipped=int(hit.size - np.count_nonzero(hit)),
    )
