"""Forecast/observation columns, CSV interchange, and scenario slicing.

The interchange format is plain CSV with hour-aligned ISO-8601 UTC
timestamps:

* ``forecasts.csv``:    ``model_id,member,init_time,valid_time,value_degC``
  (``member`` empty for deterministic models)
* ``observations.csv``: ``valid_time,value_degC``

Sub-hourly timestamps are rejected rather than resampled, forecast lead
times must fall within [0, 168] hours, values must be finite, and a
(model, member, init, valid) key or an observation hour may appear once.

In memory a dataset is struct-of-arrays: times are int64 whole hours since
the Unix epoch, a forecast's model is an index into the sorted ``models``
tuple and a missing member is ``-1``.  Loaded forecasts are ordered by model
name, then member (none first), then init hour, then valid hour; that order
fixes the error-table row order and with it every seeded result downstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .exceptions import DataError

__all__ = [
    "MAX_LEAD_HOURS",
    "ForecastRecord",
    "ObservationRecord",
    "Forecasts",
    "Observations",
    "ScenarioWindow",
    "Dataset",
    "hour_index",
    "hour_time",
    "load_forecasts",
    "load_observations",
    "write_forecasts",
    "write_observations",
    "slice_scenario",
]

MAX_LEAD_HOURS = 168

FORECAST_HEADER = ["model_id", "member", "init_time", "valid_time", "value_degC"]
OBSERVATION_HEADER = ["valid_time", "value_degC"]

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_HOUR = timedelta(hours=1)


def parse_hour(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp that must fall on a whole hour."""
    raw = text.strip()
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    else:
        ts = ts.astimezone(timezone.utc)
    if ts.minute or ts.second or ts.microsecond:
        raise DataError(f"timestamp {text!r} is not hour-aligned")
    return ts


def format_hour(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%MZ")


def hour_index(ts: datetime) -> int:
    """Whole hours since the epoch of a timezone-aware, hour-aligned time."""
    hours, rest = divmod(ts - EPOCH, _HOUR)
    if rest:
        raise ValueError(f"{ts.isoformat()} is not hour-aligned")
    return hours


def hour_time(hour: int) -> datetime:
    """Inverse of :func:`hour_index`."""
    return EPOCH + timedelta(hours=int(hour))


@dataclass(frozen=True, slots=True)
class ForecastRecord:
    """One deterministic forecast value from one model run."""

    model_id: str
    member: Optional[int]
    init_time: datetime
    valid_time: datetime
    value: float

    @property
    def lead_hours(self) -> int:
        return int((self.valid_time - self.init_time) // _HOUR)


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    valid_time: datetime
    value: float


def _map_distinct(fn, column: np.ndarray) -> list:
    """``fn`` of each entry of ``column``, calling ``fn`` once per distinct value."""
    distinct, inverse = np.unique(column, return_inverse=True)
    return np.array([fn(x) for x in distinct.tolist()], dtype=object)[inverse].tolist()


@dataclass(eq=False)
class Forecasts:
    """Forecast rows as flat columns.

    ``model`` indexes ``models``, which is sorted, so ordering rows by code
    orders them by model name.  ``member`` is -1 for deterministic models;
    ``init`` and ``valid`` are hours since the epoch.
    """

    models: Tuple[str, ...]
    model: np.ndarray
    member: np.ndarray
    init: np.ndarray
    valid: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        self.models = tuple(self.models)
        if list(self.models) != sorted(set(self.models)):
            raise ValueError("models must be sorted and distinct")
        self.model = np.asarray(self.model, dtype=np.int64)
        self.member = np.asarray(self.member, dtype=np.int64)
        self.init = np.asarray(self.init, dtype=np.int64)
        self.valid = np.asarray(self.valid, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        n = self.value.shape
        if not (self.model.shape == self.member.shape == self.init.shape == self.valid.shape == n):
            raise ValueError("column lengths differ")
        if self.model.size and (self.model.min() < 0 or self.model.max() >= len(self.models)):
            raise ValueError("model code outside models")

    def __len__(self) -> int:
        return int(self.value.size)

    @property
    def lead(self) -> np.ndarray:
        return self.valid - self.init

    def take(self, rows: np.ndarray) -> "Forecasts":
        """The rows selected by an index or boolean mask, in their order."""
        return Forecasts(
            self.models,
            self.model[rows],
            self.member[rows],
            self.init[rows],
            self.valid[rows],
            self.value[rows],
        )

    def records(self) -> List[ForecastRecord]:
        return [
            ForecastRecord(m, None if k < 0 else k, i, v, x)
            for m, k, i, v, x in zip(
                _map_distinct(self.models.__getitem__, self.model),
                self.member.tolist(),
                _map_distinct(hour_time, self.init),
                _map_distinct(hour_time, self.valid),
                self.value.tolist(),
            )
        ]

    @classmethod
    def from_records(cls, records: Iterable[ForecastRecord]) -> "Forecasts":
        """Columns for ``records``, keeping their order."""
        rows = list(records)
        models = tuple(sorted({r.model_id for r in rows}))
        code = {m: i for i, m in enumerate(models)}
        return cls(
            models,
            [code[r.model_id] for r in rows],
            [-1 if r.member is None else r.member for r in rows],
            [hour_index(r.init_time) for r in rows],
            [hour_index(r.valid_time) for r in rows],
            [r.value for r in rows],
        )


@dataclass(eq=False)
class Observations:
    """Observation rows as flat columns, ``hour`` strictly increasing."""

    hour: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        self.hour = np.asarray(self.hour, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        if self.hour.shape != self.value.shape:
            raise ValueError("column lengths differ")
        if np.any(self.hour[1:] <= self.hour[:-1]):
            raise ValueError("observation hours must be strictly increasing")

    def __len__(self) -> int:
        return int(self.value.size)

    def take(self, rows: np.ndarray) -> "Observations":
        return Observations(self.hour[rows], self.value[rows])

    def records(self) -> List[ObservationRecord]:
        times = _map_distinct(hour_time, self.hour)
        return [ObservationRecord(t, y) for t, y in zip(times, self.value.tolist())]

    @classmethod
    def from_records(cls, records: Iterable[ObservationRecord]) -> "Observations":
        """Columns for ``records``, sorted by valid time."""
        rows = sorted(records, key=lambda r: r.valid_time)
        return cls([hour_index(r.valid_time) for r in rows], [r.value for r in rows])


@dataclass(frozen=True)
class ScenarioWindow:
    """Training window [origin - train_days, origin) and evaluation horizon."""

    forecast_origin: datetime
    train_days: int = 14
    horizon_hours: int = MAX_LEAD_HOURS

    def __post_init__(self) -> None:
        if self.train_days <= 0:
            raise ValueError("train_days must be positive")
        if self.horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")

    @property
    def train_start(self) -> datetime:
        return self.forecast_origin - timedelta(days=self.train_days)

    @property
    def eval_end(self) -> datetime:
        return self.forecast_origin + timedelta(hours=self.horizon_hours)


@dataclass(eq=False)
class Dataset:
    forecasts: Forecasts
    observations: Observations
    site_id: str = ""

    @classmethod
    def from_records(
        cls,
        forecasts: Iterable[ForecastRecord],
        observations: Iterable[ObservationRecord],
        site_id: str = "",
    ) -> "Dataset":
        return cls(
            Forecasts.from_records(forecasts), Observations.from_records(observations), site_id
        )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _rows(reader, path, header: List[str]):
    """(line number, row) for each non-blank row after a checked header."""
    if next(reader, None) != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        yield lineno, row


def _hour_at(path, lineno: int, text: str) -> int:
    try:
        return hour_index(parse_hour(text))
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def _member_at(path, lineno: int, text: str) -> int:
    if text.strip() == "":
        return -1
    try:
        member = int(text)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None
    if member < 0:
        raise DataError(f"{path}:{lineno}: member must be non-negative")
    return member


def _values(path, texts: List[str], lines: List[int]) -> np.ndarray:
    """Parse value_degC once for all rows; the first bad row names its line."""
    try:
        values = np.array(texts, dtype=float)
    except ValueError:
        for text, lineno in zip(texts, lines):
            try:
                float(text)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}:{lines[i]}: value_degC must be finite, got {texts[i]!r}")
    return values


def load_forecasts(path: str | Path) -> Forecasts:
    """Load forecasts.csv in the row order above; any bad row fails the load."""
    models: Dict[str, int] = {}
    members: Dict[str, int] = {}
    hours: Dict[str, int] = {}
    model, member, init, valid, texts, lines = [], [], [], [], [], []
    with open(path, newline="") as fh:
        for lineno, (model_id, member_s, init_s, valid_s, value_s) in _rows(
            csv.reader(fh), path, FORECAST_HEADER
        ):
            code = models.get(model_id)
            if code is None:
                code = models[model_id] = len(models)
            k = members.get(member_s)
            if k is None:
                k = members[member_s] = _member_at(path, lineno, member_s)
            i = hours.get(init_s)
            if i is None:
                i = hours[init_s] = _hour_at(path, lineno, init_s)
            v = hours.get(valid_s)
            if v is None:
                v = hours[valid_s] = _hour_at(path, lineno, valid_s)
            model.append(code)
            member.append(k)
            init.append(i)
            valid.append(v)
            texts.append(value_s)
            lines.append(lineno)

    names = sorted(models)
    rename = np.empty(len(names), dtype=np.int64)
    rename[[models[m] for m in names]] = np.arange(len(names))
    model_a = rename[np.array(model, dtype=np.int64)]
    member_a = np.array(member, dtype=np.int64)
    init_a = np.array(init, dtype=np.int64)
    valid_a = np.array(valid, dtype=np.int64)
    lead = valid_a - init_a
    bad = np.flatnonzero((lead < 0) | (lead > MAX_LEAD_HOURS))
    if bad.size:
        i = int(bad[0])
        if lead[i] < 0:
            raise DataError(f"{path}:{lines[i]}: negative lead time")
        raise DataError(
            f"{path}:{lines[i]}: lead hour {lead[i]} outside [0, {MAX_LEAD_HOURS}]"
        )
    value_a = _values(path, texts, lines)

    order = np.lexsort((valid_a, init_a, member_a, model_a))
    fc = Forecasts(
        tuple(names), model_a[order], member_a[order], init_a[order], valid_a[order], value_a[order]
    )
    _reject_duplicate_keys(path, fc, np.array(lines, dtype=np.int64)[order])
    return fc


def _reject_duplicate_keys(path, fc: Forecasts, lines: np.ndarray) -> None:
    """Rows sorted by key: a repeated key sits next to its first occurrence."""
    same = (
        (fc.model[1:] == fc.model[:-1])
        & (fc.member[1:] == fc.member[:-1])
        & (fc.init[1:] == fc.init[:-1])
        & (fc.valid[1:] == fc.valid[:-1])
    )
    dup = np.flatnonzero(same) + 1
    if dup.size:
        i = int(dup[np.argmin(lines[dup])])
        member = "" if fc.member[i] < 0 else f" member {fc.member[i]}"
        raise DataError(
            f"{path}:{lines[i]}: duplicate forecast {fc.models[fc.model[i]]}{member}"
            f" init {format_hour(hour_time(fc.init[i]))}"
            f" valid {format_hour(hour_time(fc.valid[i]))}"
            f" (first seen on line {lines[i - 1]})"
        )


def load_observations(path: str | Path) -> Observations:
    """Load observations.csv; duplicate valid_times are rejected."""
    seen: Dict[int, int] = {}
    hours, texts, lines = [], [], []
    with open(path, newline="") as fh:
        for lineno, (valid_s, value_s) in _rows(csv.reader(fh), path, OBSERVATION_HEADER):
            hour = _hour_at(path, lineno, valid_s)
            if hour in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate observation at {format_hour(hour_time(hour))}"
                    f" (first seen on line {seen[hour]})"
                )
            seen[hour] = lineno
            hours.append(hour)
            texts.append(value_s)
            lines.append(lineno)
    values = _values(path, texts, lines)
    order = np.argsort(hours)
    return Observations(np.array(hours, dtype=np.int64)[order], values[order])


def _hour_text(hour: int) -> str:
    return format_hour(hour_time(hour))


def write_forecasts(path: str | Path, forecasts: Forecasts) -> None:
    fc = forecasts
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_HEADER)
        writer.writerows(
            zip(
                _map_distinct(fc.models.__getitem__, fc.model),
                _map_distinct(lambda k: "" if k < 0 else str(k), fc.member),
                _map_distinct(_hour_text, fc.init),
                _map_distinct(_hour_text, fc.valid),
                map(repr, fc.value.tolist()),
            )
        )


def write_observations(path: str | Path, observations: Observations) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATION_HEADER)
        hours = _map_distinct(_hour_text, observations.hour)
        writer.writerows(zip(hours, map(repr, observations.value.tolist())))


def slice_scenario(dataset: Dataset, window: ScenarioWindow) -> Tuple[Dataset, Dataset]:
    """Split a dataset into leak-free training and evaluation slices.

    Training keeps every forecast/observation with valid_time inside
    [origin - train_days, origin) (forecast init_time < origin as well, which
    the lead-time invariant already implies).  Evaluation keeps, per
    model_id, only the run with the latest init_time <= origin, restricted to
    valid times in [origin, origin + horizon], plus the observations there.
    Both slices keep the dataset's row order.
    """
    origin = hour_index(window.forecast_origin)
    start = hour_index(window.train_start)
    end = hour_index(window.eval_end)
    obs = dataset.observations
    if not len(obs):
        raise DataError("dataset has no observations")
    obs_min, obs_max = int(obs.hour[0]), int(obs.hour[-1])
    if obs_min > start or origin > obs_max + 1:
        raise DataError(
            f"window not covered by dataset: training needs observations from "
            f"{format_hour(window.train_start)} but data spans "
            f"{format_hour(hour_time(obs_min))}..{format_hour(hour_time(obs_max))}"
        )

    fc = dataset.forecasts
    train_fc = (fc.valid >= start) & (fc.valid < origin) & (fc.init < origin)
    train_obs = (obs.hour >= start) & (obs.hour < origin)

    runs = fc.init <= origin
    if not runs.any():
        raise DataError("window not covered by dataset: no model run available at origin")
    latest = np.full(len(fc.models), np.iinfo(np.int64).min)
    np.maximum.at(latest, fc.model[runs], fc.init[runs])
    eval_fc = (fc.init == latest[fc.model]) & (fc.valid >= origin) & (fc.valid <= end)
    eval_obs = (obs.hour >= origin) & (obs.hour <= end)
    train = Dataset(fc.take(train_fc), obs.take(train_obs), dataset.site_id)
    evaluation = Dataset(fc.take(eval_fc), obs.take(eval_obs), dataset.site_id)
    return train, evaluation
