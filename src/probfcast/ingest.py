"""Forecast/observation columns, CSV interchange, and scenario slicing.

The interchange format is plain CSV with hour-aligned ISO-8601 UTC
timestamps:

* ``forecasts.csv``:    ``model_id,member,init_time,valid_time,value_degC``
  (``member`` empty for deterministic models)
* ``observations.csv``: ``valid_time,value_degC``

Sub-hourly timestamps are rejected rather than resampled, a model id must
not be empty, forecast lead times must fall within [0, 168] hours, values
must be finite and at most ``MAX_ABS_VALUE`` (1e6 degC) in magnitude, and a
(model, member, init, valid) key or an observation hour may appear once.

``load_forecasts`` parses a file in the shape :func:`write_forecasts`
writes (CRLF lines, or all LF lines; unquoted fields; ``YYYY-MM-DDTHH:00Z``
times; see :func:`_forecast_columns`) with numpy over its raw bytes, in
bounded blocks, converting each distinct date and model id once.  Any other
valid CSV loads through the ``csv`` row parser to the same columns, and so
does any file with a bad row, so a load error always names ``file:line``.

In memory a dataset is struct-of-arrays: times are int64 whole hours since
the Unix epoch, a forecast's model is an index into the sorted ``models``
tuple and a missing member is ``-1``.  Loaded forecasts are ordered by model
name, then member (none first), then init hour, then valid hour; that order
fixes the error-table row order and with it every seeded result downstream.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import DataError

__all__ = [
    "MAX_LEAD_HOURS",
    "MAX_ABS_VALUE",
    "Forecasts",
    "Observations",
    "Dataset",
    "hour_index",
    "hour_time",
    "load_forecasts",
    "load_observations",
    "write_forecasts",
    "write_observations",
    "write_csv",
    "float_texts",
    "quote_field",
    "slice_scenario",
]

MAX_LEAD_HOURS = 168
# Bound on |value_degC|: far above any temperature, and far below where the
# forest's summed squared errors or a per-lead standard deviation overflow.
MAX_ABS_VALUE = 1e6

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
    """``YYYY-MM-DDTHH:MMZ`` in UTC; the year keeps four digits, as parse_hour needs."""
    ts = ts.astimezone(timezone.utc)
    return f"{ts.year:04d}-{ts:%m-%dT%H:%M}Z"


def hour_index(ts: datetime) -> int:
    """Whole hours since the epoch of a timezone-aware, hour-aligned time."""
    hours, rest = divmod(ts - EPOCH, _HOUR)
    if rest:
        raise ValueError(f"{ts.isoformat()} is not hour-aligned")
    return hours


def hour_time(hour: int) -> datetime:
    """Inverse of :func:`hour_index`."""
    return EPOCH + timedelta(hours=int(hour))


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
        columns = (self.model, self.member, self.init, self.valid, self.value)
        return Forecasts(self.models, *(c[rows] for c in columns))


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


@dataclass(eq=False)
class Dataset:
    forecasts: Forecasts
    observations: Observations


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _rows(path, header: List[str]):
    """(line number, row) for each non-blank row of a UTF-8 CSV file after a checked header.

    A byte that is not valid UTF-8 is a DataError naming its line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise DataError(f"{path}: expected header {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    n = len(header)
                    raise DataError(f"{path}:{lineno}: expected {n} fields, got {len(row)}")
                yield lineno, row
    except UnicodeDecodeError:  # raised a decoded chunk ahead of the rows: find the byte
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line, byte = data.count(b"\n", 0, exc.start) + 1, data[exc.start]
            raise DataError(f"{path}:{line}: byte 0x{byte:02x} is not valid UTF-8") from None
        raise


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
    if member >= 10**18:  # members are int64
        raise DataError(f"{path}:{lineno}: member {text.strip()} has more than 18 digits")
    return member


def _values(path, texts: List[str], lines: List[int]) -> np.ndarray:
    """Parse value_degC once for all rows; the first bad row names its line.

    A value must be finite and at most MAX_ABS_VALUE in magnitude."""
    try:
        values = np.array(texts, dtype=float)
    except ValueError:
        for text, lineno in zip(texts, lines):
            try:
                float(text)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        raise
    bad = np.flatnonzero(~(np.abs(values) <= MAX_ABS_VALUE))
    if bad.size:
        i = int(bad[0])
        rule = f"at most {MAX_ABS_VALUE:g} in magnitude" if np.isfinite(values[i]) else "finite"
        raise DataError(f"{path}:{lines[i]}: value_degC must be {rule}, got {texts[i]!r}")
    return values


def load_forecasts(path: str | Path) -> Forecasts:
    """Load forecasts.csv in the row order above; any bad row fails the load.

    A file in the canonical shape is parsed by :func:`_forecast_columns`;
    every other file, and every file with a bad row, by the row parser
    :func:`_load_forecast_rows`, which names the first bad line.
    """
    columns = _forecast_columns(path)
    if columns is None:
        return _load_forecast_rows(path)
    return _sorted_forecasts(path, *columns, np.arange(2, columns[-1].size + 2))


def _load_forecast_rows(path: str | Path) -> Forecasts:
    """Parse forecasts.csv row by row with :mod:`csv`; any valid CSV loads."""
    models: Dict[str, int] = {}
    members: Dict[str, int] = {}
    hours: Dict[str, int] = {}
    model, member, init, valid, texts, lines = [], [], [], [], [], []
    for lineno, (model_id, member_s, init_s, valid_s, value_s) in _rows(path, FORECAST_HEADER):
        code = models.get(model_id)
        if code is None:
            if not model_id:
                raise DataError(f"{path}:{lineno}: empty model_id")
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

    init_a = np.array(init, dtype=np.int64)
    valid_a = np.array(valid, dtype=np.int64)
    lead = valid_a - init_a
    bad = np.flatnonzero((lead < 0) | (lead > MAX_LEAD_HOURS))
    if bad.size:
        i = int(bad[0])
        if lead[i] < 0:
            raise DataError(f"{path}:{lines[i]}: negative lead time")
        raise DataError(f"{path}:{lines[i]}: lead hour {lead[i]} outside [0, {MAX_LEAD_HOURS}]")
    value_a = _values(path, texts, lines)
    model_a, member_a, lines_a = (np.array(c, dtype=np.int64) for c in (model, member, lines))
    return _sorted_forecasts(path, models, model_a, member_a, init_a, valid_a, value_a, lines_a)


def _sorted_forecasts(path, models: Dict[str, int], model, member, init, valid, value, lines):
    """Rows in canonical order, model codes renumbered by name; ``models``
    maps each name to the code ``model`` uses, ``lines`` each row's line.

    One stable sort of an int64 key over (model, member, init, lead) orders
    rows as the columns would, as valid = init + lead; equal keys are
    duplicates.  Spans whose product passes int64 (members near 1e9 over
    millennia of inits) sort the columns instead."""
    names = sorted(models)
    rename = np.empty(len(names), dtype=np.int64)
    rename[[models[m] for m in names]] = np.arange(len(names))
    model = rename[model]
    low = int(init.min()) if init.size else 0
    members, inits = int(member.max(initial=-1)) + 2, int(init.max(initial=low)) - low + 1
    if len(names) * members * inits * (MAX_LEAD_HOURS + 1) < 2**63:
        key = ((model * members + member + 1) * inits + init - low) * (MAX_LEAD_HOURS + 1)
        key += valid - init
        order = np.argsort(key, kind="stable")
        same = np.diff(key[order]) == 0
        del key  # before the sorted columns are made, which may reuse its memory
    else:
        order = np.lexsort((valid, init, member, model))
        same = np.all([np.diff(c[order]) == 0 for c in (model, member, init, valid)], axis=0)
    fc = Forecasts(tuple(names), *(c[order] for c in (model, member, init, valid, value)))
    dup = np.flatnonzero(same) + 1  # a repeated key sits next to its first occurrence
    if dup.size:
        lines = lines[order]
        i = int(dup[np.argmin(lines[dup])])
        label = "" if fc.member[i] < 0 else f" member {fc.member[i]}"
        raise DataError(
            f"{path}:{lines[i]}: duplicate forecast {fc.models[fc.model[i]]}{label}"
            f" init {format_hour(hour_time(fc.init[i]))}"
            f" valid {format_hour(hour_time(fc.valid[i]))}"
            f" (first seen on line {lines[i - 1]})"
        )
    return fc


# The fast path reads the shape write_forecasts writes: the header, then rows
# of exactly five unquoted fields, every line ending in the same terminator.
_FORECAST_HEADER_BYTES = ",".join(FORECAST_HEADER).encode()
_SCAN_BYTES = 1 << 22  # newline scan block
_BLOCK_LINES = 1 << 15  # field parse block
_MAX_MODEL_BYTES = 64
_MAX_VALUE_BYTES = 32
_PAD_BYTES = _MAX_MODEL_BYTES  # a field's window may run past the last line
_VALUE_BYTE = np.zeros(256, dtype=bool)
_VALUE_BYTE[list(b"0123456789.eE+-\0")] = True  # NUL: padding, as the file has none
# YYYY-MM-DDTHH:00Z
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12]
_STAMP_FIXED = [4, 7, 10, 13, 14, 15, 16]
_STAMP_TEMPLATE = np.frombuffer(b"--T:00Z", dtype=np.uint8)
_EPOCH_DAY = EPOCH.toordinal()


def _read_padded(path) -> Tuple[np.ndarray, int]:
    """The file's bytes in one buffer with zeroed padding after them."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.zeros(size + _PAD_BYTES, dtype=np.uint8)
        view = memoryview(buf)
        n = 0
        while n < size:
            got = fh.readinto(view[n:size])
            if not got:
                break
            n += got
    return buf, n


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(len(starts), width) copy of the bytes from each start on."""
    return np.lib.stride_tricks.sliding_window_view(buf, width)[starts]


def _field_strings(buf, starts, lengths) -> np.ndarray:
    """Fields as NUL-padded byte strings (the file holds no NUL)."""
    g = _windows(buf, starts, max(int(lengths.max()), 1))
    g *= np.arange(g.shape[1]) < lengths[:, None]
    return g.view(f"S{g.shape[1]}").ravel()


def _run_codes(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, each entry's index into them), sorting only
    the heads of the runs of equal values ``column`` comes in."""
    heads = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    distinct, inverse = np.unique(column[heads], return_inverse=True)
    return distinct, np.repeat(inverse, np.diff(heads, append=column.size))


def _stamp_hours(buf, starts) -> Optional[np.ndarray]:
    """Hours since the epoch of the ``YYYY-MM-DDTHH:00Z`` stamps at
    ``starts``; None unless every one is a real calendar hour."""
    g = _windows(buf, starts, 17)
    if not (g[:, _STAMP_FIXED] == _STAMP_TEMPLATE).all():
        return None
    d = (g[:, _STAMP_DIGITS] - np.uint8(ord("0"))).T.astype(np.int32)  # a non-digit wraps past 9
    if not (d <= 9).all():
        return None
    ymd = functools.reduce(lambda n, x: n * 10 + x, d[:8])  # YYYYMMDD
    hour = d[8] * 10 + d[9]
    if not (hour <= 23).all():
        return None
    dates, inverse = _run_codes(ymd)
    try:
        days = [date(x // 10000, x // 100 % 100, x % 100).toordinal() for x in dates.tolist()]
    except ValueError:
        return None
    return (np.array(days) - _EPOCH_DAY)[inverse] * 24 + hour


def _forecast_columns(path):
    """(models, model, member, init, valid, value) of a canonically shaped
    forecasts.csv whose every row is valid, else None.

    The shape: the header; every line ending in ``\\r\\n``, or every one in
    ``\\n``; no ``"``, NUL or blank line; four commas per line; an ASCII
    model id of 1-64 bytes; a member empty or of 1-9 digits; both
    times as ``YYYY-MM-DDTHH:00Z``; a value of at most 32 bytes from
    ``[0-9.eE+-]``, finite and at most ``MAX_ABS_VALUE`` in magnitude.
    Lines are found in 4 MiB scans and fields parsed 32,768 lines at a
    time, so no per-file matrix is built.  In a block, each
    distinct date is checked and converted once, by ``datetime.date``, and
    each distinct model id decoded once; members are read one digit place
    at a time.  ``models`` maps model ids to the codes of ``model``, as
    :func:`_sorted_forecasts` takes them.
    """
    buf, size = _read_padded(path)
    data = buf[:size]
    head = len(_FORECAST_HEADER_BYTES)
    if data[:head].tobytes() != _FORECAST_HEADER_BYTES:
        return None
    crlf = data[head : head + 2].tobytes() == b"\r\n"
    cr_count = 0
    newlines = []
    for a in range(0, size, _SCAN_BYTES):
        block = data[a : a + _SCAN_BYTES]
        if (block == ord('"')).any() or (block == 0).any():
            return None
        cr_count += int(np.count_nonzero(block == ord("\r")))
        newlines.append(np.flatnonzero(block == ord("\n")) + a)
    nl = np.concatenate(newlines)
    n = nl.size - 1
    if n < 1 or nl[0] != head + crlf or nl[-1] != size - 1:
        return None
    # A CR stands only before each LF, or nowhere.
    if cr_count != (nl.size if crlf else 0) or (crlf and not (data[nl - 1] == ord("\r")).all()):
        return None

    models: Dict[str, int] = {}
    model, member, init, valid = (np.empty(n, dtype=np.int64) for _ in range(4))
    value = np.empty(n)
    for b in range(0, n, _BLOCK_LINES):
        rows = slice(b, min(b + _BLOCK_LINES, n))
        starts = nl[:-1][rows] + 1
        ends = nl[1:][rows] - crlf
        commas = np.flatnonzero(data[starts[0] : ends[-1]] == ord(",")) + starts[0]
        if commas.size != 4 * starts.size:
            return None
        c = commas.reshape(-1, 4)
        if not ((c[:, 0] >= starts) & (c[:, 3] < ends)).all():
            return None

        if not ((c[:, 2] - c[:, 1] == 18) & (c[:, 3] - c[:, 2] == 18)).all():
            return None
        init_b, valid_b = _stamp_hours(buf, c[:, 1] + 1), _stamp_hours(buf, c[:, 2] + 1)
        if init_b is None or valid_b is None:
            return None
        lead = valid_b - init_b
        if not ((lead >= 0) & (lead <= MAX_LEAD_HOURS)).all():
            return None
        init[rows], valid[rows] = init_b, valid_b

        width = c[:, 1] - c[:, 0] - 1
        if width.max() > 9:
            return None
        number = np.where(width > 0, 0, -1)
        for place in range(width.max()):
            long = np.flatnonzero(width > place)
            digit = buf[c[long, 0] + 1 + place] - np.uint8(ord("0"))
            if not (digit <= 9).all():
                return None
            number[long] = number[long] * 10 + digit
        member[rows] = number

        width = c[:, 0] - starts
        if width.min() < 1 or width.max() > _MAX_MODEL_BYTES:
            return None
        names, inverse = _run_codes(_field_strings(buf, starts, width))
        try:
            codes = [models.setdefault(x.decode("ascii"), len(models)) for x in names.tolist()]
        except UnicodeDecodeError:
            return None
        model[rows] = np.array(codes, dtype=np.int64)[inverse]

        width = ends - c[:, 3] - 1
        if width.min() < 1 or width.max() > _MAX_VALUE_BYTES:
            return None
        texts = _field_strings(buf, c[:, 3] + 1, width)
        if not _VALUE_BYTE.take(texts.view(np.uint8)).all():
            return None
        try:
            value[rows] = texts.astype(float)
        except ValueError:
            return None
        if not (np.abs(value[rows]) <= MAX_ABS_VALUE).all():
            return None
    return models, model, member, init, valid, value


def load_observations(path: str | Path) -> Observations:
    """Load observations.csv; duplicate valid_times are rejected."""
    seen: Dict[int, int] = {}
    hours, texts, lines = [], [], []
    for lineno, (valid_s, value_s) in _rows(path, OBSERVATION_HEADER):
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


def _csv_lines(*columns: Iterable[str]) -> str:
    """Rows of fields, one per column, joined by commas, each ended by ``\\r\\n`` (the
    empty last item ends the last row, with no copy); :func:`quote_field` free text."""
    return "\r\n".join(itertools.chain(map(",".join, zip(*columns)), [""]))


def write_csv(path: str | Path, header: Sequence[str], *columns: Iterable[str]) -> None:
    """Write ``header``, then a row per entry of the text ``columns``: every CSV
    the program writes, inputs and reports alike, as the ``csv`` module would."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines(*zip(header)))
        fh.write(_csv_lines(*columns))


def float_texts(values) -> List[str]:
    """Each entry of a float array in order: its ``repr``, or empty for NaN."""
    values = np.asarray(values, dtype=float)
    text = list(map(repr, values.ravel().tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        text[i] = ""
    return text


def quote_field(text: str) -> str:
    """``text`` as one CSV field, quoted as the ``csv`` module's default
    writer quotes it: inside ``"``, with each ``"`` doubled, when it holds
    ``,``, ``"``, ``\\r`` or ``\\n``."""
    quote = any(c in text for c in ',"\r\n')
    return '"' + text.replace('"', '""') + '"' if quote else text


def write_forecasts(path: str | Path, forecasts: Forecasts) -> None:
    fc = forecasts
    write_csv(
        path,
        FORECAST_HEADER,
        _map_distinct(lambda k: quote_field(fc.models[k]), fc.model),
        _map_distinct(lambda k: "" if k < 0 else str(k), fc.member),
        _map_distinct(_hour_text, fc.init),
        _map_distinct(_hour_text, fc.valid),
        float_texts(fc.value),
    )


def write_observations(path: str | Path, observations: Observations) -> None:
    hours = _map_distinct(_hour_text, observations.hour)
    write_csv(path, OBSERVATION_HEADER, hours, float_texts(observations.value))


def slice_scenario(
    dataset: Dataset, origin: datetime, train_days: int = 14, horizon_hours: int = MAX_LEAD_HOURS
) -> Tuple[Dataset, Dataset]:
    """Split a dataset into leak-free training and evaluation slices at ``origin``.

    Training keeps every forecast/observation with valid_time inside
    [origin - train_days, origin) (forecast init_time < origin as well, which
    the lead-time invariant already implies).  Evaluation keeps, per
    model_id, only the run with the latest init_time <= origin, restricted to
    valid times in [origin, origin + horizon_hours], plus the observations
    there.  Both slices keep the dataset's row order.  Both lengths must be
    positive (ValueError).
    """
    if train_days <= 0:
        raise ValueError("train_days must be positive")
    if horizon_hours <= 0:
        raise ValueError("horizon_hours must be positive")
    at = hour_index(origin)
    start, end = at - 24 * train_days, at + horizon_hours
    obs = dataset.observations
    if not len(obs):
        raise DataError("dataset has no observations")
    obs_min, obs_max = int(obs.hour[0]), int(obs.hour[-1])
    if obs_min > start or at > obs_max + 1:
        raise DataError(
            f"window not covered by dataset: training needs {train_days} days of observations"
            f" before {format_hour(origin)} but data spans"
            f" {_hour_text(obs_min)}..{_hour_text(obs_max)}"
        )

    fc = dataset.forecasts
    train_fc = (fc.valid >= start) & (fc.valid < at) & (fc.init < at)
    train_obs = (obs.hour >= start) & (obs.hour < at)

    runs = fc.init <= at
    if not runs.any():
        raise DataError("window not covered by dataset: no model run available at origin")
    latest = np.full(len(fc.models), np.iinfo(np.int64).min)
    np.maximum.at(latest, fc.model[runs], fc.init[runs])
    eval_fc = (fc.init == latest[fc.model]) & (fc.valid >= at) & (fc.valid <= end)
    eval_obs = (obs.hour >= at) & (obs.hour <= end)
    train = Dataset(fc.take(train_fc), obs.take(train_obs))
    evaluation = Dataset(fc.take(eval_fc), obs.take(eval_obs))
    return train, evaluation
