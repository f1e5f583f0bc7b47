"""Output checks for each workload, from independent recomputation.

Nothing here calls probfcast: the input CSVs are parsed again, the raw
comparator and the training-row count are recomputed from them, and the
forecast products are checked against properties of the method.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime
from pathlib import Path
from typing import Dict, List

import numpy as np

HORIZON = 168
# Calibration bands of tests/test_acceptance.py, criterion 1, as (nominal,
# half-width).  They gate a 50-scenario backtest.  Coverage is correlated
# within a scenario, so the coverage of N scenarios spreads sqrt(50 / N)
# times as much (per-scenario SD about 0.08 at 80 % and 0.04 at 95 % on the
# benchmark's dataset); the bands widen by that factor to keep the gate's
# false-alarm rate.
ACCEPTANCE_SCENARIOS = 50
COVERAGE_BANDS = {"80": (0.80, 0.05), "95": (0.95, 0.03)}
# Per-lead-bin tolerance of tests/test_acceptance.py, criterion 2.
OOB_TOLERANCE = 0.05
REL_TOL = 1e-9
# Standard deviations of a binomial count allowed between the sampled and
# the exact threshold probability.
SAMPLE_SIGMAS = 6.0


class Data:
    """forecasts.csv and observations.csv as flat arrays (hours since epoch)."""

    def __init__(self, data_dir: Path) -> None:
        cache: Dict[str, int] = {}
        models: Dict[str, int] = {}
        cols = ([], [], [], [])
        with open(data_dir / "forecasts.csv", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for model, _member, init, valid, value in rows:
                cols[0].append(models.setdefault(model, len(models)))
                cols[1].append(hour(init, cache))
                cols[2].append(hour(valid, cache))
                cols[3].append(float(value))
        self.model = np.array(cols[0])
        self.init = np.array(cols[1])
        self.valid = np.array(cols[2])
        self.value = np.array(cols[3])
        self.n_models = len(models)
        self.obs = read_observations(data_dir / "observations.csv")
        self.obs_hours = np.array(sorted(self.obs))


def read_observations(path: Path) -> Dict[int, float]:
    """observations.csv as {hour since epoch: value}."""
    cache: Dict[str, int] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {hour(t, cache): float(v) for t, v in rows}


def hour(ts: str, cache: Dict[str, int]) -> int:
    """Hours since the epoch of a whole-hour UTC timestamp, memoised in ``cache``."""
    h = cache.get(ts)
    if h is None:
        dt = datetime.fromisoformat(ts.replace("Z", "+00:00"))
        h = cache[ts] = int(dt.timestamp()) // 3600
    return h


def _read(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _key_values(path: Path) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _raw_scores(data: Data, origin: int) -> Dict[int, tuple]:
    """Raw-ensemble (crps, |y - median|) per lead hour 1..HORIZON.

    The ensemble for an hour is every member of each model's latest run
    initialised at or before the origin.
    """
    latest = np.full(data.n_models, -1)
    known = data.init <= origin
    np.maximum.at(latest, data.model[known], data.init[known])
    keep = (
        (data.init == latest[data.model])
        & (data.valid > origin)
        & (data.valid <= origin + HORIZON)
    )
    valid, value = data.valid[keep], data.value[keep]
    out = {}
    for lead in range(1, HORIZON + 1):
        x = value[valid == origin + lead]
        if x.size == 0:
            continue
        y = data.obs[origin + lead]
        crps = np.mean(np.abs(x - y)) - 0.5 * np.mean(np.abs(x[:, None] - x[None, :]))
        out[lead] = (float(crps), abs(y - float(np.median(x))))
    return out


def check_backtest(out: Path, data: Data, n_scenarios: int) -> List[str]:
    errors: List[str] = []
    summary = _key_values(out / "summary.txt")
    if int(summary["n_scenarios"]) != n_scenarios:
        errors.append(f"n_scenarios {summary['n_scenarios']} != {n_scenarios}")
    widen = math.sqrt(max(1.0, ACCEPTANCE_SCENARIOS / n_scenarios))
    for width, (nominal, half) in COVERAGE_BANDS.items():
        lo, hi = nominal - half * widen, nominal + half * widen
        cov = float(summary[f"coverage_{width}"])
        if not lo <= cov <= hi:
            errors.append(f"{width}% coverage {cov:.4f} outside [{lo:.3f}, {hi:.3f}]")
    if not float(summary["mean_crps"]) < float(summary["mean_crps_raw"]):
        errors.append(
            f"mean_crps {summary['mean_crps']} not below mean_crps_raw {summary['mean_crps_raw']}"
        )
    raw_crps: List[float] = []
    raw_abs: List[float] = []
    for i in range(n_scenarios):
        scores = _read(out / "scenarios" / f"scenario_{i:03d}_scores.csv")
        if len(scores) != HORIZON:
            errors.append(f"scenario {i}: {len(scores)} scored hours, expected {HORIZON}")
        raw = _read(out / "scenarios" / f"scenario_{i:03d}_raw.csv")
        if not raw:
            errors.append(f"scenario {i}: no raw comparator rows")
            continue
        cache: Dict[str, int] = {}
        origin = hour(raw[0]["valid_time"], cache) - int(raw[0]["lead_hours"])
        expected = _raw_scores(data, origin)
        if sorted(expected) != [int(r["lead_hours"]) for r in raw]:
            errors.append(f"scenario {i}: raw comparator covers other lead hours")
            continue
        bad = []
        for r in raw:
            crps, abs_err = expected[int(r["lead_hours"])]
            raw_crps.append(crps)
            raw_abs.append(abs_err)
            if not (_close(float(r["crps"]), crps) and _close(float(r["abs_err_median"]), abs_err)):
                bad.append(
                    f"lead {r['lead_hours']}: {r['crps']}/{r['abs_err_median']}"
                    f" != {crps!r}/{abs_err!r}"
                )
        if bad:
            errors.append(
                f"scenario {i}: raw crps/abs error differ from recomputed in {len(bad)} hours,"
                f" first at {bad[0]}"
            )
    if raw_crps and not _close(float(summary["mean_crps_raw"]), float(np.mean(raw_crps))):
        errors.append(
            f"mean_crps_raw {summary['mean_crps_raw']} != recomputed {np.mean(raw_crps)!r}"
        )
    if raw_abs and not _close(float(summary["mean_abs_err_median_raw"]), float(np.mean(raw_abs))):
        errors.append(
            f"mean_abs_err_median_raw {summary['mean_abs_err_median_raw']} "
            f"!= recomputed {np.mean(raw_abs)!r}"
        )
    return errors


def check_retrain(out: Path, data: Data, origin: int, train_days: int) -> List[str]:
    errors: List[str] = []
    in_window = (
        (data.valid >= origin - 24 * train_days)
        & (data.valid < origin)
        & (data.init < origin)
        & np.isin(data.valid, data.obs_hours)
    )
    expected_rows = int(in_window.sum())
    rows = int(_key_values(out / "timings.txt")["train_rows"])
    if rows != expected_rows:
        errors.append(f"train_rows {rows} != recounted {expected_rows}")
    if not (out / "forest.npz").stat().st_size:
        errors.append("forest.npz is empty")
    oob = _read(out / "oob_coverage.csv")
    n = np.array([float(r["n"]) for r in oob])
    for col in [c for c in oob[0] if c.startswith("cov")]:
        nominal = int(col[3:]) / 100.0
        cov = float(np.dot(n, [float(r[col]) for r in oob]) / n.sum())
        if abs(cov - nominal) > OOB_TOLERANCE:
            errors.append(f"OOB {col} {cov:.4f} more than {OOB_TOLERANCE} from {nominal}")
    return errors


def check_forecast(out: Path, threshold: float, draws: int) -> List[str]:
    errors: List[str] = []
    knots: Dict[str, tuple] = {}
    for r in _read(out / "quantiles.csv"):
        lv, vv = knots.setdefault(r["valid_time"], ([], []))
        lv.append(float(r["level"]))
        vv.append(float(r["value_degC"]))
    knots = {t: (np.array(lv), np.array(vv)) for t, (lv, vv) in knots.items()}
    if len(knots) != HORIZON:
        errors.append(f"{len(knots)} forecast hours, expected {HORIZON}")
    for t, (levels, values) in knots.items():
        if np.any(np.diff(levels) <= 0) or np.any(np.diff(values) < 0):
            errors.append(f"{t}: quantiles decrease with level")
    for r in _read(out / "intervals.csv"):
        chain = [float(r[k]) for k in ("lo95", "lo80", "median", "hi80", "hi95")]
        if any(a > b for a, b in zip(chain, chain[1:])):
            errors.append(f"{r['valid_time']}: intervals out of order {chain}")
        levels, values = knots[r["valid_time"]]
        at_half = values[np.flatnonzero(np.isclose(levels, 0.5))]
        if at_half.size != 1 or not _close(chain[2], float(at_half[0])):
            errors.append(f"{r['valid_time']}: median {chain[2]} is not the 0.5-level knot")
    counts: Dict[str, List[int]] = {}
    with open(out / "samples.csv", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for t, _draw, value in rows:
            c = counts.setdefault(t, [0, 0])
            c[0] += 1
            c[1] += float(value) < threshold
    excess, variance = 0.0, 0.0
    for r in _read(out / "prob_below.csv"):
        t, p = r["valid_time"], float(r["prob_below"])
        levels, values = knots[t]
        if values[0] <= threshold <= values[-1] and not _close(
            p, float(np.interp(threshold, values, levels))
        ):
            errors.append(f"{t}: prob_below {p} is not the knot interpolation")
        n, below = counts.get(t, (0, 0))
        if n != draws:
            errors.append(f"{t}: {n} samples, expected {draws}")
            continue
        bound = SAMPLE_SIGMAS * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
        if abs(below / n - p) > bound:
            errors.append(f"{t}: sampled fraction {below / n} not within {bound:.4f} of {p}")
        excess += below - n * p
        variance += n * p * (1.0 - p)
    # Hours draw independently, so the summed excess is binomial too; this
    # catches a small bias that no single hour shows.
    if abs(excess) > SAMPLE_SIGMAS * math.sqrt(variance) + 1.0:
        errors.append(f"draws below the threshold exceed the expected count by {excess:.1f}")
    return errors
