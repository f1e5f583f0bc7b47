"""Seeded synthetic desk-scale datasets.

Observations follow a seasonal + diurnal sinusoid plus slow AR(1) noise.
Each model's forecast is the observation plus a lead-dependent bias and
lead-dependent noise.  The noise mixes a shared "atmospheric difficulty"
AR(1) process, keyed by valid time and common to all models, with an
idiosyncratic component; without the shared part, cross-model errors would
be independent and quantile averaging would look far better calibrated than
it ever is on real model sets.  One roster entry is a multi-member
exchangeable ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ConfigError
from .ingest import MAX_LEAD_HOURS, Dataset, Forecasts, Observations, hour_index

__all__ = ["ModelSpec", "SynthConfig", "synthesize_dataset", "build_roster", "DEFAULT_ROSTER"]

# Observation residual: slow synoptic-scale wander.
_OBS_AR_COEF = 0.97
_OBS_AR_SD = 2.0
# Shared forecast-difficulty process (unit scale, multiplied per model
# below).  Mixes fast enough that a 14-day window samples tens of
# independent regimes; much slower and windowed error spreads become
# badly biased low.
_SHARED_AR_COEF = 0.85
# Split of forecast noise between the shared process and per-forecast
# noise.  The split leaves each forecast's marginal spread unchanged; it
# only sets how correlated the models' misses are.
_W_SHARED = 0.92
_W_IDIO = math.sqrt(1.0 - _W_SHARED**2)


@dataclass(frozen=True)
class ModelSpec:
    """One forecast system in the synthetic roster."""

    model_id: str
    init_cycle_hours: int
    max_lead_hours: int
    bias_amplitude: float
    noise_growth: float
    members: int = 1

    def __post_init__(self) -> None:
        if self.init_cycle_hours <= 0:
            raise ConfigError(f"{self.model_id}: init_cycle_hours must be positive")
        if not 0 <= self.max_lead_hours <= MAX_LEAD_HOURS:
            raise ConfigError(
                f"{self.model_id}: max_lead_hours must lie in [0, {MAX_LEAD_HOURS}]"
            )
        if self.members < 1:
            raise ConfigError(f"{self.model_id}: members must be >= 1")

    def noise_sd(self, lead: np.ndarray) -> np.ndarray:
        # Analysis error and lead-proportional growth added in quadrature,
        # so spread is flat at analysis time and asymptotically linear in
        # lead; zero growth switches noise off entirely.
        return self.noise_growth * np.sqrt(0.64 + (2.6 * lead / MAX_LEAD_HOURS) ** 2)

    def bias(self, lead: np.ndarray) -> np.ndarray:
        # Drift plus a 12-hour cycle, both growing with lead: analyses are
        # nearly unbiased, diurnal error cycles amplify down the range.
        frac = lead / MAX_LEAD_HOURS
        return self.bias_amplitude * frac * (1.0 + 0.3 * np.sin(2.0 * np.pi * lead / 12.0))


#: Seven systems: two long-range globals, two mid-range regionals, a
#: short-range high-resolution model, a 12-member ensemble, and a nowcast.
DEFAULT_ROSTER: Tuple[ModelSpec, ...] = (
    ModelSpec("glu", 6, 168, 1.0, 0.9),
    ModelSpec("glm", 6, 168, 0.9, 0.85),
    ModelSpec("eur_eu", 6, 120, 0.85, 0.85),
    ModelSpec("eur_uk", 6, 72, 0.7, 0.8),
    ModelSpec("ukv", 6, 48, 0.6, 0.75),
    ModelSpec("enuk", 6, 24, 0.6, 0.75, members=12),
    ModelSpec("pvrn", 3, 6, 0.2, 0.6),
)


@dataclass(frozen=True)
class SynthConfig:
    span_days: int = 90
    start: datetime = datetime(2020, 1, 1, tzinfo=timezone.utc)
    models: Tuple[ModelSpec, ...] = DEFAULT_ROSTER

    def __post_init__(self) -> None:
        if self.span_days <= 0:
            raise ConfigError("span_days must be positive")
        if len(self.models) == 0:
            raise ConfigError("model roster must not be empty")
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ConfigError("model roster has duplicate model_ids")


def _ar1(rng: np.random.Generator, n: int, coef: float, sd: float) -> np.ndarray:
    """Stationary AR(1) path of length n."""
    eps = rng.standard_normal(n)
    out = np.empty(n)
    out[0] = sd * eps[0]
    innov_sd = sd * math.sqrt(1.0 - coef**2)
    for t in range(1, n):
        out[t] = coef * out[t - 1] + innov_sd * eps[t]
    return out


def _climate(hours: np.ndarray) -> np.ndarray:
    seasonal = 6.0 * np.sin(2.0 * np.pi * hours / (24.0 * 365.25))
    diurnal = 4.0 * np.sin(2.0 * np.pi * (hours - 9.0) / 24.0)
    return 8.0 + seasonal + diurnal


def synthesize_dataset(config: SynthConfig, seed: int) -> Dataset:
    """Generate a dataset deterministically from (config, seed).

    Observations are emitted hourly over the configured span.  Model runs
    launch on each model's init cycle throughout the span, with valid times
    allowed to extend past the last observation so that forecasts near the
    end of the span still reach their full lead range.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    n_obs = config.span_days * 24
    n_full = n_obs + MAX_LEAD_HOURS + 1  # hidden extension for trailing runs
    rng = np.random.default_rng(seed)

    hours = np.arange(n_full, dtype=float)
    truth = _climate(hours) + _ar1(rng, n_full, _OBS_AR_COEF, _OBS_AR_SD)
    shared = _ar1(rng, n_full, _SHARED_AR_COEF, 1.0)

    start = hour_index(config.start)
    observations = Observations(start + np.arange(n_obs), truth[:n_obs])

    # Rows run model by model in roster order, then init, member and lead;
    # the draws for one (model, init) follow member by member.
    models = tuple(sorted(m.model_id for m in config.models))
    columns: List[Tuple[np.ndarray, ...]] = []
    for spec in config.models:
        lead = np.arange(spec.max_lead_hours + 1)
        bias = spec.bias(lead.astype(float))
        sd = spec.noise_sd(lead.astype(float))
        inits = np.arange(0, n_obs, spec.init_cycle_hours)
        valid = inits[:, None, None] + lead  # (init, 1, lead)
        shared_part = _W_SHARED * shared[valid]
        eta = rng.standard_normal((inits.size, spec.members, lead.size))
        values = truth[valid] + bias + sd * (shared_part + _W_IDIO * eta)
        shape = values.shape
        member = np.arange(spec.members)[:, None] if spec.members > 1 else -1
        columns.append(
            (
                np.full(values.size, models.index(spec.model_id)),
                np.broadcast_to(member, shape).reshape(-1),
                start + np.broadcast_to(inits[:, None, None], shape).reshape(-1),
                start + np.broadcast_to(valid, shape).reshape(-1),
                values.reshape(-1),
            )
        )
    model, member, init, valid, value = (np.concatenate(c) for c in zip(*columns))
    forecasts = Forecasts(models, model, member, init, valid, value)
    return Dataset(forecasts, observations)


# Per-model keys, each with the ModelSpec field it sets and its type.
PER_MODEL_KEYS = {
    "init_cycle_hours": ("init_cycle_hours", int),
    "max_lead_hours": ("max_lead_hours", int),
    "bias_amplitude": ("bias_amplitude", float),
    "noise_growth": ("noise_growth", float),
    "ensemble_members": ("members", int),
}


def build_roster(values: Mapping[str, Optional[Sequence]]) -> Tuple[ModelSpec, ...]:
    """The roster ``values`` set: ``models`` lists the ids (default: DEFAULT_ROSTER's),
    and each per-model key holds one value, for every model, or one per model.
    A key absent or None takes each default model's own value, so a model not in
    DEFAULT_ROSTER needs all five.  Other entries of ``values`` are ignored."""
    defaults = {m.model_id: m for m in DEFAULT_ROSTER}
    ids = list(defaults) if values.get("models") is None else list(values["models"])
    fields = {}
    for key, (name, _) in PER_MODEL_KEYS.items():
        given = values.get(key)
        if given is None:
            missing = [mid for mid in ids if mid not in defaults]
            if missing:
                raise ConfigError(f"{key} required for non-default model {missing[0]!r}")
            given = [getattr(defaults[mid], name) for mid in ids]
        elif len(given) == 1:
            given = list(given) * len(ids)
        if len(given) != len(ids):
            raise ConfigError(f"{key}: expected 1 or {len(ids)} comma-separated values")
        fields[name] = given
    return tuple(
        ModelSpec(mid, **{name: v[i] for name, v in fields.items()}) for i, mid in enumerate(ids)
    )
