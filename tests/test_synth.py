from datetime import timedelta

import numpy as np
import pytest
from helpers import forecast_records, observation_records

from probfcast.exceptions import ConfigError
from probfcast.ingest import write_forecasts, write_observations
from probfcast.pipeline import RunConfig, admissible_origins
from probfcast.synth import (
    DEFAULT_ROSTER,
    ModelSpec,
    SynthConfig,
    load_synth_config,
    parse_flat_config,
    synthesize_dataset,
)


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        for tag in ("a", "b"):
            ds = synthesize_dataset(SynthConfig(span_days=4), seed=33)
            write_forecasts(tmp_path / f"f_{tag}.csv", ds.forecasts)
            write_observations(tmp_path / f"o_{tag}.csv", ds.observations)
        assert (tmp_path / "f_a.csv").read_bytes() == (tmp_path / "f_b.csv").read_bytes()
        assert (tmp_path / "o_a.csv").read_bytes() == (tmp_path / "o_b.csv").read_bytes()

    def test_different_seed_differs(self):
        a = synthesize_dataset(SynthConfig(span_days=2), seed=1)
        b = synthesize_dataset(SynthConfig(span_days=2), seed=2)
        assert a.forecasts.value[0] != b.forecasts.value[0]


class TestDegenerateConfig:
    def test_zero_noise_and_bias_reproduces_observations(self):
        roster = tuple(
            ModelSpec(m.model_id, m.init_cycle_hours, m.max_lead_hours, 0.0, 0.0, m.members)
            for m in DEFAULT_ROSTER
        )
        ds = synthesize_dataset(SynthConfig(span_days=4, models=roster), seed=7)
        obs = {o.valid_time: o.value for o in observation_records(ds.observations)}
        checked = 0
        for f in forecast_records(ds.forecasts):
            y = obs.get(f.valid_time)
            if y is not None:
                assert f.value == y
                checked += 1
        assert checked > 1000


class TestStatisticalShape:
    def test_error_variance_grows_with_lead(self):
        ds = synthesize_dataset(SynthConfig(span_days=30), seed=5)
        obs = {o.valid_time: o.value for o in observation_records(ds.observations)}
        short, long_ = [], []
        longest = max(DEFAULT_ROSTER, key=lambda m: m.max_lead_hours).model_id
        for f in forecast_records(ds.forecasts):
            if f.model_id != longest:
                continue
            y = obs.get(f.valid_time)
            if y is None:
                continue
            if f.lead_hours <= 24:
                short.append(y - f.value)
            elif f.lead_hours >= 144:
                long_.append(y - f.value)
        assert np.var(long_) > np.var(short)

    def test_ensemble_members_present_and_exchangeable_shape(self):
        ds = synthesize_dataset(SynthConfig(span_days=2), seed=3)
        members = {f.member for f in forecast_records(ds.forecasts) if f.model_id == "enuk"}
        assert members == set(range(12))


class TestScheduleCoverage:
    def test_every_horizon_hour_covered_from_admissible_origins(self):
        ds = synthesize_dataset(SynthConfig(span_days=40), seed=2)
        cfg = RunConfig()
        by_model = {}
        for f in forecast_records(ds.forecasts):
            by_model.setdefault(f.model_id, []).append(f)
        for origin in admissible_origins(ds, cfg)[:5]:
            covered = set()
            for model, records in by_model.items():
                latest = max(r.init_time for r in records if r.init_time <= origin)
                covered.update(
                    r.valid_time
                    for r in records
                    if r.init_time == latest and r.valid_time > origin
                )
            for h in range(1, 169):
                assert origin + timedelta(hours=h) in covered


class TestConfigValidation:
    def test_rejects_bad_span_and_roster(self):
        with pytest.raises(ConfigError):
            SynthConfig(span_days=0)
        with pytest.raises(ConfigError):
            SynthConfig(models=())
        with pytest.raises(ConfigError):
            ModelSpec("x", 0, 24, 0.1, 0.1)
        with pytest.raises(ConfigError):
            ModelSpec("x", 6, 240, 0.1, 0.1)
        with pytest.raises(ConfigError):
            synthesize_dataset(SynthConfig(span_days=1), seed=-1)


class TestConfigFile:
    def test_full_roster_round_trip(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text(
            "span_days=10\n"
            "models=alpha,beta\n"
            "init_cycle_hours=6,12\n"
            "max_lead_hours=48,96\n"
            "bias_amplitude=0.2,0.4\n"
            "noise_growth=0.5\n"  # broadcast to both
            "ensemble_members=1,4\n"
            "seed=17\n"
        )
        config, seed = load_synth_config(p)
        assert seed == 17
        assert config.span_days == 10
        assert [m.model_id for m in config.models] == ["alpha", "beta"]
        assert config.models[1].members == 4
        assert config.models[0].noise_growth == 0.5

    def test_defaults_for_known_models(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text("models=glm,enuk\n")
        config, seed = load_synth_config(p)
        assert seed is None
        assert config.models[1].members == 12

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "synth.cfg"
        for key in ("wibble", "site_id"):
            p.write_text(f"{key}=1\n")
            with pytest.raises(ConfigError, match=key):
                load_synth_config(p)

    def test_flat_parser_handles_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nspan_days=5  # trailing\n\n")
        assert parse_flat_config(p) == {"span_days": "5"}

    def test_flat_parser_rejects_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just-some-text\n")
        with pytest.raises(ConfigError):
            parse_flat_config(p)
