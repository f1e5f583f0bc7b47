from datetime import timedelta

import numpy as np
import pytest
from helpers import forecast_records, observation_records

from probfcast.cli import build_parser, parse_flat_config
from probfcast.exceptions import ConfigError
from probfcast.ingest import write_forecasts, write_observations
from probfcast.pipeline import RunConfig, admissible_origins
from probfcast.synth import (
    DEFAULT_ROSTER,
    ModelSpec,
    SynthConfig,
    build_roster,
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
            "noise_growth=0.5\n"  # set for both
            "ensemble_members=1,4\n"
            "seed=17\n"
        )
        args = build_parser().parse_args(["generate", "--config", str(p)])
        assert (args.seed, args.span_days) == (17, 10)
        models = build_roster(vars(args))
        assert [m.model_id for m in models] == ["alpha", "beta"]
        assert [m.init_cycle_hours for m in models] == [6, 12]
        assert [m.members for m in models] == [1, 4]
        assert [m.noise_growth for m in models] == [0.5, 0.5]

    def test_defaults_for_known_models(self):
        models = build_roster({"models": ["glm", "enuk"]})
        assert models == (DEFAULT_ROSTER[1], DEFAULT_ROSTER[5])
        assert build_roster({}) == DEFAULT_ROSTER
        assert build_roster({"noise_growth": [0.0]})[5].members == 12

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"models": ["glm", "x"]}, "init_cycle_hours required for non-default model 'x'"),
            ({"models": ["glm", "ukv"], "max_lead_hours": [1, 2, 3]}, "expected 1 or 2"),
        ],
    )
    def test_roster_rule_rejects(self, values, message):
        with pytest.raises(ConfigError, match=message):
            build_roster(values)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "synth.cfg"
        for key in ("wibble", "site_id"):
            p.write_text(f"{key}=1\n")
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                build_parser().parse_args(["generate", "--config", str(p)])

    def test_flat_parser_handles_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nspan_days=5  # trailing\n\n")
        assert parse_flat_config(p) == {"span_days": "5"}

    def test_flat_parser_rejects_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just-some-text\n")
        with pytest.raises(ConfigError):
            parse_flat_config(p)

    @pytest.mark.parametrize("content", [None, b"span_days=\xff\n"], ids=["absent", "not_utf8"])
    def test_flat_parser_unreadable_file_is_config_error(self, tmp_path, content):
        p = tmp_path / "c.cfg"
        if content is not None:
            p.write_bytes(content)
        with pytest.raises(ConfigError, match=f"config file {p} cannot be read"):
            parse_flat_config(p)
