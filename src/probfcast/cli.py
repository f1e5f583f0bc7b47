"""Command-line entry point: generate, train, forecast, evaluate.

``generate``'s flags are the synthesis settings of :mod:`probfcast.synth`.
The run flags of ``train``, ``forecast`` and ``evaluate`` mirror
:class:`probfcast.pipeline.RunConfig`, and each command takes only the ones
it uses: ``--scenarios`` is ``evaluate``'s alone, ``--threshold`` and
``--draws`` are ``forecast``'s, and ``train`` takes neither these nor
``--horizon`` or ``--levels``.  Every command can also read its flags from a
flat ``key=value`` file passed with ``--config``:

- the keys are the command's own flag names written with underscores
  (``sample_count=64`` for ``--sample-count 64``), and each value is parsed
  by that flag's declaration;
- a list flag (``--levels``, ``--models`` and ``generate``'s per-model
  flags) takes comma-separated items, and skips empty ones;
- ``replace`` takes ``1``/``true``/``yes``/``on`` or ``0``/``false``/``no``/``off``;
- flags given on the command line win over file values;
- a value the flag rejects, or a key the command has no flag for, exits 1.

The ``PROBFCAST_OUT`` environment variable supplies the default output
directory.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import time
import traceback
from datetime import datetime, timedelta
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from . import pipeline, qrf, scoring
from .combine import check_levels
from .exceptions import ConfigError, DataError
from .ingest import (
    Dataset,
    _csv_lines,
    float_texts,
    format_hour,
    hour_time,
    load_forecasts,
    load_observations,
    parse_hour,
    quote_field,
    write_csv,
    write_forecasts,
    write_observations,
)
from .synth import PER_MODEL_KEYS, SynthConfig, build_roster, synthesize_dataset

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 for usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# config-file words for the replace key, each mapped to the flag it stands for
_REPLACE_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), "--replace"),
    **dict.fromkeys(("0", "false", "no", "off"), "--no-replace"),
}


def parse_flat_config(path: str | Path) -> Dict[str, str]:
    """Parse a flat ``key=value`` text file ('#' starts a comment)."""
    out: Dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _ConfigFile(argparse.Action):
    """``--config PATH``: the command's own parser parses each ``key=value``
    line as ``--key=value``, and fills only the options no flag has set."""

    def __call__(self, parser, namespace, path, option_string=None):
        keys = {
            a.option_strings[0][2:].replace("-", "_")
            for a in parser._actions
            if a.option_strings and a.dest not in ("help", self.dest)
        }
        tokens = []
        for key, value in parse_flat_config(path).items():
            if key not in keys:
                raise ConfigError(f"{path}: unknown config key {key!r} for {parser.prog}")
            if key == "replace":
                token = _REPLACE_WORDS.get(value.lower())
                if token is None:
                    words = "/".join(_REPLACE_WORDS)
                    raise ConfigError(f"{path}: replace={value} is not one of {words}")
            else:
                token = f"--{key.replace('_', '-')}={value}"
            tokens.append(token)
        try:
            from_file = parser.parse_args(tokens)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for dest, value in vars(from_file).items():
            if getattr(namespace, dest, None) is None:
                setattr(namespace, dest, value)
        setattr(namespace, self.dest, path)


def _origin(text: str) -> datetime:
    """``--origin``'s and ``--start``'s type: an hour-aligned ISO-8601 time,
    checked as the command's flags are parsed, before any input is read."""
    try:
        return parse_hour(text)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _items(cast):
    """A list flag's type: the comma-separated items of its value, each
    stripped and converted by ``cast``; empty items are skipped."""

    def parse(text: str) -> list:
        try:
            return [cast(item) for item in map(str.strip, text.split(",")) if item]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _default_out() -> str:
    return os.environ.get("PROBFCAST_OUT", "probfcast_out")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--forecasts", help="forecasts.csv path")
    p.add_argument("--observations", help="observations.csv path")


# run flags only some commands take; build_parser names each command's
_EXTRA_RUN_FLAGS = {
    "--scenarios": dict(dest="n_scenarios", type=int, help="evaluation scenarios (default 200)"),
    "--horizon": dict(dest="horizon_hours", type=int, help="horizon in hours (default 168)"),
    "--levels": dict(type=_items(float), help="comma-separated quantile levels (built-in default)"),
    "--threshold": dict(type=float, help="probability threshold in degC (default 0)"),
    "--draws": dict(type=int, help="simulated values per hour (default 1000)"),
}


def _add_run_flags(p: argparse.ArgumentParser, *extra: str) -> None:
    """Declare the run flags every command takes, then the named ``extra`` ones."""
    p.add_argument(
        "--config", action=_ConfigFile, help="flat key=value file supplying flag defaults"
    )
    p.add_argument("--out", help="output directory (default $PROBFCAST_OUT or ./probfcast_out)")
    p.add_argument("--trees", dest="num_trees", type=int, help="number of trees (default 250)")
    p.add_argument("--mtry", type=int, help="covariates tried per split (default 1)")
    p.add_argument("--min-node-size", type=int, help="smallest splittable node (default 1)")
    p.add_argument("--sample-count", type=int, help="rows subsampled per tree (default 128)")
    p.add_argument(
        "--replace",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="bootstrap with replacement instead of subsampling",
    )
    p.add_argument("--train-days", type=int, help="training window length (default 14)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--min-training-rows", type=int, help="minimum error rows (default 1000)")
    p.add_argument("--jobs", type=int, help="scenario worker processes (default 1)")
    for flag in extra:
        p.add_argument(flag, **_EXTRA_RUN_FLAGS[flag])


def _run_config(args: argparse.Namespace) -> pipeline.RunConfig:
    # Options left unset, or without a flag on this command, keep RunConfig's defaults.
    values = {
        f.name: getattr(args, f.name, None) for f in dataclasses.fields(pipeline.RunConfig)
    }
    levels = values["levels"]
    if levels:
        try:
            values["levels"] = check_levels(sorted(set(levels)))
        except ValueError as exc:
            raise ConfigError(f"--levels: {exc}") from None
    else:
        values["levels"] = None
    try:
        return pipeline.RunConfig(**{k: v for k, v in values.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _out_path(args: argparse.Namespace) -> Path:
    return Path(_default_out() if args.out is None else args.out)


def _out_dir(args: argparse.Namespace) -> Path:
    out = _out_path(args)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} cannot be created: {exc.strerror}") from None
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def _out_file(flag: str, path: Optional[str], out: Path) -> Optional[Path]:
    """An output file's path, None if not given; checked before any input is
    read and before the ``--out`` directory ``out``, which may hold it, is made."""
    if not path:
        return None
    parent = Path(path).parent
    if parent.resolve() == out.resolve():
        return Path(path)
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise ConfigError(f"{flag} {path}: directory {parent} does not exist or is not writable")
    return Path(path)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if not args.forecasts or not args.observations:
        raise ConfigError("--forecasts and --observations are required")
    fpath, opath = Path(args.forecasts), Path(args.observations)
    for p in (fpath, opath):
        if not p.exists():
            raise DataError(f"input file {p} does not exist")
    return Dataset(load_forecasts(fpath), load_observations(opath))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    # Settings left unset keep SynthConfig's defaults.
    given = {k: getattr(args, k) for k in ("span_days", "start") if getattr(args, k) is not None}
    config = SynthConfig(models=build_roster(vars(args)), **given)
    out = _out_dir(args)
    dataset = synthesize_dataset(config, 0 if args.seed is None else args.seed)
    write_forecasts(out / "forecasts.csv", dataset.forecasts)
    write_observations(out / "observations.csv", dataset.observations)
    print(f"wrote {len(dataset.forecasts)} forecasts and {len(dataset.observations)} observations")
    print(f"  forecasts:    {out / 'forecasts.csv'}")
    print(f"  observations: {out / 'observations.csv'}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    config = _run_config(args)
    dump_path = _out_file("--dump-errors", args.dump_errors, _out_path(args))
    save_path = _out_file("--save", args.save, _out_path(args))
    out = _out_dir(args)
    save_path = save_path or out / "forest.npz"
    dataset = _load_dataset(args)
    if args.origin is not None:
        origin = args.origin
    elif len(dataset.observations):
        origin = hour_time(dataset.observations.hour[-1] + 1)
    else:
        raise DataError("dataset has no observations")
    table, _ = pipeline.prepare_training(dataset, origin, config)
    if dump_path:
        write_csv(
            dump_path,
            ["lead_hours", "model_label", "error_degC"],
            map(str, table.lead_hours.tolist()),
            np.array(list(map(quote_field, table.label_set)), dtype=object)[table.label_codes],
            float_texts(table.errors),
        )
    t0 = time.perf_counter()
    forest = qrf.train(table, config.forest_config())
    train_seconds = time.perf_counter() - t0
    save_path = qrf.save_forest(save_path, forest)
    oob = qrf.oob_coverage(forest, scoring.DEFAULT_INTERVALS)
    write_csv(
        out / "oob_coverage.csv",
        ["lead_hours", "n"] + [f"cov{round(w * 100):d}" for w in oob.intervals],
        map(str, oob.lead_hours.tolist()),
        map(str, oob.n_rows.tolist()),
        *map(float_texts, oob.coverage.T),
    )
    with open(out / "timings.txt", "w") as fh:
        fh.write(f"train_seconds={train_seconds:.3f}\n")
        fh.write(f"train_rows={table.n_rows}\n")
        fh.write(f"skipped_rows={table.skipped}\n")
    print(f"trained {config.num_trees} trees on {table.n_rows} rows in {train_seconds:.2f}s")
    print(f"  forest:       {save_path}")
    print(f"  oob coverage: {out / 'oob_coverage.csv'}")
    return 0


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


# intervals.csv columns and the level each reads off the distribution
_INTERVAL_COLUMNS = {"median": 0.5, "lo80": 0.1, "hi80": 0.9, "lo95": 0.025, "hi95": 0.975}

# samples.csv is drawn and written in blocks of whole hours holding at most
# this many draws (one hour when --draws is larger), so memory does not grow
# with --draws.
_SAMPLE_BLOCK_ENTRIES = 1 << 16


def _repeat_each(items: Sequence[str], times: int) -> Iterable[str]:
    return itertools.chain.from_iterable(map(itertools.repeat, items, itertools.repeat(times)))


def cmd_forecast(args: argparse.Namespace) -> int:
    config = _run_config(args)
    h_probe = args.dump_cdf_hour
    if h_probe is not None and not 1 <= h_probe <= config.horizon_hours:
        raise ConfigError(f"--dump-cdf-hour {h_probe} is outside [1, {config.horizon_hours}]")
    origin = args.origin
    if origin is None:
        raise ConfigError("--origin is required for forecast")
    out = _out_dir(args)
    dataset = _load_dataset(args)
    table, eval_ds = pipeline.prepare_training(dataset, origin, config)
    forest = qrf.train(table, config.forest_config())
    horizon = pipeline.run_scenario(origin, eval_ds, forest, config)
    cdfs = horizon.cdfs
    leads = horizon.lead_hours.tolist()
    if h_probe is not None and h_probe not in leads:
        raise DataError(f"no forecast product at lead hour {h_probe}")
    n, draws = len(leads), config.draws
    times = [format_hour(origin + timedelta(hours=h)) for h in leads]
    write_csv(
        out / "quantiles.csv",
        ["valid_time", "level", "value_degC"],
        _repeat_each(times, config.levels.size),
        float_texts(config.levels) * n,
        float_texts(cdfs.values),
    )
    bounds = cdfs.quantile(np.tile(list(_INTERVAL_COLUMNS.values()), (n, 1)))
    header = ["valid_time", *_INTERVAL_COLUMNS]
    write_csv(out / "intervals.csv", header, times, *map(float_texts, bounds.T))
    seeds = [config.seed + 7 * h + 1 for h in leads]
    below = np.empty(n)
    step = max(1, _SAMPLE_BLOCK_ENTRIES // draws)
    draw_text = [str(i) for i in range(draws)]
    with open(out / "samples.csv", "w", newline="") as fh:
        fh.write(_csv_lines(["valid_time"], ["draw"], ["value_degC"]))
        for a in range(0, n, step):
            b = min(a + step, n)
            values = cdfs[a:b].sample(draws, seeds[a:b])
            below[a:b] = np.mean(values < config.threshold, axis=1)
            fh.write(
                _csv_lines(
                    _repeat_each(times[a:b], draws), draw_text * (b - a), float_texts(values)
                )
            )
    write_csv(
        out / "prob_below.csv",
        ["valid_time", "prob_below", "prob_below_sampled"],
        times,
        float_texts(cdfs.prob_below(config.threshold)),
        float_texts(below),
    )
    if h_probe is not None:
        d = cdfs.row(leads.index(h_probe))
        xs = np.linspace(float(d.quantile(0.001)), float(d.quantile(0.999)), 500)
        write_csv(
            out / "cdf_probe.csv", ["value_degC", "cdf"], float_texts(xs), float_texts(d.cdf(xs))
        )
    print(f"forecast products for origin {format_hour(origin)} written to {out}")
    print(f"  covered hours: {len(leads)} of {config.horizon_hours}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    out = _out_dir(args)
    dataset = _load_dataset(args)
    t0 = time.perf_counter()
    results = pipeline.run_scenarios(dataset, config)
    wall = time.perf_counter() - t0

    scen_dir = out / "scenarios"
    scen_dir.mkdir(exist_ok=True)
    for r in results:
        for name, s in (("scores", r.scores), ("raw", r.raw_scores)):
            write_csv(
                scen_dir / f"scenario_{r.index:03d}_{name}.csv",
                ["valid_time", "lead_hours", "crps", "log_score", "abs_err_median"]
                + [f"hit{round(w * 100):d}" for w in s.intervals],
                map(format_hour, map(hour_time, s.valid_hours.tolist())),
                map(str, s.lead_hours.tolist()),
                *map(float_texts, (s.crps, s.log_score, s.abs_error_median)),
                *(map(str, hits) for hits in s.hits.T.astype(int).tolist()),
            )
    scores = scoring.Scores.concat([r.scores for r in results])
    raw = scoring.Scores.concat([r.raw_scores for r in results])
    # the forecast's rows, then the raw comparator's with its metrics prefixed
    ours, theirs = scoring.aggregate_by_lead(scores), scoring.aggregate_by_lead(raw)
    lead, mean, sd, n = (np.concatenate([ours[k], theirs[k]]) for k in (0, 2, 3, 4))
    write_csv(
        out / "aggregates.csv",
        ["lead_hours", "metric", "mean", "sd", "n"],
        map(str, lead.tolist()),
        ours[1] + ["raw_" + m for m in theirs[1]],
        float_texts(mean),
        float_texts(sd),
        map(str, n.tolist()),
    )
    write_csv(
        out / "points.csv",
        ["lead_hours", "metric", "scenario", "value"],
        map(str, scores.lead_hours.tolist()),
        itertools.repeat("crps"),
        [str(r.index) for r in results for _ in range(len(r.scores))],
        float_texts(scores.crps),
    )

    summary: Dict[str, object] = {
        "n_scenarios": len(results),
        "seed": config.seed,
        "train_rows_mean": float(np.mean([r.train_rows for r in results])),
        "skipped_rows_total": sum(r.skipped_rows for r in results),
        "unscored_hours_total": sum(r.unscored_hours for r in results),
        "degenerate_hours_total": sum(r.degenerate_hours for r in results),
        "mean_crps": scoring.finite_mean(scores.crps),
        "mean_crps_raw": scoring.finite_mean(raw.crps),
        "mean_log_score": scoring.finite_mean(scores.log_score),
        "mean_log_score_raw": scoring.finite_mean(raw.log_score),
        "mean_abs_err_median": scoring.mae_median(scores),
        "mean_abs_err_median_raw": scoring.mae_median(raw),
    }
    for w in scoring.DEFAULT_INTERVALS:
        summary[f"coverage_{round(w * 100):d}"] = scoring.interval_coverage(scores, w)
    with open(out / "summary.txt", "w") as fh:
        for key, value in summary.items():
            if isinstance(value, float):  # written as its CSV field would be
                (value,) = float_texts([value])
            fh.write(f"{key}={value}\n")
    with open(out / "timings.txt", "w") as fh:
        fh.write(f"wall_seconds={wall:.3f}\n")
        for stage in ("prepare", "train", "predict", "combine", "score"):
            total = sum(r.timings[stage] for r in results)
            fh.write(f"{stage}_seconds={total:.3f}\n")
    print(f"evaluated {len(results)} scenarios in {wall:.1f}s")
    for w in scoring.DEFAULT_INTERVALS:
        print(f"  {round(w * 100):d}% coverage: {summary[f'coverage_{round(w * 100):d}']:.3f}")
    print(f"  mean CRPS: {summary['mean_crps']:.3f}"
          f" (raw comparator {summary['mean_crps_raw']:.3f})")
    print(f"  reports in {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="probfcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="write a seeded synthetic dataset")
    p_gen.add_argument(
        "--config", action=_ConfigFile, help="flat key=value file supplying flag defaults"
    )
    p_gen.add_argument("--out", help="output directory (default $PROBFCAST_OUT or ./probfcast_out)")
    p_gen.add_argument("--seed", type=int, help="generator seed (default 0)")
    p_gen.add_argument("--span-days", type=int, help="observation span in days (default 90)")
    p_gen.add_argument("--start", type=_origin, help="first hour (default 2020-01-01T00:00Z)")
    p_gen.add_argument("--models", type=_items(str), help="comma-separated model ids (built-in 7)")
    per_model = "one value, or one per model (default: each model's own)"
    for key, (_, cast) in PER_MODEL_KEYS.items():
        p_gen.add_argument("--" + key.replace("_", "-"), type=_items(cast), help=per_model)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train a forest and report OOB coverage")
    _add_data_flags(p_train)
    _add_run_flags(p_train)
    p_train.add_argument(
        "--origin", type=_origin, help="training window end (default: last observation + 1h)"
    )
    p_train.add_argument("--save", help="forest output path (default <out>/forest.npz)")
    p_train.add_argument("--dump-errors", help="also write the error table CSV here")
    p_train.set_defaults(func=cmd_train)

    p_fc = sub.add_parser("forecast", help="full forecast products for one origin")
    _add_data_flags(p_fc)
    _add_run_flags(p_fc, "--horizon", "--levels", "--threshold", "--draws")
    p_fc.add_argument("--origin", type=_origin, help="forecast origin timestamp (required)")
    p_fc.add_argument(
        "--dump-cdf-hour", type=int, help="also dump (value, cdf) probe pairs at this lead hour"
    )
    p_fc.set_defaults(func=cmd_forecast)

    p_ev = sub.add_parser("evaluate", help="multi-scenario backtest with scoring")
    _add_data_flags(p_ev)
    _add_run_flags(p_ev, "--scenarios", "--horizon", "--levels")
    p_ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
