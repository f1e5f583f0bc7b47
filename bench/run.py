"""probfcast benchmark: drive the CLI in-process, check outputs, print metrics.

    python3 bench/run.py --workload backtest --seed 1 --seconds 16 --trace 0

Run from the root of a checkout (BENCHMARK.json gives the exact command,
which also fixes PYTHONHASHSEED and limits BLAS to one thread).  Set-up
writes the 90-day synthetic set with ``probfcast generate --seed 55``,
several times in child processes; ``--seed`` draws the origins the timed
phase forecasts from.  The timed phase calls ``probfcast.cli.main`` with
the arguments a user types, in whole rounds, while more than half a round
of ``--seconds`` is left.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import checks
from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
BACKTEST_SCENARIOS = 6
RETRAIN_DAYS = 42
FORECAST_DRAWS = 1000
INIT_CYCLE_HOURS = 6  # cycle of the longest-range models in the synthetic roster
FORECAST_TRAIN_DAYS = 14

# Per-layer counters besides the layer times; all are reported per origin.
LAYER_COUNTS = (
    "ingest.rows",
    "error_model.train_rows",
    "qrf.nodes",
    "qrf.queries",
    "qrf.oob_rows",
    "combine.hours",
    "cli.bytes_written",
)
SETUP_LAYERS = ("synth.synthesize", "ingest.write")


class Terminated(BaseException):
    """Raised on SIGTERM.

    ``cli.main`` turns SystemExit and every Exception into a return code, so
    only a BaseException of another kind unwinds a run from inside a command.
    """


def _terminate(*_) -> None:
    raise Terminated


class Round:
    """One CLI command of the timed phase and what its check needs."""

    def __init__(self, argv: List[str], out: Path, origins: int, check: Callable) -> None:
        self.argv, self.out, self.origins, self.check = argv, out, origins, check
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.rc = -1


def _hours_to_iso(h: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%MZ", time.gmtime(h * 3600))


class Workload:
    """Builds round k of a workload; the seed fixes every round's inputs."""

    def __init__(self, name: str, seed: int, data_dir: Path, work: Path) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.fc, self.obs = str(data_dir / "forecasts.csv"), str(data_dir / "observations.csv")
        self.observations = checks.read_observations(data_dir / "observations.csv")
        start, end = min(self.observations), max(self.observations)
        if name == "retrain":
            first = start + 24 * RETRAIN_DAYS
            self.candidates = list(range(first, end + 2, 24))
        elif name == "forecast":
            first = start + 24 * FORECAST_TRAIN_DAYS
            self.candidates = list(range(first, end + 1, INIT_CYCLE_HOURS))
        else:
            self.candidates = [0]
        self.base = int(np.random.default_rng(seed).integers(len(self.candidates)))

    def round(self, k: int, tag: str) -> Round:
        out = self.work / f"{tag}{k:03d}"
        data = ["--forecasts", self.fc, "--observations", self.obs, "--out", str(out)]
        data += ["--jobs", "1"]
        if self.name == "backtest":
            n = BACKTEST_SCENARIOS
            argv = ["evaluate", *data, "--scenarios", str(n), "--seed", str(self.seed + k)]
            return Round(argv, out, n, lambda d: checks.check_backtest(out, d, n))
        origin = self.candidates[(self.base + k) % len(self.candidates)]
        at = ["--origin", _hours_to_iso(origin)]
        if self.name == "retrain":
            argv = ["train", *data, *at, "--train-days", str(RETRAIN_DAYS)]
            return Round(argv, out, 1, lambda d: checks.check_retrain(out, d, origin, RETRAIN_DAYS))
        # The operator asks for the chance of being colder than the last observation.
        threshold = round(self.observations[origin - 1], 1)
        argv = ["forecast", *data, *at, "--draws", str(FORECAST_DRAWS)]
        argv += ["--threshold", repr(threshold)]
        return Round(argv, out, 1, lambda _d: checks.check_forecast(out, threshold, FORECAST_DRAWS))


def setup(data_dir: Path, trace: bool) -> Tuple[float, Dict[str, float]]:
    """Median seconds of SETUP_REPS generate runs, and median setup layer times."""
    seconds: List[float] = []
    layers: Dict[str, List[float]] = {k: [] for k in SETUP_LAYERS}
    cmd = [sys.executable, str(BENCH_DIR / "make_inputs.py"), "--out", str(data_dir)]
    cmd += ["--trace", str(int(trace))]
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds.append(record["seconds"])
        for k in layers:
            layers[k].append(record.get("layers", {}).get(k, 0.0))
    return statistics.median(seconds), {k: statistics.median(v) for k, v in layers.items()}


def _bytes_in(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def timed_phase(cli, workload: Workload, seconds: float, tag: str, tracer=None) -> List[Round]:
    """Run whole rounds while more than half a round of ``seconds`` is left.

    Stopping there keeps the measured time closest to ``seconds`` however
    long a round takes.
    """
    rounds: List[Round] = []
    elapsed = 0.0
    while not rounds or seconds - elapsed > rounds[-1].seconds / 2:
        r = workload.round(len(rounds), tag)
        gc.collect()
        if tracer is not None:
            tracer.current_request = len(rounds)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            r.rc = cli.main(r.argv)
            r.seconds = time.perf_counter() - t0
        r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None and r.out.exists():
            tracer.counts["cli.bytes_written"] += _bytes_in(r.out)
        elapsed += r.seconds
        rounds.append(r)
    return rounds


def per_origin(rounds: List[Round]) -> float:
    return sum(r.seconds for r in rounds) / sum(r.origins for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("backtest", "retrain", "forecast"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run kills a running set-up child, the
    # working directory is removed and the run exits with 143.
    signal.signal(signal.SIGTERM, _terminate)

    src = ROOT / "src"
    if not (src / "probfcast" / "cli.py").is_file():
        print(f"error: no probfcast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import probfcast
    from probfcast import cli

    if Path(probfcast.__file__).resolve().parent != src / "probfcast":
        print(f"error: imported probfcast from {probfcast.__file__}, not {src}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data_dir = work / "data"
    t_start = time.perf_counter()
    try:
        setup_s, setup_layers = setup(data_dir, bool(args.trace))
        t_setup = time.perf_counter()
        workload = Workload(args.workload, args.seed, data_dir, work)

        rounds = timed_phase(cli, workload, args.seconds, "plain")
        traced: List[Round] = []
        tracer = None
        if args.trace:
            tracer = Tracer(LAYERS)
            tracer.install()
            try:
                traced = timed_phase(cli, workload, args.seconds, "traced", tracer)
            finally:
                tracer.uninstall()
            tracer.dump(out_root / f"spans-{args.workload}-seed{args.seed}.json")

        t_timed = time.perf_counter()
        attempted = sum(r.origins for r in rounds + traced)
        failed = sum(r.origins for r in rounds + traced if r.rc != 0)
        data = checks.Data(data_dir) if args.workload != "forecast" else None
        errors = [e for r in rounds + traced if r.rc == 0 for e in r.check(data)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(
        f"{args.workload}: set-up {t_setup - t_start:.1f}s, rounds "
        f"{' '.join(f'{r.seconds:.2f}' for r in rounds + traced)}s, "
        f"checks {time.perf_counter() - t_timed:.1f}s",
        file=sys.stderr,
    )

    if not args.trace:
        ok = [r for r in rounds if r.rc == 0]
        metrics = {
            "setup_s": (setup_s, "s"),
            "origins_per_s": (1.0 / per_origin(ok) if ok else 0.0, "1/s"),
            # The first command's peak: later commands in the same process
            # start from a heap that earlier ones fragmented, which a user
            # running one command per process never sees.
            "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
        }
    else:
        n = sum(r.origins for r in traced)
        self_s = tracer.self_seconds()
        metrics = {}
        for layer in LAYERS:
            value = setup_layers[layer] if layer in SETUP_LAYERS else self_s[layer] / n
            metrics[f"{layer}_s"] = (value, "s")
        for name in LAYER_COUNTS:
            metrics[name] = (tracer.counts.get(name, 0.0) / n, "count")
        metrics["trace.overhead_s"] = (per_origin(traced) - per_origin(rounds), "s")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
