"""One set-up repetition: write the benchmark inputs with ``probfcast generate``.

Runs in its own process so that set-up never sets the peak memory of the
timed phase.  Interpreter start and imports are excluded from the figure.
Prints one JSON line: the seconds ``cli.main`` took and, with ``--trace 1``,
the self seconds of the synth and ingest-writer layers.

    python3 bench/make_inputs.py --out DIR --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

# The fixed dataset of every workload: the 90-day synthetic set, seed 55.
DATA_SEED = 55
SPAN_DAYS = 90
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from probfcast import cli

    from tracing import LAYERS, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer({k: LAYERS[k] for k in ("synth.synthesize", "ingest.write")})
        tracer.install()
    argv = ["generate", "--out", args.out, "--seed", str(DATA_SEED)]
    argv += ["--span-days", str(SPAN_DAYS)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    if rc != 0:
        print(f"probfcast generate exited with {rc}", file=sys.stderr)
        return 1
    record = {"seconds": seconds}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.self_seconds()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
