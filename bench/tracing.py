"""In-memory span tracer that wraps probfcast's public functions from outside.

``pipeline`` and ``cli`` import several functions by name, so a function is
replaced at every module attribute that refers to it, not only in the module
that defines it.  Each call records one span (layer, start, end, parent);
a layer's self time is its spans' durations minus the time their direct
child spans cover.  Counters are taken from the same calls' results.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# layer -> public functions timed, as (module, attribute path)
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "ingest.load": (
        ("probfcast.ingest", "load_forecasts"),
        ("probfcast.ingest", "load_observations"),
    ),
    "ingest.slice": (("probfcast.ingest", "slice_scenario"),),
    "ingest.write": (
        ("probfcast.ingest", "write_forecasts"),
        ("probfcast.ingest", "write_observations"),
    ),
    "synth.synthesize": (("probfcast.synth", "synthesize_dataset"),),
    "error_model.rank": (("probfcast.error_model", "rank_label_members"),),
    "error_model.table": (("probfcast.error_model", "build_error_table"),),
    "qrf.train": (("probfcast.qrf", "train"),),
    "qrf.predict": (("probfcast.qrf", "predict_quantiles_batch"),),
    "qrf.oob": (("probfcast.qrf", "oob_coverage"),),
    "qrf.save": (("probfcast.qrf", "save_forest"),),
    "combine.combine": (("probfcast.combine", "combine_timestep"),),
    "dist.build_cdf": (("probfcast.dist", "build_cdf"),),
    "dist.sample": (("probfcast.dist", "PiecewiseCDF.sample"),),
    "scoring.score": (
        ("probfcast.scoring", "crps"),
        ("probfcast.scoring", "crps_ensemble"),
        ("probfcast.scoring", "log_score"),
    ),
    "scoring.aggregate": (
        ("probfcast.scoring", "aggregate_by_lead"),
        ("probfcast.scoring", "interval_coverage"),
        ("probfcast.scoring", "mae_median"),
    ),
    # run_scenarios is included so that origin drawing counts as pipeline
    # work rather than as CLI work.
    "pipeline.self": (
        ("probfcast.pipeline", "run_scenario"),
        ("probfcast.pipeline", "run_scenarios"),
    ),
    "cli.self": (("probfcast.cli", "main"),),
}

# counter name and how to read it off a call's result
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "load_forecasts": ("ingest.rows", len),
    "load_observations": ("ingest.rows", len),
    "build_error_table": ("error_model.train_rows", lambda t: t.n_rows),
    "train": ("qrf.nodes", lambda f: sum(int(t.feature.size) for t in f.trees)),
    "predict_quantiles_batch": ("qrf.queries", lambda m: m.shape[0]),
    "oob_coverage": ("qrf.oob_rows", lambda o: int(o.n_rows.sum())),
    "combine_timestep": ("combine.hours", lambda _: 1),
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced phase."""

    def __init__(self, layers: Dict[str, Tuple[Tuple[str, str], ...]]) -> None:
        self.layers = layers
        self.layer: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.request: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.current_request = 0
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable, counter: Optional[Tuple[str, Callable]]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self._stack[-1])
            self.request.append(self.current_request)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Replace every probfcast attribute bound to a traced function."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "probfcast"]
        for layer, targets in self.layers.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                traced = self._wrap(layer, original, COUNTERS.get(attr))
                if outer:  # a method: its class is the only name it is called through
                    holders = [owner]
                else:
                    holders = [m for m in modules if getattr(m, attr, None) is original]
                for holder in holders:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: summed span durations minus direct children's durations."""
        out = {layer: 0.0 for layer in self.layers}
        for i, layer in enumerate(self.layer):
            dur = self.end[i] - self.start[i]
            out[layer] += dur
            if self.parent[i] >= 0:
                out[self.layer[self.parent[i]]] -= dur
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "layer": self.layer,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "request": self.request,
                    "counts": dict(self.counts),
                },
                fh,
            )
