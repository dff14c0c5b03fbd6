"""Span tracing of ballpoly's layers from outside the program.

``Tracer.installed`` replaces each public function in ``LAYERS`` by a wrapper,
at its module attribute and under every name that another ballpoly module
imported it by (``ballbody.sample_cap`` as well as ``sphere.sample_cap``).
Each call records a span: layer, parent span, instance, start and end.
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time

import numpy as np

LAYERS = (
    "sphere.sample_cap",
    "diskpoly.boundary_structure",
    "diskpoly.support_margins_2d",
    "diskpoly.width_2d",
    "diskpoly.hull_diameter_2d",
    "diskpoly.area",
    "ballbody.minimax_center",
    "ballbody.pole_margin_certificate",
    "ballbody.width_nd",
    "ballbody.hull_diameter",
    "ballbody.boundary_sample_dual",
    "ballbody.mc_volume",
    "oracles.oracle_area_mc",
    "oracles.oracle_width_grid",
    "proofreplay.replay_instance",
    "campaign.evaluate_instance",
    "campaign.write_reports",
)

# The stats every layer gets, with their units; all are per instance except
# the per-call percentiles.
STATS = (("calls", "calls/inst"), ("self_ms", "ms/inst"), ("p50_ms", "ms"), ("p90_ms", "ms"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points_key(points) -> bytes:
    return np.ascontiguousarray(points, dtype=float).tobytes()


# Counts recorded beside the timings of a layer: (name, fn(args, kwargs,
# result, tracer) -> number). Repeat counts key on the generator bytes.
def _boundary_repeat(args, kwargs, result, tracer):
    gens = _arg(args, kwargs, 0, "gens")
    return tracer.seen("diskpoly.boundary_structure",
                       _points_key(gens.points) + repr(gens.radius).encode())


def _minimax_repeat(args, kwargs, result, tracer):
    return tracer.seen("ballbody.minimax_center", _points_key(_arg(args, kwargs, 0, "points")))


COUNTERS = {
    "diskpoly.boundary_structure": (("repeat_calls", _boundary_repeat),),
    "diskpoly.support_margins_2d": (("poles", lambda a, k, res, t: len(_arg(a, k, 1, "poles"))),),
    "ballbody.minimax_center": (("repeat_calls", _minimax_repeat),),
    "ballbody.mc_volume": (("samples", lambda a, k, res, t: _arg(a, k, 1, "n")),
                           ("hit_fraction", lambda a, k, res, t: res.hit_fraction)),
    "sphere.sample_cap": (("points", lambda a, k, res, t: _arg(a, k, 2, "n")),),
    "campaign.write_reports": (("bytes", lambda a, k, res, t: sum(
        os.path.getsize(path) for path in res.values())),),
}

# Counter totals reported per instance, with their units.
PER_INSTANCE_COUNTS = {
    "diskpoly.boundary_structure.repeat_calls": "calls/inst",
    "diskpoly.support_margins_2d.poles": "rows/inst",
    "ballbody.minimax_center.repeat_calls": "calls/inst",
    "sphere.sample_cap.points": "points/inst",
    "campaign.write_reports.bytes": "B/inst",
}

OVERHEAD_METRICS = {
    "trace.instances_per_s_untraced": "1/s",
    "trace.instances_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run reports."""
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in STATS}
    units.update(PER_INSTANCE_COUNTS)
    units["ballbody.mc_volume.samples_per_s"] = "1/s"
    units["ballbody.mc_volume.hit_fraction"] = "fraction"
    units.update(OVERHEAD_METRICS)
    return units


class Tracer:
    def __init__(self):
        # span: [layer, parent index, instance, t0, t1, {counter: value}]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance = 0
        self._seen: dict[str, set] = {}

    def seen(self, layer: str, key: bytes) -> int:
        """1 if ``key`` was already passed to ``layer`` in this instance."""
        keys = self._seen.setdefault(layer, set())
        if key in keys:
            return 1
        keys.add(key)
        return 0

    def end_instance(self) -> None:
        self._instance += 1
        self._seen.clear()

    def _wrap(self, layer: str, fn):
        counters = COUNTERS.get(layer, ())
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, self._instance, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counters:
                span[5] = {stat: get(args, kwargs, result, self) for stat, get in counters}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer under every name a ballpoly module binds it to,
        and put the originals back on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ballpoly" or name.startswith("ballpoly."))]
        restore = []
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            original = getattr(sys.modules[f"ballpoly.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in restore:
                setattr(mod, attr, original)

    def layer_metrics(self, instances: int) -> dict[str, float]:
        """Per-instance totals and per-call percentiles for every layer."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        durations: dict[str, list[float]] = {layer: [] for layer in LAYERS}
        self_s = dict.fromkeys(LAYERS, 0.0)
        totals: dict[str, float] = {}
        hit_fractions: list[float] = []
        for i, (layer, _, _, t0, t1, counts) in enumerate(self.spans):
            durations[layer].append(t1 - t0)
            self_s[layer] += t1 - t0 - child_time[i]
            for stat, value in (counts or {}).items():
                if stat == "hit_fraction":
                    hit_fractions.append(value)
                else:
                    totals[f"{layer}.{stat}"] = totals.get(f"{layer}.{stat}", 0) + value
        out = {}
        for layer in LAYERS:
            ms = sorted(1000.0 * d for d in durations[layer])
            out[f"{layer}.calls"] = len(ms) / instances
            out[f"{layer}.self_ms"] = 1000.0 * self_s[layer] / instances
            out[f"{layer}.p50_ms"] = statistics.median(ms) if ms else 0.0
            out[f"{layer}.p90_ms"] = (
                statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1
                else sum(ms))
        for name in PER_INSTANCE_COUNTS:
            out[name] = totals.get(name, 0) / instances
        busy = sum(durations["ballbody.mc_volume"])
        out["ballbody.mc_volume.samples_per_s"] = (
            totals["ballbody.mc_volume.samples"] / busy if busy else 0.0)
        out["ballbody.mc_volume.hit_fraction"] = (
            statistics.fmean(hit_fractions) if hit_fractions else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, parent, inst, t0, t1, extra) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "layer": layer, "instance": inst,
                       "t0_s": t0, "dur_ms": 1000.0 * (t1 - t0)}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")

