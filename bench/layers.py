"""Per-layer tracing installed from outside the package.

Each traced function is replaced, where its caller looks the name up, by a
wrapper that records a span: name, start, end, parent span and op id (the
tick, MCL update or map the call belongs to). Spans stay in memory; a pass
is summarised into calls, busy time and self time per span name, plus the
counters that are observed on the wrapped calls' arguments and results.

Wrappers only read arguments and results. They never call into a seeded
RNG, so a traced pass produces the same outputs as an untraced one.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from omninav import localization, mapgen, navigate, sim, tour
from omninav.localization import effective_sample_size
from omninav.navigate import Navigator
from omninav.planning import Costmap

# (span name, owner whose attribute the caller looks up, attribute)
SPANS = [
    ("sim.step", sim, "step"),
    ("sim.raycast", sim, "raycast"),
    ("sim.sense_merged", sim, "sense_merged"),
    ("sensing.merge_scans", sim, "merge_scans"),
    ("sensing.combine_base_scans", sim, "combine_base_scans"),
    ("sensing.transform_scan_to_body", sim, "transform_scan_to_body"),
    ("planning.costmap_update", Costmap, "update"),
    ("planning.costmap_blocks", Costmap, "blocks"),
    ("planning.plan_local", navigate, "plan_local"),
    ("planning.astar", navigate, "astar"),
    ("planning.inflate", navigate, "inflate"),
    ("navigate.navigate_to_marker", Navigator, "navigate_to_marker"),
    ("localization.motion_update", localization, "motion_update"),
    ("localization.measurement_update", localization, "measurement_update"),
    ("localization.resample", localization, "resample"),
    ("localization.distance_field", localization, "distance_field"),
    ("mapgen.read_point_cloud", mapgen, "read_point_cloud"),
    ("mapgen.height_filter", mapgen, "height_filter"),
    ("mapgen.rasterize", mapgen, "rasterize"),
    ("mapgen.denoise", mapgen, "denoise"),
    ("mapgen.fill_unknown", mapgen, "fill_unknown"),
    ("mapgen.write_map", mapgen, "write_map"),
    ("mapgen.read_map", mapgen, "read_map"),
    ("tour.device_command", tour, "device_command"),
    ("tour.connectivity_check", tour, "connectivity_check"),
]
# called ~20 times per sim step: counted, not timed, to keep tracing cheap
CALL_COUNTS = [("motion.integrate_odometry", sim, "integrate_odometry")]


class Tracer:
    """Span store and counters for one pass; reset() between passes."""

    def __init__(self):
        self.op = 0
        # span record: [name, start_ns, end_ns, parent index, op id, child_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.sums: dict[str, float] = {}

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these containers
        self.op = 0
        self.spans.clear()
        self._stack.clear()
        self.calls.clear()
        self.sums.clear()

    def add(self, key: str, value: float = 1.0) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def _span(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0, 0, parent, tracer.op, 0]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in SPANS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._span(name, orig, _OBSERVERS.get(name)))
            for name, owner, attr in CALL_COUNTS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._counter(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self, device_requests: int = 0, replans: int = 0) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset()."""
        busy: dict[str, int] = {}
        own: dict[str, int] = {}
        calls: dict[str, int] = {}
        for name, start, end, _parent, _op, child in self.spans:
            dur = end - start
            busy[name] = busy.get(name, 0) + dur
            own[name] = own.get(name, 0) + dur - child
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_ms"] = busy.get(name, 0) / 1e6
            out[f"{name}.self_ms"] = own.get(name, 0) / 1e6
        for name, _, _ in CALL_COUNTS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        s = self.sums

        def ratio(num: str, den: str) -> float:
            return s.get(num, 0.0) / s[den] if s.get(den) else 0.0

        commands = calls.get("tour.device_command", 0)
        out.update({
            "navigate.replans": replans,
            "navigate.reverse_ticks": s.get("reverse_ticks", 0.0),
            "planning.costmap_cells_mean": ratio("costmap_cells", "costmap_updates"),
            "planning.blocks_hit_ratio": ratio("blocks_hits", "blocks_calls"),
            "planning.astar_path_cells": ratio("astar_path_cells", "astar_paths"),
            "sensing.valid_ratio": ratio("merged_valid", "merged_bins"),
            "localization.resample_ratio": ratio("resamples", "resample_calls"),
            "localization.ess_mean": ratio("ess", "measurement_updates"),
            "localization.degenerate": s.get("degenerate", 0.0),
            "tour.device_retries": device_requests / commands if commands else 0.0,
        })
        return out

    def write_spans(self, path) -> None:
        """JSON lines, one span each, for the pass recorded since reset()."""
        with open(path, "w") as f:
            for name, start, end, parent, op, _child in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")


def _step(t: Tracer, args, result) -> None:
    # a tick ends when sim.step returns; reversing ticks command vx < 0
    t.op += 1
    if args[1].vx < 0.0:
        t.add("reverse_ticks")


def _costmap_update(t: Tracer, args, result) -> None:
    t.add("costmap_updates")
    t.add("costmap_cells", len(args[0].obstacles))


def _blocks(t: Tracer, args, result) -> None:
    t.add("blocks_calls")
    if result:
        t.add("blocks_hits")


def _astar(t: Tracer, args, result) -> None:
    path = result[0]
    if path is not None:
        t.add("astar_paths")
        t.add("astar_path_cells", len(path))


def _merge(t: Tracer, args, result) -> None:
    t.add("merged_bins", len(result.ranges))
    t.add("merged_valid", sum(1 for r in result.ranges if r >= 0.0))


def _measurement(t: Tracer, args, result) -> None:
    t.add("measurement_updates")
    t.add("ess", effective_sample_size(result.weights))
    if result.degenerate:
        t.add("degenerate")


def _resample(t: Tracer, args, result) -> None:
    # resample returns its input unchanged when the ESS test skips it
    t.add("resample_calls")
    if result is not args[0]:
        t.add("resamples")


_OBSERVERS = {
    "sim.step": _step,
    "planning.costmap_update": _costmap_update,
    "planning.costmap_blocks": _blocks,
    "planning.astar": _astar,
    "sensing.merge_scans": _merge,
    "localization.measurement_update": _measurement,
    "localization.resample": _resample,
}
