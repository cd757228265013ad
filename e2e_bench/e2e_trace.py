"""Per-layer tracing for the benchmark's traced run.

The traced run wraps public entry points of the program from the
benchmark's own files: each wrapper records a span (inclusive time,
self time, call count) and, where the layer does countable work, a
counter.  Spans nest per thread; a layer's self time is its duration
minus the time its child spans cover.  Totals live in memory and are
differenced over a run's metered window by the step clock collector.

An entry point that no longer exists is reported as absent: its
metrics read 0 and are named in the run's diagnostics, and the run
goes on.  The untraced runs install none of this.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

# (layer, module, attribute path, timed).  Several entry points may
# feed one layer.
ENTRY_POINTS = [
    ("mobility.model", "repro.sim.engine", "make_model", False),
    ("radio.edges", "repro.sim.engine", "unit_disk_edges", True),
    ("hierarchy.build", "repro.sim.engine", "build_hierarchy", True),
    ("core.servers.assign", "repro.core.handoff", "full_assignment", True),
    ("core.events.diff", "repro.core.handoff", "diff_hierarchies", True),
    ("core.handoff.observe", "repro.core.handoff", "HandoffEngine.observe", True),
    ("sim.hops.call", "repro.sim.hops", "BfsHops.__call__", False),
    ("sim.hops.call", "repro.sim.hops", "EuclideanHops.__call__", False),
    ("sim.hops.batch", "repro.sim.hops", "BfsHops.batch", False),
    ("sim.hops.batch", "repro.sim.hops", "EuclideanHops.batch", False),
    ("routing.flat.bfs", "repro.routing.flat", "bfs_distances", True),
    ("faults.delivery.send", "repro.faults.delivery", "DeliveryEngine.send", True),
    ("core.batch_query.build", "repro.core.batch_query", "BatchResolver.__init__", True),
    ("core.batch_query.plan", "repro.core.batch_query", "BatchResolver.resolve", True),
    ("core.batch_query.plan", "repro.core.batch_query", "BatchResolver.plans", True),
    ("core.batch_query.plan", "repro.core.batch_query", "BatchResolver.update_plans", True),
    ("core.batch_query.walk", "repro.core.batch_query", "BatchProbePlans.walk", True),
    ("core.batch_query.walk", "repro.core.batch_query", "BatchUpdatePlans.walk", True),
    ("service.step", "repro.sim.collectors", "ServiceCollector.on_step", True),
    ("service.workload", "repro.service.workload", "WorkloadGenerator.step", False),
    ("sim.collectors.sampling", "repro.sim.collectors", "HopSampleCollector.on_step", True),
] + [
    ("sim.collectors.other", "repro.sim.collectors", f"{cls}.on_step", True)
    for cls in ("LedgerCollector", "LinkEventCollector", "StateCollector",
                "LevelSeriesCollector", "QueryCollector", "TraceCollector",
                "ChaosCollector")
]


class Tracer:
    """In-memory span and counter totals.

    Each thread adds to its own table, so the dispatcher threads of the
    service never wait on one another to record a span; a snapshot sums
    the tables."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # guards the list of tables
        self._tables: list[dict[str, float]] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []
        self._last_levels: dict[int, int] = {}
        self.absent: list[str] = []

    # -- totals ------------------------------------------------------------------

    def _state(self) -> tuple[list[float], dict[str, float]]:
        """This thread's (span stack, totals table)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float))
            with self._lock:
                self._tables.append(state[1])
        return state

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            tables = list(self._tables)
        out: dict[str, float] = defaultdict(float)
        for table in tables:
            for k, v in table.copy().items():
                out[k] += v
        return dict(out)

    @staticmethod
    def delta(before: dict | None, after: dict | None) -> dict[str, float]:
        before, after = before or {}, after or {}
        return {k: v - before.get(k, 0.0) for k, v in after.items()}

    def add(self, name: str, value: float) -> None:
        self._state()[1][name] += value

    # -- spans -------------------------------------------------------------------

    def timed(self, layer: str, fn, after=None):
        """Wrap ``fn`` in a span of ``layer``; ``after(out, args)``
        records the layer's counters from the call's result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, totals = tracer._state()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                elif threading.get_ident() == tracer._main:
                    totals["top.s"] += dur
                totals[f"{layer}.s"] += dur
                totals[f"{layer}.self_s"] += dur - child
                totals[f"{layer}.calls"] += 1
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def counted(self, layer: str, fn, after=None):
        """Wrap ``fn`` to count its calls without timing them."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer._state()[1][f"{layer}.calls"] += 1
            if after is not None:
                after(out, args)
            return out

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` that exists."""
        hooks = self._hooks()
        for layer, module, path, timed in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                fn = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            after = hooks.get(layer)
            wrap = self.timed if timed else self.counted
            setattr(owner, parts[-1], wrap(layer, fn, after))
            self._undo.append((owner, parts[-1], fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _hooks(self) -> dict:
        add = self.add

        def on_model(model, args):
            model.step = self.timed("mobility.step", model.step)

        def on_edges(edges, args):
            add("radio.links", len(edges))

        def on_hierarchy(h, args):
            add("hierarchy.levels", h.num_levels)

        def on_assign(assignment, args):
            h = args[0]
            add("core.servers.entries", h.n * h.num_levels)

        def on_observe(report, args):
            engine, h = args[0], args[1]
            prev = self._last_levels.get(id(engine))
            self._last_levels[id(engine)] = h.num_levels
            if prev is None:
                return
            add("core.handoff.entries_moved",
                sum(report.migration_entries.values())
                + sum(report.reorg_entries.values()))
            add("core.handoff.entries_walked", h.n * max(prev, h.num_levels))
            add("core.handoff.registrations", report.registration_events)

        def on_send(out, args):
            add("faults.delivery.retransmissions", out.retransmitted)

        def on_workload(requests, args):
            add("service.requests", len(requests))

        return {
            "mobility.model": on_model,
            "radio.edges": on_edges,
            "hierarchy.build": on_hierarchy,
            "core.servers.assign": on_assign,
            "core.handoff.observe": on_observe,
            "faults.delivery.send": on_send,
            "service.workload": on_workload,
        }


# -- per-layer metrics -----------------------------------------------------------

# name -> (unit, better)
PER_LAYER = {
    "mobility.step_ms": ("ms", "lower"),
    "radio.edges_ms": ("ms/step", "lower"),
    "radio.links": ("count", "lower"),
    "hierarchy.build_ms": ("ms/step", "lower"),
    "hierarchy.levels": ("count", "lower"),
    "core.servers.assign_ms": ("ms/step", "lower"),
    "core.servers.entries": ("count", "lower"),
    "core.events.diff_ms": ("ms/step", "lower"),
    "core.handoff.observe_ms": ("ms/step", "lower"),
    "core.handoff.self_ms": ("ms/step", "lower"),
    "core.handoff.entries_moved": ("count/step", "lower"),
    "core.handoff.moved_fraction": ("ratio", "higher"),
    "core.handoff.registrations": ("count/step", "lower"),
    "sim.hops.calls": ("count/step", "lower"),
    "sim.hops.batch_calls": ("count/step", "lower"),
    "routing.flat.bfs_runs": ("count/step", "lower"),
    "routing.flat.bfs_ms": ("ms/step", "lower"),
    "faults.delivery.sends": ("count/step", "lower"),
    "faults.delivery.retransmissions": ("count/step", "lower"),
    "faults.delivery.ms": ("ms/step", "lower"),
    "core.batch_query.build_ms": ("ms/step", "lower"),
    "core.batch_query.plan_ms": ("ms/step", "lower"),
    "core.batch_query.walk_ms": ("ms/step", "lower"),
    "service.step_ms": ("ms/step", "lower"),
    "service.requests": ("count/step", "higher"),
    "sim.collectors.sampling_ms": ("ms/step", "lower"),
    "sim.collectors.other_ms": ("ms/step", "lower"),
    "sim.engine.other_ms": ("ms/step", "lower"),
    "sim.sweep.task_s": ("s", "lower"),
    "sim.sweep.ser_ms": ("ms", "lower"),
    "sim.sweep.busy_fraction": ("ratio", "higher"),
}

# metric -> entry-point layers it is read from (for absent reporting)
_SOURCES = {
    "mobility.step_ms": ["mobility.model"],
    "radio.edges_ms": ["radio.edges"],
    "radio.links": ["radio.edges"],
    "hierarchy.build_ms": ["hierarchy.build"],
    "hierarchy.levels": ["hierarchy.build"],
    "core.servers.assign_ms": ["core.servers.assign"],
    "core.servers.entries": ["core.servers.assign"],
    "core.events.diff_ms": ["core.events.diff"],
    "core.handoff.observe_ms": ["core.handoff.observe"],
    "core.handoff.self_ms": ["core.handoff.observe"],
    "core.handoff.entries_moved": ["core.handoff.observe"],
    "core.handoff.moved_fraction": ["core.handoff.observe"],
    "core.handoff.registrations": ["core.handoff.observe"],
    "sim.hops.calls": ["sim.hops.call"],
    "sim.hops.batch_calls": ["sim.hops.batch"],
    "routing.flat.bfs_runs": ["routing.flat.bfs"],
    "routing.flat.bfs_ms": ["routing.flat.bfs"],
    "faults.delivery.sends": ["faults.delivery.send"],
    "faults.delivery.retransmissions": ["faults.delivery.send"],
    "faults.delivery.ms": ["faults.delivery.send"],
    "core.batch_query.build_ms": ["core.batch_query.build"],
    "core.batch_query.plan_ms": ["core.batch_query.plan"],
    "core.batch_query.walk_ms": ["core.batch_query.walk"],
    "service.step_ms": ["service.step"],
    "service.requests": ["service.workload"],
    "sim.collectors.sampling_ms": ["sim.collectors.sampling"],
    "sim.collectors.other_ms": ["sim.collectors.other"],
}


def absent_metrics(absent_entry_points: list[str]) -> list[str]:
    """Per-layer metrics fed by an entry point that could not be wrapped."""
    layers = {layer for layer, module, path, _ in ENTRY_POINTS
              if f"{module}.{path}" in absent_entry_points}
    return sorted(m for m, srcs in _SOURCES.items() if layers & set(srcs))


def layer_values(traces: list[dict], sweep: dict | None = None) -> dict[str, float]:
    """Per-layer metric values from the step clocks' metered-window
    totals (summed over every simulation of the run) and, for the
    sweep, from its progress events."""
    d: dict[str, float] = defaultdict(float)
    steps = 0
    step_s = 0.0
    for tr in traces:
        for k, v in tr["delta"].items():
            d[k] += v
        steps += tr["steps"]
        step_s += tr["step_s"]

    def per_step_ms(key: str) -> float:
        return d[key] * 1e3 / steps if steps else 0.0

    def per_step(key: str) -> float:
        return d[key] / steps if steps else 0.0

    def per_call(key: str, layer: str) -> float:
        calls = d[f"{layer}.calls"]
        return d[key] / calls if calls else 0.0

    out = {
        "mobility.step_ms": per_call("mobility.step.s", "mobility.step") * 1e3,
        "radio.edges_ms": per_step_ms("radio.edges.s"),
        "radio.links": per_call("radio.links", "radio.edges"),
        "hierarchy.build_ms": per_step_ms("hierarchy.build.s"),
        "hierarchy.levels": per_call("hierarchy.levels", "hierarchy.build"),
        "core.servers.assign_ms": per_step_ms("core.servers.assign.s"),
        "core.servers.entries": per_call("core.servers.entries", "core.servers.assign"),
        "core.events.diff_ms": per_step_ms("core.events.diff.s"),
        "core.handoff.observe_ms": per_step_ms("core.handoff.observe.s"),
        "core.handoff.self_ms": per_step_ms("core.handoff.observe.self_s"),
        "core.handoff.entries_moved": per_step("core.handoff.entries_moved"),
        "core.handoff.moved_fraction": (
            d["core.handoff.entries_moved"] / d["core.handoff.entries_walked"]
            if d["core.handoff.entries_walked"] else 0.0),
        "core.handoff.registrations": per_step("core.handoff.registrations"),
        "sim.hops.calls": per_step("sim.hops.call.calls"),
        "sim.hops.batch_calls": per_step("sim.hops.batch.calls"),
        "routing.flat.bfs_runs": per_step("routing.flat.bfs.calls"),
        "routing.flat.bfs_ms": per_step_ms("routing.flat.bfs.s"),
        "faults.delivery.sends": per_step("faults.delivery.send.calls"),
        "faults.delivery.retransmissions": per_step("faults.delivery.retransmissions"),
        "faults.delivery.ms": per_step_ms("faults.delivery.send.s"),
        "core.batch_query.build_ms": per_step_ms("core.batch_query.build.s"),
        "core.batch_query.plan_ms": per_step_ms("core.batch_query.plan.s"),
        "core.batch_query.walk_ms": per_step_ms("core.batch_query.walk.s"),
        "service.step_ms": per_step_ms("service.step.s"),
        "service.requests": per_step("service.requests"),
        "sim.collectors.sampling_ms": per_step_ms("sim.collectors.sampling.s"),
        "sim.collectors.other_ms": per_step_ms("sim.collectors.other.s"),
        "sim.engine.other_ms": (
            (step_s - d["top.s"]) * 1e3 / steps if steps else 0.0),
        "sim.sweep.task_s": 0.0,
        "sim.sweep.ser_ms": 0.0,
        "sim.sweep.busy_fraction": 0.0,
    }
    if sweep and sweep["tasks"]:
        out["sim.sweep.task_s"] = statistics.median(sweep["task_s"])
        out["sim.sweep.ser_ms"] = statistics.mean(sweep["ser_s"]) * 1e3
        capacity = sweep["wall_s"] * sweep["workers"]
        out["sim.sweep.busy_fraction"] = (
            sum(sweep["task_s"]) / capacity if capacity else 0.0)
    return out
