"""The benchmark's three workloads.

* ``handoff-large`` — the write side of the CHLM server table: the
  ``paper-default`` preset at n = 10^4, lossless, no queries and no
  service, one process, Euclidean hop metering.
* ``paper-sweep`` — what the experiments run: a grid of
  ``paper-default`` scenarios at n <= 500 over several seeds through
  ``run_sweep_detailed`` with two worker processes, no result cache and
  the default result transport.  Exact BFS hop metering dominates.
* ``lossy-service`` — the read side: n = 2000 with per-hop loss and
  retries plus an open-loop Poisson CHLM service whose simulated queue
  never drops.

Each workload repeats whole rounds (one simulation of a fixed number of
metered steps, or one sweep grid) until the run's time is up, then runs
its output checks outside the timed intervals.  Round ``r`` of a run
with seed ``s`` simulates scenario seeds derived from ``(s, r)`` only,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import functools
import multiprocessing
import statistics
import time
from dataclasses import dataclass

import numpy as np

import e2e_checks as checks
from e2e_common import (
    Outcome,
    metric,
    own_peak_rss_mb,
    process_peak_rss_mb,
    step_clock_class,
    usable_cpus,
)


@dataclass(frozen=True)
class SimConfig:
    """One simulation per round: ``steps`` metered steps at ``n``."""

    n: int
    steps: int
    overrides: tuple = ()


@dataclass(frozen=True)
class SweepConfig:
    """One grid per round: ``ns`` x ``seeds`` tasks of ``steps`` steps."""

    ns: tuple
    seeds: int
    steps: int


LOSSY = (("loss_rate", 0.05), ("retry_attempts", 3))

CONFIGS = {
    "full": {
        "handoff-large": SimConfig(n=10_000, steps=3),
        "paper-sweep": SweepConfig(ns=(300, 500), seeds=2, steps=8),
        "lossy-service": SimConfig(
            n=2000, steps=3,
            overrides=LOSSY + (("arrival_rate", 2000.0),
                               ("service_hop_time", 5e-7))),
    },
    # Seconds-long versions of the same workloads, for the smoke tests.
    "tiny": {
        "handoff-large": SimConfig(n=150, steps=3),
        "paper-sweep": SweepConfig(ns=(60, 90), seeds=2, steps=3),
        "lossy-service": SimConfig(
            n=150, steps=3,
            overrides=LOSSY + (("arrival_rate", 300.0),
                               ("service_hop_time", 5e-7))),
    },
}

WORKLOADS = ("handoff-large", "paper-sweep", "lossy-service")


def scenario(n: int, steps: int, seed: int, overrides=()):
    from repro.sim.presets import make_scenario

    return make_scenario("paper-default", n=n, steps=steps, seed=seed,
                         **dict(overrides))


def round_seed(seed: int, rnd: int, task: int = 0) -> int:
    return seed * 1000 + rnd * 10 + task


def _clock(res) -> dict:
    return res.extras["e2e_clock"]


def _traces(res) -> list[dict]:
    """The traced run's per-layer totals of one simulation, if any."""
    return [_clock(res)["trace"]] if "trace" in _clock(res) else []


# -- in-process simulation workloads -------------------------------------------


def run_simulations(name: str, cfg: SimConfig, seed: int, seconds: float,
                    tracer=None) -> dict:
    """Repeat one simulation per round until ``seconds`` have passed,
    checking each round's outputs after its timed interval."""
    from repro.sim.engine import Simulator

    StepClock = step_clock_class()
    rng = np.random.default_rng(seed)
    keep_step = int(rng.integers(cfg.steps))
    overrides = cfg.overrides
    if name == "lossy-service":
        overrides += (("service_workers", min(2, usable_cpus())),)
    outcome = Outcome()
    walls, clocks, traces = [], [], []
    kept = None
    t_begin = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - t_begin < seconds:
        sc = scenario(cfg.n, cfg.steps, round_seed(seed, rnd), overrides)
        t0 = time.perf_counter()
        clock = StepClock(t_init=t0, keep_step=keep_step if rnd == 0 else None,
                          tracer=tracer)
        try:
            res = Simulator(sc, collectors=[clock]).run()
        except Exception as exc:  # a failed round is counted, not fatal
            outcome.raised(cfg.steps, exc)
            rnd += 1
            continue
        walls.append(time.perf_counter() - t0)
        clocks.append(_clock(res))
        traces += _traces(res)
        if name == "lossy-service":
            problems = checks.check_service_report(res.extras["service"])
        else:
            problems = checks.check_lossless(res.ledger)
        outcome.record(cfg.steps, cfg.steps if problems else 0, problems)
        if rnd == 0:
            kept = clock.kept
        rnd += 1
    return {
        "outcome": outcome, "walls": walls, "clocks": clocks,
        "traces": traces, "kept": kept, "peak_rss_mb": own_peak_rss_mb(),
        "rounds": rnd, "rng": rng,
    }


def handoff_large(cfg: SimConfig, seed: int, seconds: float, tracer=None) -> dict:
    out = run_simulations("handoff-large", cfg, seed, seconds, tracer)
    if out["kept"] is not None:
        problems = checks.check_handoff_snapshot(out["kept"])
        if problems:
            out["outcome"].record(0, 1, problems)
    return out


def lossy_service(cfg: SimConfig, seed: int, seconds: float, tracer=None,
                  lookups: int = 24) -> dict:
    out = run_simulations("lossy-service", cfg, seed, seconds, tracer)
    snap = out["kept"]
    if snap is not None:
        from repro.core.batch_query import BatchResolver

        n = snap.scenario.n
        rng = out["rng"]
        src = rng.integers(n, size=lookups)
        dst = (src + 1 + rng.integers(n - 1, size=lookups)) % n
        hash_fn = snap.scenario.hash_fn
        batch = BatchResolver(snap.hierarchy, snap.assignment, snap.hop_fn,
                              hash_fn=hash_fn).resolve(src, dst)
        problems = checks.check_batch_lookups(
            snap.hierarchy, snap.assignment, snap.hop_fn, src, dst, batch,
            hash_fn=hash_fn)
        if problems:
            out["outcome"].record(0, 1, problems)
    return out


# -- process-parallel sweep ----------------------------------------------------


def install_sweep_clock(clock_cls, tracer=None):
    """Give every ``Simulator`` built in this process, and in the sweep
    workers forked from it, a step clock through its ``collectors=``
    parameter, so each task's timings (and, traced, its per-layer
    totals) come back in ``SimResult.extras``.  Returns the undo."""
    from repro.sim.engine import Simulator

    init = Simulator.__init__

    @functools.wraps(init)
    def clocked_init(self, *args, collectors=None, **kwargs):
        clock = clock_cls(t_init=time.perf_counter(), tracer=tracer)
        init(self, *args, collectors=list(collectors or []) + [clock], **kwargs)

    Simulator.__init__ = clocked_init

    def undo() -> None:
        Simulator.__init__ = init

    return undo


def _wait_for_workers(timeout: float = 60.0) -> None:
    """Block until every child process has ended.

    ``run_sweep_detailed`` shuts its pool down without waiting, so its
    workers may still be exiting when it returns."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("sweep worker processes did not exit")
        time.sleep(0.01)


def sweep_grid(cfg: SweepConfig, seed: int, rnd: int) -> list:
    from repro.sim.sweep import expand_grid

    return expand_grid(scenario(cfg.ns[0], cfg.steps, 0), ns=cfg.ns,
                       seeds=[round_seed(seed, rnd, j) for j in range(cfg.seeds)])


def paper_sweep(cfg: SweepConfig, seed: int, seconds: float, tracer=None) -> dict:
    from repro.sim.engine import Simulator
    from repro.sim.sweep import run_sweep_detailed

    undo = install_sweep_clock(step_clock_class(), tracer)
    try:
        workers = min(2, usable_cpus())
        rng = np.random.default_rng(seed)
        outcome = Outcome()
        walls, clocks, traces, task_s, ser_s = [], [], [], [], []
        worker_peaks: list[float] = []
        first = None
        t_begin = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - t_begin < seconds:
            scenarios = sweep_grid(cfg, seed, rnd)
            peaks: dict[int, float] = {}

            def on_progress(p) -> None:
                task_s.append(p.task_seconds)
                ser_s.append(p.ser_seconds)
                if p.worker is not None:
                    rss = process_peak_rss_mb(p.worker)
                    if rss is not None:
                        peaks[p.worker] = max(peaks.get(p.worker, 0.0), rss)

            t0 = time.perf_counter()
            try:
                run = run_sweep_detailed(scenarios, workers=workers,
                                         cache_dir=None, progress=on_progress)
            except Exception as exc:  # a failed round is counted, not fatal
                outcome.raised(len(scenarios), exc)
                _wait_for_workers()
                rnd += 1
                continue
            walls.append(time.perf_counter() - t0)
            _wait_for_workers()
            worker_peaks.append(sum(peaks.values()))
            failed = {e.index for e in run.errors}
            errors = [f"task {e.index}: {e.kind}: {e.message}" for e in run.errors]
            problems = []
            grid_clocks = []
            for i, (sc, res) in enumerate(zip(scenarios, run.results)):
                if i in failed:
                    continue
                bad = checks.check_sweep_result(sc, res)
                if bad:
                    failed.add(i)
                    problems += [f"task {i}: {b}" for b in bad]
                elif "e2e_clock" in res.extras:
                    grid_clocks.append(_clock(res))
                    traces += _traces(res)
            clocks.append(grid_clocks)
            outcome.record(len(scenarios), len(failed), problems, errors)
            if rnd == 0:
                first = (scenarios, run.results)
            rnd += 1
        peak_rss = own_peak_rss_mb() + max(worker_peaks, default=0.0)

        # One sampled task against a serial in-process run of its scenario.
        if first is not None:
            scenarios, results = first
            j = int(rng.integers(len(scenarios)))
            if results[j] is not None:
                reference = Simulator(scenarios[j]).run()
                problems = checks.check_identical(results[j], reference)
                if problems:
                    outcome.record(0, 1, problems)
    finally:
        undo()
    return {
        "outcome": outcome, "walls": walls, "clocks": clocks,
        "traces": traces, "peak_rss_mb": peak_rss, "rounds": rnd,
        "sweep": {"tasks": len(task_s), "task_s": task_s, "ser_s": ser_s,
                  "wall_s": sum(walls), "workers": workers},
    }


# -- end-to-end metrics ----------------------------------------------------------


def e2e_metrics(name: str, out: dict) -> dict:
    """``setup_s``: median set-up of a simulation (paper-sweep: of a
    whole grid, summed over its tasks); ``step_ms``: median metered
    step (paper-sweep: median over grids of the grid's mean step);
    ``wall_s``: median round; ``peak_rss_mb``: the run's peak."""
    if name == "paper-sweep":
        # A grid mixes sizes, so its steps are pooled into one mean per
        # grid (the median of the pooled steps would fall between the
        # sizes' modes).
        grids = [grid for grid in out["clocks"] if grid]
        setups = [sum(c["setup_s"] for c in grid) for grid in grids]
        steps = [sum(s for c in grid for s in c["step_s"])
                 / sum(len(c["step_s"]) for c in grid) for grid in grids]
    else:
        setups = [c["setup_s"] for c in out["clocks"]]
        steps = [s for c in out["clocks"] for s in c["step_s"]]

    def median(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0  # every round failed

    return {
        "setup_s": metric(median(setups), "s"),
        "step_ms": metric(median(steps) * 1e3, "ms"),
        "wall_s": metric(median(out["walls"]), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
    }


def run_workload(name: str, scale: str, seed: int, seconds: float, tracer=None) -> dict:
    cfg = CONFIGS[scale][name]
    runner = {"handoff-large": handoff_large, "paper-sweep": paper_sweep,
              "lossy-service": lossy_service}[name]
    return runner(cfg, seed, seconds, tracer)
