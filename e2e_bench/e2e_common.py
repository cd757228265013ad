"""Shared pieces of the end-to-end benchmark.

The benchmark drives the simulator only through its public entry points:
``Simulator(scenario, collectors=...)``, ``run_sweep_detailed`` and the
result objects they return.  This module holds what every workload
needs: locating the program's sources, the step clock collector, the
host-speed calibration loop, memory readings and the result line.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ensure_program() -> None:
    """Put the program's sources on ``sys.path``, or exit non-zero.

    The benchmark builds nothing: the simulator is pure Python under
    ``src/``.  Without it there is nothing to measure, so the run stops
    before printing a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e_bench: program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def usable_cpus() -> int:
    """CPUs this process may run on (the worker/thread ceiling)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def calibration_ms(repeats: int = 5, iterations: int = 200_000) -> float:
    """Median wall time of a fixed pure-Python integer loop.

    Recorded beside the metrics (never inside them) so that drift in
    the host's own speed between runs can be told apart from a change
    in the program."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def own_peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        return None
    return None


def child_pids() -> list[int]:
    """Process ids of this process's live or unreaped children."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent id is the second
        # field after its closing parenthesis.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 60.0) -> None:
    """End every process this run started and wait until each has ended.

    Sweep workers get ``timeout`` seconds to exit on their own.  The
    shared-memory result transport starts multiprocessing's resource
    tracker, which otherwise lives until after this process has exited;
    it is stopped and reaped here.  Anything left is terminated."""
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(deadline - time.monotonic(), 0.0))
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def info(**fields) -> None:
    """One diagnostic JSON line on stderr (stdout ends with the result)."""
    print("e2e_bench " + json.dumps(fields, sort_keys=True), file=sys.stderr,
          flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of stdout."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


class Outcome:
    """Operation accounting for one run.

    An operation is one metered simulator step or one sweep task.  It
    fails when it raises or when a check of its output fails; a failed
    check also makes the run incorrect.  Lossy-channel outcomes
    (abandoned transfers, fallback or failed lookups) are outputs of the
    simulated network, not failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.errors: list[str] = []

    def record(self, ops: int, failed: int = 0, problems=(), errors=()) -> None:
        """Count ``ops`` operations, ``failed`` of them failed; a
        non-empty ``problems`` (failed checks) marks the run incorrect,
        ``errors`` (operations that raised) do not."""
        self.attempted += ops
        self.failed += failed
        if problems:
            self.correct = False
            self.problems.extend(problems)
        self.errors.extend(errors)

    def raised(self, ops: int, exc: BaseException) -> None:
        self.record(ops, ops, errors=[f"{type(exc).__name__}: {exc}"])


def step_clock_class():
    """The :class:`StepClock` collector, built once the program is
    importable (it subclasses the program's collector base)."""
    from repro.sim.collectors import Collector

    class StepClock(Collector):
        """Times set-up and every metered step of one simulation.

        Registered last through ``Simulator(collectors=...)``, so the
        interval between two of its ``on_step`` calls spans one whole
        pipeline step including every default collector, and its
        ``on_start`` marks the end of set-up (warm-up mobility, first
        election, first assignment) counted from ``t_init``, taken just
        before the ``Simulator`` was built.  Its ``finalize`` puts the
        timings in ``SimResult.extras["e2e_clock"]``, so they come back
        from sweep workers with the result.

        It can keep one step's snapshot for the output checks (a
        reference only; the checks run after the timed interval) and,
        in the traced run, differences the tracer's totals over the
        metered window."""

        name = "e2e_clock"

        def __init__(self, t_init: float | None = None,
                     keep_step: int | None = None, tracer=None):
            self.t_init = time.perf_counter() if t_init is None else t_init
            self.keep_step = keep_step
            self.kept = None
            self.t_start: float | None = None
            self.every = 1
            self.marks: list[float] = []
            self.step_ids: list[int] = []
            self._tracer = tracer
            self._trace0: dict | None = None
            self._trace1: dict | None = None

        def on_start(self, snap) -> None:
            self.t_start = time.perf_counter()
            self.every = snap.scenario.hop_sample_every
            if self._tracer is not None:
                self._trace0 = self._tracer.snapshot()

        def on_step(self, snap) -> None:
            self.marks.append(time.perf_counter())
            self.step_ids.append(snap.step)
            if snap.step == self.keep_step:
                self.kept = snap
            if self._tracer is not None:
                self._trace1 = self._tracer.snapshot()

        def finalize(self, elapsed: float) -> dict:
            edges = [self.t_start] + self.marks
            durations = [b - a for a, b in zip(edges, edges[1:])]
            out = {
                "setup_s": self.t_start - self.t_init,
                # Hop-sampling steps carry the sampling collector's BFS
                # sweep; they are kept off the step-time median.
                "step_s": [d for step, d in zip(self.step_ids, durations)
                           if step % self.every != 0],
            }
            if self._tracer is not None:
                out["trace"] = {
                    "delta": self._tracer.delta(self._trace0, self._trace1),
                    "steps": len(durations),
                    "step_s": sum(durations),
                }
            return {"e2e_clock": out}

    return StepClock
