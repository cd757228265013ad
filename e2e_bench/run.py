"""End-to-end benchmark of the handoff-overhead simulator.

Run from the repository root::

    python3 e2e_bench/run.py --workload handoff-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``step_ms``,
``wall_s``, ``peak_rss_mb``) with tracing off; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Either way the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; diagnostics (host calibration, the traced
run's own end-to-end figures, absent layers, failed checks) go to
stderr.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from e2e_common import (
    calibration_ms,
    emit,
    ensure_program,
    info,
    metric,
    stop_children,
)

# Settings the sweep would otherwise read from the environment: the
# benchmark fixes its own (no result cache, default transport, the
# worker count it passes).
_SWEEP_ENV = ("REPRO_SWEEP_CACHE", "REPRO_SWEEP_SHM", "REPRO_SWEEP_WORKERS")


def parse_args(argv=None) -> argparse.Namespace:
    from e2e_workloads import CONFIGS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 allow_abbrev=False)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(CONFIGS), default="full",
                    help="workload size; 'tiny' is for the smoke tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ensure_program()
    for var in _SWEEP_ENV:
        os.environ.pop(var, None)
    from e2e_trace import PER_LAYER, Tracer, absent_metrics, layer_values
    from e2e_workloads import e2e_metrics, run_workload

    calib = calibration_ms()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = run_workload(args.workload, args.scale, args.seed, args.seconds,
                           tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop_children()
    e2e = e2e_metrics(args.workload, out)
    outcome = out["outcome"]
    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibration_ms": round(calib, 3), "rounds": out["rounds"],
        "run_s": round(time.perf_counter() - t0, 3),
        "e2e": {k: v["value"] for k, v in e2e.items()},
    }
    if outcome.problems:
        diag["problems"] = outcome.problems[:20]
    if outcome.errors:
        diag["errors"] = outcome.errors[:20]
    if tracer is None:
        metrics = e2e
    else:
        values = layer_values(out["traces"], out.get("sweep"))
        metrics = {name: metric(values[name], unit)
                   for name, (unit, _) in PER_LAYER.items()}
        absent = absent_metrics(tracer.absent)
        if absent or tracer.absent:
            diag["absent_entry_points"] = tracer.absent
            diag["absent_metrics"] = absent
    info(**diag)
    emit(outcome.correct, outcome.attempted, outcome.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
