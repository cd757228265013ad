"""The traced run's wrappers: spans nest into self time, a missing entry
point is reported as absent without failing, and uninstalling restores
the program.

Run from the repository root::

    python3 -m pytest e2e_bench/tests -q
"""

from __future__ import annotations

import time

import e2e_trace
from e2e_trace import Tracer, absent_metrics


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.timed("child", lambda: time.sleep(0.02))

    def parent_body():
        child()
        time.sleep(0.01)

    tracer.timed("parent", parent_body)()
    t = tracer.snapshot()
    assert t["parent.calls"] == 1 and t["child.calls"] == 1
    assert t["parent.s"] >= t["child.s"] >= 0.02
    assert abs(t["parent.self_s"] - (t["parent.s"] - t["child.s"])) < 1e-9
    assert abs(t["top.s"] - t["parent.s"]) < 1e-9


def test_missing_entry_point_is_absent(monkeypatch):
    from repro.core import handoff

    monkeypatch.setattr(e2e_trace, "ENTRY_POINTS", [
        ("core.servers.assign", "repro.core.handoff", "full_assignment", True),
        ("core.events.diff", "repro.core.handoff", "no_such_function", True),
        ("service.step", "repro.no_such_module", "Thing.on_step", True),
    ])
    original = handoff.full_assignment
    tracer = Tracer()
    tracer.install()
    try:
        assert handoff.full_assignment is not original
        assert tracer.absent == ["repro.core.handoff.no_such_function",
                                 "repro.no_such_module.Thing.on_step"]
        assert absent_metrics(tracer.absent) == ["core.events.diff_ms",
                                                 "service.step_ms"]
    finally:
        tracer.uninstall()
    assert handoff.full_assignment is original
