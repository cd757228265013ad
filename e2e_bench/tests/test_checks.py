"""Each output check passes on the program's real output and fails on a
corrupted copy of it.

Run from the repository root::

    python3 -m pytest e2e_bench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import types

import numpy as np
import pytest

import e2e_checks as checks
from e2e_common import step_clock_class
from e2e_workloads import scenario


def _snapshot(n=150, steps=3, keep=1, overrides=()):
    from repro.sim.engine import Simulator

    clock = step_clock_class()(keep_step=keep)
    res = Simulator(scenario(n, steps, 5, overrides), collectors=[clock]).run()
    return res, clock.kept


@pytest.fixture(scope="module")
def handoff():
    res, snap = _snapshot()
    a0 = checks.oracle_assignment(snap.prev_hierarchy)
    a1 = checks.oracle_assignment(snap.hierarchy)
    return res, snap, a0, a1


@pytest.fixture(scope="module")
def service():
    return _snapshot(overrides=(("loss_rate", 0.05), ("retry_attempts", 3),
                                ("arrival_rate", 300.0),
                                ("service_hop_time", 5e-7),
                                ("service_workers", 1)))


# -- handoff ----------------------------------------------------------------------


def test_rendezvous_py_matches_program_hash():
    from repro.core.hashing import rendezvous_choice

    rng = np.random.default_rng(0)
    for _ in range(300):
        cands = rng.choice(5000, size=int(rng.integers(1, 12)), replace=False)
        subject, salt = int(rng.integers(5000)), int(rng.integers(1 << 40))
        assert checks.rendezvous_py(subject, salt, cands) == \
            rendezvous_choice(subject, salt, cands)


def test_oracle_assignment_matches_select_server(handoff):
    from repro.core.servers import select_server

    _, snap, _, a1 = handoff
    h = snap.hierarchy
    for (subject, level), srv in list(a1.items())[::7]:
        assert select_server(h, subject, level) == srv


def test_handoff_check_passes_on_real_step(handoff):
    _, snap, a0, a1 = handoff
    entries, packets = checks.recount_handoff(a0, a1, snap.hop_fn)
    assert sum(entries.values()) > 0
    assert checks.check_handoff_step(snap.report, entries, packets) == []
    assert checks.check_handoff_snapshot(snap) == []


def test_handoff_check_catches_swapped_server(handoff):
    _, snap, a0, a1 = handoff
    key = next(k for k in sorted(a1) if a0.get(k) == a1[k])
    other = next(v for v in snap.hierarchy.levels[0].node_ids.tolist()
                 if v != a1[key])
    swapped = dict(a1)
    swapped[key] = other
    entries, packets = checks.recount_handoff(a0, swapped, snap.hop_fn)
    assert checks.check_handoff_step(snap.report, entries, packets)


def test_handoff_check_catches_changed_level_packets(handoff):
    _, snap, a0, a1 = handoff
    entries, packets = checks.recount_handoff(a0, a1, snap.hop_fn)
    report = snap.report
    level = next(iter(report.reorg_packets))
    bad = dict(report.reorg_packets)
    bad[level] += 1
    corrupted = dataclasses.replace(report, reorg_packets=bad)
    assert checks.check_handoff_step(corrupted, entries, packets)


def test_lossless_check(handoff):
    res = handoff[0]
    assert checks.check_lossless(res.ledger) == []
    ledger = copy.deepcopy(res.ledger)
    ledger.retransmitted_packets = 1
    assert checks.check_lossless(ledger)


# -- sweep ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    from repro.sim.sweep import run_sweep_detailed

    scenarios = [scenario(60, 3, s) for s in (1, 2)]
    return scenarios, run_sweep_detailed(scenarios, workers=0, cache_dir=None)


def test_sweep_checks_pass(sweep):
    scenarios, run = sweep
    for sc, res in zip(scenarios, run.results):
        assert checks.check_sweep_result(sc, res) == []


def test_sweep_check_catches_out_of_order(sweep):
    scenarios, run = sweep
    assert checks.check_sweep_result(scenarios[0], run.results[1])


def test_sweep_check_catches_zero_rate(sweep):
    scenarios, run = sweep
    res = copy.deepcopy(run.results[0])
    res.ledger.migration_packets = {}
    res.ledger.reorg_packets = {}
    assert checks.check_sweep_result(scenarios[0], res)


def test_sweep_check_catches_level_terms_off_total(sweep):
    scenarios, run = sweep
    res = run.results[0]
    ledger = types.SimpleNamespace(
        phi=res.ledger.phi, gamma=res.ledger.gamma,
        phi_k=lambda: {2: res.ledger.phi / 2},
        gamma_k=res.ledger.gamma_k)
    stub = types.SimpleNamespace(scenario=res.scenario, ledger=ledger,
                                 handoff_rate=res.handoff_rate)
    assert checks.check_sweep_result(scenarios[0], stub)


def test_identity_check(sweep):
    from repro.sim.engine import Simulator

    scenarios, run = sweep
    reference = Simulator(scenarios[0]).run()
    assert checks.check_identical(run.results[0], reference) == []
    res = copy.deepcopy(run.results[0])
    level = next(iter(res.ledger.reorg_packets))
    res.ledger.reorg_packets[level] += 1
    assert checks.check_identical(res, reference)


# -- service --------------------------------------------------------------------


def test_service_report_check(service):
    res, _ = service
    rep = res.extras["service"]
    assert rep.served > 0
    assert checks.check_service_report(rep) == []
    dropped = copy.deepcopy(rep)
    dropped.dropped += 1
    assert checks.check_service_report(dropped)
    misfiled = copy.deepcopy(rep)
    misfiled.direct_hits += 1
    assert checks.check_service_report(misfiled)


def test_service_check_catches_unordered_percentiles(service):
    rep = service[0].extras["service"]
    stub = types.SimpleNamespace(
        offered=rep.offered, shed=rep.shed, served=rep.served,
        dropped=rep.dropped, lookups=rep.lookups, updates=rep.updates,
        direct_hits=rep.direct_hits, fallback_hits=rep.fallback_hits,
        failed=rep.failed, p50=rep.p99 + 1.0, p95=rep.p95, p99=rep.p99)
    assert checks.check_service_report(stub)


def test_batch_lookup_check(service):
    from repro.core.batch_query import BatchResolver

    _, snap = service
    rng = np.random.default_rng(1)
    n = snap.scenario.n
    src = rng.integers(n, size=12)
    dst = (src + 1 + rng.integers(n - 1, size=12)) % n
    batch = BatchResolver(snap.hierarchy, snap.assignment,
                          snap.hop_fn).resolve(src, dst)
    args = (snap.hierarchy, snap.assignment, snap.hop_fn, src, dst)
    assert checks.check_batch_lookups(*args, batch) == []
    wrong = dataclasses.replace(batch, packets=batch.packets.copy())
    wrong.packets[3] += 2
    assert checks.check_batch_lookups(*args, wrong)
    moved = dataclasses.replace(batch, server=batch.server.copy())
    moved.server[0] = (moved.server[0] + 1) % n
    assert checks.check_batch_lookups(*args, moved)
