"""Output checks, computed apart from the program's production paths.

Every check is a pure function of the program's outputs and returns a
list of problems (empty when the output is right), so the benchmark's
tests can hand it a corrupted output and see it caught.  The checks run
after the timed interval of a run.

* Handoff: the two CHLM assignments around one step are rebuilt with the
  scalar ``select_server`` descent over every (subject, level) key,
  hashing with a pure-Python rendezvous (:func:`rendezvous_py`) instead
  of the program's numpy kernels; the moved entries and their hop
  charges are recounted per level and compared with the step's
  ``HandoffReport``.
* Sweep: task order, a positive finite handoff rate, phi/gamma totals
  equal to their per-level sums, and one task bit-identical to a serial
  in-process run.
* Service: request conservation, ordered latency percentiles, and
  batched lookups equal to the scalar ``resolve`` on one snapshot.
"""

from __future__ import annotations

import math
import pickle

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SALT_CAND = 0xC2B2AE3D27D4EB4F


def _mix64(v: int) -> int:
    v = ((v ^ (v >> 30)) * _MIX1) & _M64
    v = ((v ^ (v >> 27)) * _MIX2) & _M64
    return v ^ (v >> 31)


def rendezvous_py(subject: int, salt: int, candidates) -> int | None:
    """Highest-random-weight choice in Python integers: SplitMix64 over
    ``subject * golden ^ mix(salt) ^ candidate * salt_cand``, ties to
    the larger ID.  Same rule as the program's CHLM hash, computed
    without numpy."""
    base = ((int(subject) * _GOLDEN) & _M64) ^ _mix64(int(salt) & _M64)
    best = None
    best_w = -1
    for c in candidates:
        c = int(c)
        w = _mix64(base ^ ((c * _SALT_CAND) & _M64))
        if w > best_w or (w == best_w and c > best):
            best, best_w = c, w
    return best


class MemoHierarchy:
    """Read-only view of a ``ClusteredHierarchy`` whose per-level
    cluster partitions and ancestor lookups are computed once.

    The program's ``clusters(k)`` rebuilds its partition on every call,
    which makes a scalar oracle over 10^4 subjects take half an hour;
    the view answers the same questions from tables it builds up
    front.  Anything else is read from the wrapped hierarchy."""

    def __init__(self, h):
        self._h = h
        self._parts = {k: h.clusters(k) for k in range(1, h.num_levels + 1)}
        base = h.levels[0].node_ids.tolist()
        self._pos = {v: i for i, v in enumerate(base)}
        self._anc = [h.ancestry(k).tolist() for k in range(h.num_levels + 1)]

    def __getattr__(self, name):
        return getattr(self._h, name)

    def clusters(self, k: int):
        return self._parts[k]

    def cluster_of(self, v: int, k: int) -> int:
        return self._anc[k][self._pos[int(v)]]


def oracle_assignment(h) -> dict[tuple[int, int], int]:
    """Every (subject, level) -> server, one scalar descent per key."""
    from repro.core.servers import lm_levels, select_server

    view = MemoHierarchy(h)
    out: dict[tuple[int, int], int] = {}
    for v in h.levels[0].node_ids.tolist():
        for level in range(2, lm_levels(h) + 1):
            srv = select_server(view, v, level, hash_fn=rendezvous_py)
            if srv is not None:
                out[(v, level)] = srv
    return out


def recount_handoff(a0: dict, a1: dict, hop_fn):
    """Per-level (entries moved, packets) between two assignments under
    the lossless rule: a moved entry costs the hops from its old server
    to its new one (from the subject for a fresh placement); an entry
    whose level vanished expires without a transfer."""
    entries: dict[int, int] = {}
    packets: dict[int, int] = {}
    for key in a0.keys() | a1.keys():
        old, new = a0.get(key), a1.get(key)
        if old == new or new is None:
            continue
        subject, level = key
        src = subject if old is None else old
        entries[level] = entries.get(level, 0) + 1
        packets[level] = packets.get(level, 0) + max(hop_fn(src, new), 0)
    return entries, packets


def _by_level(*maps: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for m in maps:
        for level, value in m.items():
            out[level] = out.get(level, 0) + value
    return {k: v for k, v in out.items() if v}


def check_handoff_step(report, expected_entries: dict, expected_packets: dict) -> list[str]:
    """Compare a step's report with the recounted entries and packets."""
    problems = []
    got_e = _by_level(report.migration_entries, report.reorg_entries)
    got_p = _by_level(report.migration_packets, report.reorg_packets)
    want_e = {k: v for k, v in expected_entries.items() if v}
    want_p = {k: v for k, v in expected_packets.items() if v}
    for level in sorted(got_e.keys() | want_e.keys()):
        if got_e.get(level, 0) != want_e.get(level, 0):
            problems.append(
                f"level {level}: report moved {got_e.get(level, 0)} entries, "
                f"oracle {want_e.get(level, 0)}")
    for level in sorted(got_p.keys() | want_p.keys()):
        if got_p.get(level, 0) != want_p.get(level, 0):
            problems.append(
                f"level {level}: report charged {got_p.get(level, 0)} packets, "
                f"oracle {want_p.get(level, 0)}")
    return problems


def check_handoff_snapshot(snap) -> list[str]:
    """Full oracle check of one metered step's snapshot."""
    a0 = oracle_assignment(snap.prev_hierarchy)
    a1 = oracle_assignment(snap.hierarchy)
    entries, packets = recount_handoff(a0, a1, snap.hop_fn)
    return check_handoff_step(snap.report, entries, packets)


def check_lossless(ledger) -> list[str]:
    """A lossless run retransmits and abandons nothing."""
    problems = []
    for field in ("retransmitted_packets", "abandoned_entries",
                  "abandoned_registrations"):
        value = getattr(ledger, field)
        if value != 0:
            problems.append(f"lossless run has {field}={value}")
    return problems


# -- sweep ----------------------------------------------------------------------


def check_sweep_result(scenario, result) -> list[str]:
    """One task's result: right scenario, positive finite handoff rate,
    totals equal to their per-level sums."""
    if result is None:
        return ["task returned no result"]
    problems = []
    if result.scenario != scenario:
        problems.append("result is not the task's scenario (out of task order)")
    rate = result.handoff_rate
    if not (math.isfinite(rate) and rate > 0):
        problems.append(f"handoff rate {rate!r} is not positive and finite")
    ledger = result.ledger
    for name, total, terms in (("phi", ledger.phi, ledger.phi_k()),
                               ("gamma", ledger.gamma, ledger.gamma_k())):
        parts = sum(terms.values())
        if not math.isclose(total, parts, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{name} total {total!r} != sum of levels {parts!r}")
    return problems


# SimResult fields that describe the simulated run (not how it was
# observed or transported).
_RESULT_FIELDS = ("ledger", "f0", "level_series", "state_stats", "h_network",
                  "h_levels", "mean_degree", "giant_fraction", "elapsed",
                  "final_positions", "queries")


def result_fingerprint(result) -> dict[str, bytes]:
    """Per-field pickled bytes of a result, for bit-identity checks."""
    return {f: pickle.dumps(getattr(result, f), protocol=4)
            for f in _RESULT_FIELDS}


def check_identical(result, reference) -> list[str]:
    a, b = result_fingerprint(result), result_fingerprint(reference)
    return [f"field {f} differs from the serial in-process run"
            for f in _RESULT_FIELDS if a[f] != b[f]]


# -- service --------------------------------------------------------------------


def check_service_report(rep) -> list[str]:
    """Conservation of requests and ordered latency percentiles."""
    problems = []
    if rep.offered != rep.shed + rep.served + rep.dropped:
        problems.append(
            f"offered {rep.offered} != shed {rep.shed} + served {rep.served} "
            f"+ dropped {rep.dropped}")
    if rep.served != rep.lookups + rep.updates:
        problems.append(
            f"served {rep.served} != lookups {rep.lookups} + updates {rep.updates}")
    outcomes = rep.direct_hits + rep.fallback_hits + rep.failed + rep.updates
    if rep.served != outcomes:
        problems.append(
            f"served {rep.served} != direct {rep.direct_hits} + fallback "
            f"{rep.fallback_hits} + failed {rep.failed} + updates {rep.updates}")
    if rep.served:
        p50, p95, p99 = rep.p50, rep.p95, rep.p99
        if not (p50 <= p95 <= p99):
            problems.append(f"latency percentiles out of order: {p50} {p95} {p99}")
    return problems


def check_batch_lookups(h, assignment, hop_fn, src, dst, batch_result,
                        hash_fn="rendezvous") -> list[str]:
    """Batched lookups against the scalar ``resolve`` on one snapshot."""
    from repro.core.query import resolve

    view = MemoHierarchy(h)
    problems = []
    for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        want = resolve(view, assignment, s, d, hop_fn, hash_fn=hash_fn)
        got = (int(batch_result.hit_level[i]), int(batch_result.server[i]),
               int(batch_result.packets[i]), int(batch_result.probes[i]))
        ref = (want.hit_level, -1 if want.server is None else want.server,
               want.packets, want.probes)
        if got != ref:
            problems.append(f"lookup {s}->{d}: batch {got} != scalar {ref}")
    return problems
