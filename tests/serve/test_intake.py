"""The request intake that SolveService and ShardRouter share: the
closed check, explicit-key coalescing and admission shedding behave
alike on one service and on a sharded fleet."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.config import ApproxParams
from repro.faults import (FleetFaultPlan, ServeFaultPlan, ShardStall,
                          SlowWorker)
from repro.fleet import ShardedFleet
from repro.fleet.ring import HashRing
from repro.molecules import synthetic_protein
from repro.serve import (
    AdmissionPolicy,
    ServiceClosedError,
    ServiceOverloadedError,
    SolveRequest,
    SolveService,
)
from repro.serve.service import Intake

OWNERS = pytest.mark.parametrize("build", [
    lambda: SolveService(workers=1, queue_capacity=32, batch_size=1),
    lambda: ShardedFleet(shards=2),
], ids=["service", "fleet"])


def _req(key: str, seed: int) -> SolveRequest:
    return SolveRequest(molecule=synthetic_protein(60, seed=seed),
                        idempotency_key=key)


@OWNERS
def test_submit_after_close_raises(build, protein_small):
    target = build()
    target.close()
    with pytest.raises(ServiceClosedError):
        target.submit(SolveRequest(molecule=protein_small))


@OWNERS
def test_explicit_idempotency_key_coalesces(build, protein_small,
                                            protein_medium):
    with build() as target:
        # A blocker keeps a worker busy, so the first request is still
        # in flight when its duplicate arrives.
        target.submit(SolveRequest(molecule=protein_medium))
        t1 = target.submit(SolveRequest(molecule=protein_small,
                                        idempotency_key="tenant-a/job-1"))
        t2 = target.submit(SolveRequest(molecule=protein_small,
                                        params=ApproxParams(eps_epol=0.5),
                                        idempotency_key="tenant-a/job-1"))
        assert t2 is t1  # the same ticket, not merely an equal one
        assert target.drain(timeout=120.0)
        stats = target.stats()
        assert stats.coalesced == 1
        assert stats.submitted == 2  # the blocker and t1, not t2


def _held_service():
    """One worker held by a 0.5 s straggler; admission sheds at queue
    depth 2, so of three more requests the third is shed."""
    svc = SolveService(workers=1, batch_size=1, queue_capacity=64,
                       fault_plan=ServeFaultPlan(
                           [SlowWorker(seconds=0.5,
                                       key_prefix="shed-hold-")],
                           seed=1),
                       admission=AdmissionPolicy(max_queue_depth=2))
    holds = [svc.submit(_req("shed-hold-0", seed=9))]
    svc._queue.wait_empty(timeout=30.0)  # the worker took the hold
    return svc, holds, 3, 1


def _held_fleet():
    """Two shards, each held by a 1 s stall; admission sheds at three
    outstanding requests, so of four more requests three are shed."""
    ring, holds = HashRing([0, 1]), {}
    j = 0
    while len(holds) < 2:  # one hold steered onto each shard
        req = _req(f"hold-{j}", seed=5000 + j)
        holds.setdefault(ring.route(req.route_key()), req)
        j += 1
    fleet = ShardedFleet(shards=2, fault_plan=FleetFaultPlan(
        [ShardStall(0, 1.0, 0), ShardStall(1, 1.0, 0)], seed=0),
        admission=AdmissionPolicy(max_queue_depth=3))
    return fleet, [fleet.submit(holds[0]), fleet.submit(holds[1])], 4, 3


def _rejected(target) -> int:
    if isinstance(target, ShardedFleet):
        return sum(s.rejected for s in target.shard_stats().values())
    return target.stats().rejected


@pytest.mark.parametrize("held", [_held_service, _held_fleet],
                         ids=["service", "fleet"])
def test_admission_sheds_with_retry_after_hint(held):
    target, tickets, submits, expect_shed = held()
    try:
        shed = []
        for i in range(submits):
            try:
                tickets.append(target.submit(_req(f"shed-{i}",
                                                  seed=10 + i)))
            except ServiceOverloadedError as exc:
                shed.append(exc)
        assert len(shed) == expect_shed
        assert all(e.retry_after_s > 0 for e in shed)
        assert target.drain(timeout=60.0)
    finally:
        target.close()
    assert target.stats().shed == expect_shed
    assert _rejected(target) == 0  # shed fired before QueueFullError
    assert all(t.result(timeout=0.0).status == "ok" for t in tickets)


def test_concurrent_admits_and_releases_keep_exact_counts():
    """Stress: eight threads admit and release 16 shared keys through
    one intake, admission on (so the double-checked path runs), with a
    short switch interval.  Each owner also repeats its release, which
    must not unpublish the key's next entry.  A lost update would
    publish one key twice, miscount, or strand an entry."""
    intake = Intake(threading.Lock(), "stress",
                    AdmissionPolicy(max_queue_depth=10**6), workers=1)
    owners, owners_lock = set(), threading.Lock()
    doubles, fresh = [], [0] * 8

    def work(t: int) -> None:
        for i in range(1000):
            key = f"k{(7 * i + t) % 16}"
            entry, new = intake.admit(key, None, lambda _key: object())
            if not new:
                continue
            fresh[t] += 1
            with owners_lock:
                if key in owners:
                    doubles.append(key)
                owners.add(key)
            time.sleep(0)  # keep the entry published across a switch
            with owners_lock:
                owners.discard(key)
            intake.release(key, entry)
            intake.release(key, entry)  # stale: must be a no-op

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert doubles == []
    assert sum(fresh) + intake.coalesced == 8 * 1000
    assert intake.shed == 0
    assert intake.pending == 0
    assert intake.drain(timeout=1.0)
