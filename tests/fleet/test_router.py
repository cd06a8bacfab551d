"""ShardRouter: deterministic routing, coalescing, failover
re-routing with bitwise parity, partitions, shedding, typed losses."""

import time

import pytest

from repro.faults import FleetFaultPlan, RouterPartition, ShardCrash, \
    ShardStall
from repro.fleet import NoLiveShardsError, ShardedFleet, ShardRouter
from repro.fleet.ring import HashRing
from repro.molecules import synthetic_protein
from repro.serve import (
    AdmissionPolicy,
    ServiceOverloadedError,
    SolveRequest,
    SolveService,
)

ATOMS = 60
HOLD = 1.0


def _requests(prefix, count, seed=0):
    return [SolveRequest(molecule=synthetic_protein(ATOMS,
                                                    seed=seed + 31 * i),
                         idempotency_key=f"{prefix}-{i}")
            for i in range(count)]


def _holds(shard_ids, seed=0):
    """One request steered onto each shard (content-hash search)."""
    ring = HashRing(shard_ids)
    out = {}
    j = 0
    while len(out) < len(shard_ids):
        req = SolveRequest(molecule=synthetic_protein(ATOMS,
                                                      seed=seed + 5000 + j),
                           idempotency_key=f"hold-{j}")
        sid = ring.route(req.route_key())
        out.setdefault(sid, req)
        j += 1
    return out


def _energies(tickets):
    return {t.key: float(t.result(timeout=0.0).energy).hex()
            for t in tickets if t.result(timeout=0.0).energy is not None}


def test_same_workload_same_assignment_and_results():
    reqs = _requests("det", 6)
    placements = []
    for _ in range(2):
        with ShardedFleet(shards=3) as fleet:
            assigned = [fleet.router.assignment(r) for r in reqs]
            tickets = [fleet.submit(r) for r in reqs]
            assert fleet.drain(timeout=60.0)
            placements.append(
                (assigned,
                 [t.result(timeout=0.0).shard for t in tickets],
                 _energies(tickets)))
    assert placements[0] == placements[1]
    # dispatch landed where assignment() predicted
    assert placements[0][0] == placements[0][1]


def test_fleet_level_coalescing_shares_one_ticket():
    req = _requests("coal", 1)[0]
    with ShardedFleet(shards=2) as fleet:
        t1 = fleet.submit(req)
        t2 = fleet.submit(SolveRequest(molecule=req.molecule,
                                       idempotency_key=req.idempotency_key))
        assert t1 is t2
        assert fleet.drain(timeout=60.0)
        assert fleet.stats().coalesced == 1
        assert fleet.stats().submitted == 1


def test_shard_death_mid_batch_bitwise_parity_with_single_shard():
    """The satellite contract: kill a shard mid-batch; every energy the
    fleet delivers is bitwise identical to a 1-worker single-service
    run of the same workload."""
    holds = _holds([0, 1])
    reqs = _requests("kill", 6)
    ordered = [holds[0], holds[1]] + reqs
    ring = HashRing([0, 1])
    counts = {0: 0, 1: 0}
    for r in ordered:
        counts[ring.route(r.route_key())] += 1
    victim = max(counts, key=lambda s: (counts[s], -s))
    plan = FleetFaultPlan(
        [ShardStall(0, HOLD, 0), ShardStall(1, HOLD, 0),
         ShardCrash(victim, counts[victim] - 1)], seed=0)

    with ShardedFleet(shards=2, fault_plan=plan) as fleet:
        tickets = [fleet.submit(r) for r in ordered]
        assert fleet.drain(timeout=120.0)
        assert fleet.router.outstanding == 0
        stats = fleet.stats()
        assert stats.dead == [victim]
        assert stats.rerouted == counts[victim] - 1
        results = [t.result(timeout=0.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        assert all(r.shard != victim for r in results)
        faulted = _energies(tickets)

    svc = SolveService(workers=1, queue_capacity=64)
    ref_tickets = [svc.submit(r) for r in ordered]
    assert svc.drain(timeout=120.0)
    reference = _energies(ref_tickets)
    svc.close()
    assert faulted == reference


def test_partitioned_shard_is_routed_around():
    reqs = _requests("part", 4)
    ring = HashRing([0, 1])
    target = ring.route(reqs[0].route_key())
    towards_target = sum(1 for r in reqs
                         if ring.route(r.route_key()) == target)
    plan = FleetFaultPlan([RouterPartition(target, 0, count=100)],
                          seed=0)
    with ShardedFleet(shards=2, fault_plan=plan) as fleet:
        tickets = [fleet.submit(r) for r in reqs]
        assert fleet.drain(timeout=60.0)
        results = [t.result(timeout=0.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        assert all(r.shard != target for r in results)
        # every request whose primary owner was partitioned re-routed
        # exactly once (the exclusion is per-dispatch)
        assert fleet.stats().rerouted == towards_target


def test_admission_sheds_with_retry_after_hint():
    holds = _holds([0, 1])
    reqs = _requests("shed", 4)
    plan = FleetFaultPlan([ShardStall(0, HOLD, 0),
                           ShardStall(1, HOLD, 0)], seed=0)
    with ShardedFleet(shards=2, fault_plan=plan,
                      admission=AdmissionPolicy(max_queue_depth=3)
                      ) as fleet:
        tickets = [fleet.submit(holds[0]), fleet.submit(holds[1])]
        shed = []
        for r in reqs:
            try:
                tickets.append(fleet.submit(r))
            except ServiceOverloadedError as exc:
                shed.append(exc)
        # depth at the i-th request is 2 + i; 3 admits only i=0
        assert len(shed) == 3
        assert all(e.retry_after_s > 0 for e in shed)
        assert fleet.drain(timeout=60.0)
        assert fleet.stats().shed == 3
        assert all(t.result(timeout=0.0).status == "ok"
                   for t in tickets)


def test_full_shard_queue_rejection_never_strands_the_entry():
    """Regression: a shard whose bounded queue rejected a dispatch used
    to let QueueFullError escape fleet.submit *after* the entry was
    registered — a stranded ticket drain() waited on forever.  The
    router now routes around the rejecting shard and, with nowhere
    left to place the request, fails the ticket terminally."""
    holds = _holds([0])
    plan = FleetFaultPlan([ShardStall(0, 30.0, 0)], seed=0)
    with ShardedFleet(shards=1, queue_capacity=1,
                      fault_plan=plan) as fleet:
        tickets = [fleet.submit(holds[0])]
        tickets += [fleet.submit(r) for r in _requests("full", 3)]
        rejected = [t for t in tickets
                    if t.done() and "rejected the request"
                    in t.result(timeout=0.0).error]
        assert rejected, "expected at least one queue-full rejection"
        fleet.router.fail_over(0, reason="release the hold")
        assert fleet.drain(timeout=60.0)
        assert fleet.router.outstanding == 0
        assert all(t.done() for t in tickets)


def test_no_live_shards_is_typed():
    with ShardedFleet(shards=1) as fleet:
        fleet.router.fail_over(0, reason="test kill")
        with pytest.raises(NoLiveShardsError):
            fleet.submit(_requests("dead", 1)[0])


def test_outstanding_work_with_no_survivors_fails_typed():
    holds = _holds([0])
    plan = FleetFaultPlan([ShardStall(0, HOLD, 0)], seed=0)
    with ShardedFleet(shards=1, fault_plan=plan) as fleet:
        ticket = fleet.submit(holds[0])
        fleet.router.fail_over(0, reason="test kill")
        assert fleet.drain(timeout=60.0)
        res = ticket.result(timeout=0.0)
        assert res.status == "failed"
        assert "no live shards" in res.error


def test_requests_exceeding_max_moves_fail_typed():
    holds = _holds([0, 1])
    # Long interruptible stalls: both holds stay unresolved until the
    # cancels fire, so neither cancel can lose the delivery race.
    plan = FleetFaultPlan([ShardStall(0, 30.0, 0),
                           ShardStall(1, 30.0, 0)], seed=0)
    with ShardedFleet(shards=2, fault_plan=plan, max_moves=1) as fleet:
        tickets = [fleet.submit(holds[0]), fleet.submit(holds[1])]
        first = fleet.router.fail_over(0, reason="kill 0")
        # hold-0 moved once (0 → 1); killing shard 1 would need a
        # second move, over the max_moves=1 budget
        assert first == 1
        fleet.router.fail_over(1, reason="kill 1")
        assert fleet.drain(timeout=60.0)
        results = {t.key: t.result(timeout=0.0) for t in tickets}
        lost = [r for r in results.values()
                if r.status == "failed" and "re-routed" in r.error]
        assert lost, f"expected a ShardLostError result, got {results}"


def test_rebalance_moves_only_newcomers_keys():
    holds = _holds([0, 1])
    reqs = _requests("reb", 6)
    ordered = [holds[0], holds[1]] + reqs
    ring2, ring3 = HashRing([0, 1]), HashRing([0, 1, 2])
    expected = {r.key() for r in ordered
                if ring2.route(r.route_key())
                != ring3.route(r.route_key())}
    plan = FleetFaultPlan([ShardStall(0, HOLD, 0),
                           ShardStall(1, HOLD, 0)], seed=0)
    with ShardedFleet(shards=2, fault_plan=plan) as fleet:
        tickets = [fleet.submit(r) for r in ordered]
        moves = fleet.spawn_shard(2)
        assert moves == len(expected)
        assert fleet.drain(timeout=120.0)
        results = {t.key: t.result(timeout=0.0) for t in tickets}
        assert all(r.status == "ok" for r in results.values())
        assert {k for k, r in results.items()
                if r.shard == 2} == expected
        assert fleet.stats().rebalance_moves == len(expected)


@pytest.mark.parametrize("choreography", [
    test_shard_death_mid_batch_bitwise_parity_with_single_shard,
    test_rebalance_moves_only_newcomers_keys,
], ids=["kill", "rebalance"])
def test_every_victim_is_revoked_before_any_redispatch(monkeypatch,
                                                       choreography):
    """Regression: failover and rebalance used to cancel one victim,
    re-dispatch it, then cancel the next.  Cancelling the hold a
    shard's single worker is stalled on frees that worker, which could
    then finish the next victim before its cancel — a killed shard
    still delivered.  A pause in every dispatch widens that window;
    the exact move counts must hold regardless."""
    dispatch = ShardRouter._dispatch

    def paused(self, entry, exclude=None):
        time.sleep(0.02)
        dispatch(self, entry, exclude)

    monkeypatch.setattr(ShardRouter, "_dispatch", paused)
    choreography()


def test_submit_after_close_raises():
    fleet = ShardedFleet(shards=1)
    fleet.close()
    from repro.serve.errors import ServiceClosedError
    with pytest.raises(ServiceClosedError):
        fleet.submit(_requests("closed", 1)[0])
