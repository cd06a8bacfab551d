"""SolveService end-to-end: warm == cold bitwise, coalescing,
invalidation, deadlines, backpressure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ApproxParams
from repro.molecules import synthetic_protein
from repro.serve import (
    QueueFullError,
    SolveRequest,
    SolveService,
)


@pytest.fixture()
def service():
    svc = SolveService(workers=2, queue_capacity=32, batch_size=2,
                       cache_bytes=1 << 26)
    yield svc
    svc.close()


def _solve(service, request, timeout=120.0):
    ticket = service.submit(request)
    return ticket.result(timeout=timeout)


def test_warm_repeat_is_bitwise_identical(service, protein_small):
    req = SolveRequest(molecule=protein_small)
    cold = _solve(service, req)
    assert cold.status == "ok"
    assert cold.cache == "cold"
    service.drain(timeout=60.0)
    warm = _solve(service, SolveRequest(molecule=protein_small))
    assert warm.cache == "epol"
    assert warm.energy == cold.energy  # bitwise, not approx
    assert np.array_equal(warm.born_radii, cold.born_radii)


def test_eps_epol_change_reuses_born_level(service, protein_small):
    cold = _solve(service, SolveRequest(molecule=protein_small))
    service.drain(timeout=60.0)
    shifted = _solve(service, SolveRequest(
        molecule=protein_small,
        params=ApproxParams(eps_epol=0.5)))
    assert shifted.status == "ok"
    # ε_epol only steers the energy pass: Born radii come warm…
    assert shifted.cache == "born"
    assert np.array_equal(shifted.born_radii, cold.born_radii)


def test_molecule_change_misses_every_level(service, protein_small):
    _solve(service, SolveRequest(molecule=protein_small))
    service.drain(timeout=60.0)
    other = synthetic_protein(420, seed=9)
    res = _solve(service, SolveRequest(molecule=other))
    assert res.cache == "cold"
    assert res.status == "ok"


def test_naive_method_unaffected_by_tree_cache(service, protein_small):
    res = _solve(service, SolveRequest(molecule=protein_small,
                                       method="naive"))
    assert res.status == "ok" and res.cache == "cold"


def test_coalescing_returns_one_computation_to_all(protein_small,
                                                   protein_medium):
    svc = SolveService(workers=1, queue_capacity=32, batch_size=1)
    try:
        # Occupy the single worker so the duplicates stay queued…
        blocker = svc.submit(SolveRequest(molecule=protein_medium))
        dup = SolveRequest(molecule=protein_small)
        t1 = svc.submit(dup)
        t2 = svc.submit(dup)
        assert t2 is t1  # the same ticket, not merely an equal one
        r1, r2 = t1.result(timeout=120.0), t2.result(timeout=120.0)
        assert r1 is r2
        assert svc.stats().coalesced == 1
        blocker.result(timeout=120.0)
    finally:
        svc.close()


def test_queue_saturation_raises_queue_full(protein_small,
                                            protein_medium):
    svc = SolveService(workers=1, queue_capacity=1, batch_size=1)
    try:
        svc.submit(SolveRequest(molecule=protein_medium))  # worker busy
        svc._queue.wait_not_full(timeout=10.0)  # worker picked it up
        svc.submit(SolveRequest(molecule=protein_small))   # fills slot
        with pytest.raises(QueueFullError):
            svc.submit(SolveRequest(molecule=protein_small,
                                    params=ApproxParams(eps_epol=0.7)))
        assert svc.stats().rejected == 1
    finally:
        svc.close()


def test_unexpected_exception_is_failed_result_not_dead_worker(
        protein_small, monkeypatch):
    svc = SolveService(workers=1, queue_capacity=8, batch_size=4)
    try:
        orig = svc._solve
        calls = {"n": 0}

        def flaky(req, key):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk tier exploded")
            return orig(req, key)

        monkeypatch.setattr(svc, "_solve", flaky)
        bad = svc.submit(SolveRequest(molecule=protein_small))
        good = svc.submit(SolveRequest(molecule=protein_small,
                                       params=ApproxParams(eps_epol=0.5)))
        r_bad = bad.result(timeout=120.0)
        assert r_bad.status == "failed"
        assert "OSError" in r_bad.error
        # The worker thread survived and the batch-mate still ran.
        r_good = good.result(timeout=120.0)
        assert r_good.status == "ok"
        assert svc.drain(timeout=30.0)
        stats = svc.stats()
        assert stats.failed == 1 and stats.completed == 1
    finally:
        svc.close()


def test_rejected_submit_resolves_coalesced_ticket(
        protein_small, protein_medium, monkeypatch):
    svc = SolveService(workers=1, queue_capacity=1, batch_size=1)
    try:
        blocker = svc.submit(SolveRequest(molecule=protein_medium))
        svc._queue.wait_not_full(timeout=10.0)  # worker picked it up
        svc.submit(SolveRequest(molecule=protein_small))  # fills slot
        dup = SolveRequest(molecule=protein_small,
                           params=ApproxParams(eps_epol=0.7))
        coalesced = []
        orig_put = svc._put_with_wait

        def racing_put(job, priority, wait_timeout):
            # A concurrent submitter coalesces onto the just-published
            # ticket in the window before the put is rejected…
            coalesced.append(svc.submit(dup))
            orig_put(job, priority, wait_timeout)

        monkeypatch.setattr(svc, "_put_with_wait", racing_put)
        with pytest.raises(QueueFullError):
            svc.submit(dup)
        # …and must still reach a terminal result, never hang.
        res = coalesced[0].result(timeout=10.0)
        assert res.status == "failed"
        assert "queue full" in res.error
        blocker.result(timeout=120.0)
        assert svc.drain(timeout=60.0)  # withdrawn job left no debt
        assert svc.pending == 0
    finally:
        svc.close()


def test_cancel_racing_a_rejected_enqueue_leaves_no_debt(protein_small,
                                                         monkeypatch):
    """Regression: a cancel landing between a ticket's publication and
    a rejected enqueue (a fleet failover revoking a key its router just
    placed) counted the ticket resolved twice: pending fell to -1 and
    drain() never returned True again."""
    svc = SolveService(workers=1, queue_capacity=4)
    try:
        def cancel_then_reject(job, priority=0):
            svc.cancel(job.ticket.key, "failover")
            raise QueueFullError(4, 4)

        monkeypatch.setattr(svc._queue, "put", cancel_then_reject)
        with pytest.raises(QueueFullError):
            svc.submit(SolveRequest(molecule=protein_small))
        assert svc.pending == 0
        assert svc.drain(timeout=1)
    finally:
        svc.close()


def test_expired_deadline_is_a_status_not_an_exception(protein_small,
                                                       protein_medium):
    svc = SolveService(workers=1, queue_capacity=8, batch_size=1)
    try:
        svc.submit(SolveRequest(molecule=protein_medium))  # worker busy
        late = svc.submit(SolveRequest(molecule=protein_small,
                                       deadline_s=1e-4))
        res = late.result(timeout=120.0)
        assert res.status == "expired"
        assert not res.ok
        assert res.energy is None
    finally:
        svc.close()


def test_disk_tier_survives_restart(tmp_path, protein_small):
    with SolveService(workers=1, cache_dir=str(tmp_path)) as first:
        cold = _solve(first, SolveRequest(molecule=protein_small))
    with SolveService(workers=1, cache_dir=str(tmp_path)) as revived:
        warm = _solve(revived, SolveRequest(molecule=protein_small))
    assert warm.cache == "epol"
    assert warm.energy == cold.energy
    assert np.array_equal(warm.born_radii, cold.born_radii)


def test_stats_quantiles_and_levels(service, protein_small):
    for _ in range(2):
        _solve(service, SolveRequest(molecule=protein_small))
        service.drain(timeout=60.0)
    stats = service.stats()
    assert stats.completed == 2
    assert stats.by_level.get("cold") == 1
    assert stats.by_level.get("epol") == 1
    assert stats.service_p99 >= stats.service_p50 >= 0.0
    assert 0.0 < stats.hit_rate <= 1.0


def test_latency_quantiles_keep_a_bounded_window():
    """A long-running service keeps the latest LATENCY_WINDOW samples,
    not one per result since start."""
    from repro.serve import SolveResult
    from repro.serve.service import LATENCY_WINDOW

    assert LATENCY_WINDOW == 4096
    rng = np.random.default_rng(7)
    waits, services = rng.random(5000), rng.random(5000)
    with SolveService(workers=1) as svc:
        for w, s in zip(waits, services):
            svc._record_latency(SolveResult(
                key="k", status="ok", wait_seconds=float(w),
                service_seconds=float(s)))
        assert len(svc._waits) == len(svc._services) == LATENCY_WINDOW
        stats = svc.stats()
    assert stats.completed == 5000
    for q, got_w, got_s in ((50, stats.wait_p50, stats.service_p50),
                            (99, stats.wait_p99, stats.service_p99)):
        assert got_w == np.percentile(waits[-LATENCY_WINDOW:], q)
        assert got_s == np.percentile(services[-LATENCY_WINDOW:], q)


# -- cancellation + completion callbacks (the fleet substrate) -----------


def test_cancel_unresolved_ticket_wins_and_counts(protein_small):
    from repro.faults import ServeFaultPlan, SlowWorker
    plan = ServeFaultPlan([SlowWorker(seconds=30.0, worker=0,
                                      key_prefix="held")], seed=0)
    with SolveService(workers=1, fault_plan=plan) as svc:
        ticket = svc.submit(SolveRequest(molecule=protein_small,
                                         idempotency_key="held"))
        assert svc.cancel("held", reason="test revoke")
        res = ticket.result(timeout=30.0)   # cancel wakes the stall
        assert res.status == "failed"
        assert "test revoke" in res.error
        svc.drain(timeout=60.0)
        assert svc.stats().cancelled == 1


def test_cancel_after_delivery_loses(protein_small):
    with SolveService(workers=1) as svc:
        ticket = svc.submit(SolveRequest(molecule=protein_small,
                                         idempotency_key="done-first"))
        assert ticket.result(timeout=120.0).status == "ok"
        assert not svc.cancel("done-first")
        assert svc.stats().cancelled == 0


def test_cancel_unknown_key_is_false(protein_small):
    with SolveService(workers=1) as svc:
        assert not svc.cancel("never-submitted")


def test_on_done_fires_once_after_resolution(protein_small):
    calls = []
    with SolveService(workers=1) as svc:
        ticket = svc.submit(SolveRequest(molecule=protein_small))
        ticket.on_done(calls.append)
        ticket.result(timeout=120.0)
    assert len(calls) == 1 and calls[0] is ticket
    # registering on an already-done ticket fires immediately
    ticket.on_done(calls.append)
    assert len(calls) == 2
