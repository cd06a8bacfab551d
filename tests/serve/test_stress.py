"""Multi-worker serve stress under the LockWitness.

The acceptance gate for the RPR2xx/LockWitness work: a 4-worker
service run must complete with zero failures and an *acyclic*
witnessed lock-order graph, and the witness-off path must add no
instrumentation to the serve stack at all (raw ``threading``
primitives — the repo's <2% overhead bound holds by construction).
"""

from __future__ import annotations

import threading

from repro.obs.lockwitness import WitnessedLock
from repro.serve import SolveRequest, SolveService
from repro.serve.workload import synthetic_workload


def _run_workload(service, requests):
    tickets = [service.submit(r) for r in requests]
    assert service.drain(timeout=300.0)
    return [t.result(timeout=10.0) for t in tickets]


def test_four_worker_stress_under_witness(lock_witness):
    service = SolveService(workers=4, queue_capacity=64, batch_size=4,
                           cache_bytes=1 << 26)
    try:
        requests = synthetic_workload(16, seed=3, molecules=2,
                                      atoms=120)
        results = _run_workload(service, requests)
    finally:
        service.close()
    assert len(results) == 16
    assert all(r.status in ("ok", "degraded") for r in results), \
        [r.error for r in results if r.error]
    # Every serve-stack lock was built through the witness factories…
    names = lock_witness.lock_names()
    assert "serve.service._lock" in names
    assert "serve.queue._lock" in names
    assert "serve.cache._lock" in names
    # …and the observed acquisition order is a DAG (the fixture's
    # teardown re-asserts this; stated here so a failure points at
    # the stress run, not the teardown).
    assert lock_witness.cycles() == []


def test_witnessed_run_matches_bare_run_bitwise(protein_small,
                                                lock_witness):
    witnessed = SolveService(workers=2, queue_capacity=16,
                             cache_bytes=1 << 26)
    try:
        assert isinstance(witnessed._lock, WitnessedLock)
        result = _run_workload(
            witnessed, [SolveRequest(molecule=protein_small)])[0]
    finally:
        witnessed.close()
    assert result.status == "ok"
    # Instrumentation must never change the physics.
    from repro.obs import lockwitness as lw
    lw.uninstall()
    bare = SolveService(workers=2, queue_capacity=16,
                        cache_bytes=1 << 26)
    try:
        ref = _run_workload(
            bare, [SolveRequest(molecule=protein_small)])[0]
    finally:
        bare.close()
    assert ref.energy == result.energy  # bitwise, not approx


def test_witness_off_serve_stack_uses_raw_primitives():
    """Disabled-path overhead contract: without an installed witness
    the serve stack is built on *raw* threading objects — identical
    types, zero added per-acquisition work."""
    service = SolveService(workers=1, queue_capacity=4)
    try:
        raw_lock_type = type(threading.Lock())
        assert type(service._lock) is raw_lock_type
        assert type(service._queue._lock) is raw_lock_type
        assert type(service.cache._lock) is raw_lock_type
        assert type(service.cache._disk_lock) is raw_lock_type
        assert isinstance(service._intake._idle, threading.Condition)
    finally:
        service.close()
