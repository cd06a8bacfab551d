"""Resilience primitives: retry schedules, breaker state machine,
admission control, delay timer, and the service-level fault paths
(crash supervision, retry, hedging)."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ApproxParams
from repro.faults import ServeFaultPlan, SlowWorker, WorkerCrash
from repro.molecules import synthetic_protein
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    DelayTimer,
    RetryPolicy,
    ServiceOverloadedError,
    SolveRequest,
    SolveService,
)


# -- RetryPolicy ---------------------------------------------------------


@given(seed=st.integers(0, 2**31 - 1),
       key=st.text(min_size=1, max_size=16),
       attempts=st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_backoff_schedule_is_seed_deterministic(seed, key, attempts):
    """Same (seed, key) → bitwise-identical backoff schedule; a
    different seed shifts the jitter."""
    pol1 = RetryPolicy(max_attempts=attempts, seed=seed)
    pol2 = RetryPolicy(max_attempts=attempts, seed=seed)
    s1 = [pol1.backoff(key, a) for a in range(1, attempts)]
    s2 = [pol2.backoff(key, a) for a in range(1, attempts)]
    assert s1 == s2
    assert all(b > 0 for b in s1)


@given(seed=st.integers(0, 2**31 - 1),
       key=st.text(min_size=1, max_size=16),
       deadline_s=st.floats(0.001, 10.0))
@settings(max_examples=50, deadline=None)
def test_schedule_never_exceeds_deadline(seed, key, deadline_s):
    """The cumulative backoff schedule fits inside the deadline."""
    pol = RetryPolicy(max_attempts=8, seed=seed,
                      base_backoff_s=0.01, max_backoff_s=0.5)
    pauses = pol.schedule(key, deadline_s)
    assert len(pauses) <= pol.max_attempts - 1
    assert sum(pauses) <= deadline_s


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_backoff_respects_cap_and_jitter_band(seed):
    pol = RetryPolicy(max_attempts=10, seed=seed, base_backoff_s=0.05,
                      multiplier=2.0, max_backoff_s=0.2, jitter=0.1)
    for attempt in range(1, 10):
        b = pol.backoff("k", attempt)
        raw = min(pol.max_backoff_s,
                  pol.base_backoff_s * pol.multiplier ** (attempt - 1))
        assert raw * (1 - pol.jitter) <= b <= raw * (1 + pol.jitter)


def test_next_backoff_exhausts_attempts_and_deadline():
    pol = RetryPolicy(max_attempts=3, seed=1, base_backoff_s=0.05,
                      jitter=0.0)
    assert pol.next_backoff("k", 1, remaining_s=60.0) is not None
    assert pol.next_backoff("k", 3, remaining_s=60.0) is None  # budget
    # A pause that would outlive the deadline is not scheduled.
    assert pol.next_backoff("k", 1, remaining_s=0.01) is None


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(hedge_after_s=0.0)


# -- CircuitBreaker ------------------------------------------------------


class _Clock:
    """Scripted monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_breaker_full_cycle_closed_open_half_open_closed():
    clock = _Clock()
    pol = BreakerPolicy(window=4, failure_threshold=0.5, min_samples=4,
                        open_seconds=10.0, half_open_probes=2)
    br = CircuitBreaker(pol, clock=clock)
    assert br.state == CircuitBreaker.CLOSED

    # Two failures in four samples trips the 50% threshold.
    br.record_success()
    br.record_failure()
    br.record_success()
    assert br.state == CircuitBreaker.CLOSED
    br.record_failure()
    assert br.state == CircuitBreaker.OPEN
    assert br.open_count == 1
    assert not br.allow()
    assert br.short_circuited == 1

    # Cooldown elapses → half-open with a bounded probe budget.
    clock.now += 10.0
    assert br.state == CircuitBreaker.HALF_OPEN
    assert br.allow()
    assert br.allow()
    assert not br.allow()  # probe budget spent

    # Both probes succeed → closed again.
    br.record_success()
    br.record_success()
    assert br.state == CircuitBreaker.CLOSED
    assert br.allow()


def test_breaker_half_open_failure_reopens():
    clock = _Clock()
    pol = BreakerPolicy(window=2, failure_threshold=1.0, min_samples=2,
                        open_seconds=5.0, half_open_probes=1)
    br = CircuitBreaker(pol, clock=clock)
    br.record_failure()
    br.record_failure()
    assert br.state == CircuitBreaker.OPEN
    clock.now += 5.0
    assert br.allow()  # the half-open probe
    br.record_failure()
    assert br.state == CircuitBreaker.OPEN
    assert br.open_count == 2
    # The fresh open starts a fresh cooldown from the scripted now.
    assert not br.allow()


def test_breaker_needs_min_samples():
    br = CircuitBreaker(BreakerPolicy(window=10, failure_threshold=0.5,
                                      min_samples=5), clock=_Clock())
    for _ in range(4):
        br.record_failure()
    assert br.state == CircuitBreaker.CLOSED  # below min_samples


# -- AdmissionController -------------------------------------------------


def test_admission_depth_limit_sheds_with_hint():
    ctl = AdmissionController(AdmissionPolicy(max_queue_depth=3),
                              workers=2)
    ctl.check(2)  # below the limit: admitted
    ctl.note_service_seconds(0.2)
    with pytest.raises(ServiceOverloadedError) as exc:
        ctl.check(3)  # at the limit: shed
    assert exc.value.retry_after_s > 0
    assert exc.value.depth == 3
    assert exc.value.limit == 3
    assert "retry" in str(exc.value).lower()
    assert ctl.shed_count == 1


def test_admission_wait_slo_uses_service_ema():
    ctl = AdmissionController(AdmissionPolicy(max_wait_seconds=1.0),
                              workers=1)
    # No EMA yet → no wait estimate → admit anything.
    ctl.check(50)
    ctl.note_service_seconds(0.5)  # EMA: 0.5 s/request, 1 worker
    ctl.check(2)  # projected 1.0 s == SLO: admitted
    with pytest.raises(ServiceOverloadedError):
        ctl.check(3)  # projected 1.5 s > 1.0 s SLO


# -- DelayTimer ----------------------------------------------------------


def test_delay_timer_runs_callbacks_in_due_order():
    timer = DelayTimer(name="t-order")
    fired = []
    done = threading.Event()
    timer.schedule(0.08, lambda: fired.append("late"))
    timer.schedule(0.01, lambda: (fired.append("early"),
                                  done.set())[-1])
    assert done.wait(5.0)
    deadline = time.monotonic() + 5.0
    while len(fired) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    timer.close()
    assert fired == ["early", "late"]


def test_delay_timer_close_flushes_pending_synchronously():
    timer = DelayTimer(name="t-flush")
    fired = []
    timer.schedule(30.0, lambda: fired.append("a"))
    timer.schedule(60.0, lambda: fired.append("b"))
    t0 = time.monotonic()
    timer.close()  # must not wait the 30 s — flush inline
    assert time.monotonic() - t0 < 5.0
    assert fired == ["a", "b"]
    # Post-close schedules run inline rather than silently dropping.
    timer.schedule(30.0, lambda: fired.append("c"))
    assert fired == ["a", "b", "c"]


def test_delay_timer_counts_callback_errors():
    timer = DelayTimer(name="t-err")
    done = threading.Event()

    def boom():
        done.set()
        raise RuntimeError("callback boom")

    timer.schedule(0.0, boom)
    assert done.wait(5.0)
    timer.close()
    assert timer.callback_errors == 1


# -- service-level fault paths ------------------------------------------


def _req(key: str, seed: int = 0, atoms: int = 60) -> SolveRequest:
    return SolveRequest(molecule=synthetic_protein(atoms, seed=seed),
                        params=ApproxParams(),
                        idempotency_key=key)


def test_worker_crash_requeues_and_replacement_finishes():
    plan = ServeFaultPlan([WorkerCrash(worker=0, batch_seq=0,
                                       after_jobs=0)], seed=7)
    svc = SolveService(workers=1, batch_size=2, queue_capacity=8,
                       fault_plan=plan)
    t = svc.submit(_req("crash-unit-0"))
    r = t.result(timeout=60.0)
    svc.close()
    st = svc.stats()
    assert r.status == "ok"
    assert r.attempt == 2  # one crash requeue
    assert st.worker_crashes == 1
    assert st.worker_restarts == 1
    assert st.requeued == 1
    assert svc.pending == 0


def test_hedge_beats_straggler_and_cancels_loser():
    plan = ServeFaultPlan(
        [SlowWorker(seconds=30.0, key_prefix="hsvc-", attempt=1)],
        seed=3)
    svc = SolveService(workers=2, batch_size=1, queue_capacity=8,
                       fault_plan=plan,
                       retry=RetryPolicy(max_attempts=2, seed=3,
                                         hedge_after_s=0.1))
    t0 = time.monotonic()
    t = svc.submit(_req("hsvc-0", seed=5))
    r = t.result(timeout=60.0)
    wall = time.monotonic() - t0
    svc.close()
    st = svc.stats()
    assert r.status == "ok"
    assert r.attempt == 2
    assert wall < 20.0  # nobody waited out the 30 s straggler
    assert st.hedges == 1
    assert st.hedge_wins == 1
    assert st.hedge_cancelled == 1
