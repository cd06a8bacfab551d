"""The in-process solve service: queue → worker pool → guarded solver.

One :class:`SolveService` turns the one-shot CLI pipeline into a
multi-tenant request server:

* :meth:`~SolveService.submit` admits a
  :class:`~repro.serve.request.SolveRequest` into a bounded priority
  queue (full → typed :class:`~repro.serve.errors.QueueFullError`,
  explicit backpressure) and returns a :class:`Ticket`;
* duplicate in-flight requests **coalesce**: submits whose idempotency
  key matches a queued/running request get the *same* ticket, so one
  computation's result fans out to every caller;
* ``workers`` threads pop priority **batches** and execute each
  request through :class:`~repro.guard.solver.GuardedSolver` —
  preflight, sentinels, watchdog and the degradation ladder all apply,
  and guard events are propagated into the result ``status``;
* every phase output lands in the shared
  :class:`~repro.serve.cache.ArtifactCache`, so a warm repeat solve
  starts from cached octrees or Born radii — or skips computation
  entirely on a full-result hit, returning the bitwise-identical
  energy (stored float64 arrays round-trip exactly).

Resilience (all optional, pay-for-what-you-use — see
:mod:`repro.serve.resilience` and ``docs/SERVING.md``):

* a :class:`~repro.faults.plan.ServeFaultPlan` injects deterministic
  worker crashes, stragglers, disk faults and cache poison;
* **supervision** detects a dead worker, requeues its in-flight batch
  exactly once (idempotency keys make the replay safe) and spawns a
  replacement thread — replacement worker ids continue past the
  initial pool so crash specs never re-fire on the replacement;
* a :class:`~repro.serve.resilience.RetryPolicy` re-queues failed
  attempts with deadline-aware, deterministically jittered backoff,
  and optionally **hedges** a straggling attempt; tickets are
  first-set-wins, so the loser's result is discarded and the loser
  itself is cancelled at its next checkpoint;
* an :class:`~repro.serve.resilience.AdmissionController` sheds load
  (typed, with a retry-after hint) before hard queue backpressure.

Everything is observable through :mod:`repro.obs`: queue depth, wait
and service time histograms, cache hit/miss/eviction counters, and a
``serve.request`` span per executed request (solver phase spans nest
inside it).
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional,
                    Sequence, Sized, Tuple, Union)

import numpy as np

import repro.obs as obs
from repro.faults.errors import WorkerCrashedError
from repro.faults.plan import ServeFaultPlan
from repro.guard.errors import DiagnosticError
from repro.guard.solver import GuardedSolver, WarmStart
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.molecules.surface import sample_surface
from repro.serve.cache import (
    ArtifactCache,
    CachedArrays,
    CacheStats,
    DEFAULT_CACHE_BYTES,
    born_key,
    epol_key,
    surface_key,
    trees_key,
)
from repro.serve.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.queueing import BoundedPriorityQueue
from repro.serve.request import SolveRequest, SolveResult
from repro.serve.resilience import (
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    DelayTimer,
    RetryPolicy,
)

__all__ = ["SolveService", "Ticket", "Intake", "ServeStats",
           "solve_cached", "failed_on_raise", "LATENCY_BOUNDS_SECONDS",
           "LATENCY_WINDOW", "CANCELLED_MARK"]

#: Error prefix marking a result produced by :meth:`SolveService.cancel`
#: rather than by execution — the fleet router skips these when
#: propagating shard results to fleet tickets.
CANCELLED_MARK = "[cancelled]"

#: Histogram bucket edges for wait/service time (seconds) — the count
#: grid in :data:`repro.obs.metrics.DEFAULT_BOUNDS` is tuned for
#: operation counts, not latencies.
LATENCY_BOUNDS_SECONDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Latest results whose wait/service seconds feed the stats quantiles —
#: a long-running server keeps a bounded window, not every sample (p99
#: still has 40 samples beyond it).
LATENCY_WINDOW = 4096


class Ticket:
    """Handle to one (possibly shared) in-flight computation.

    First set wins: with hedging, two attempts can race to deliver —
    whichever lands first is the result every coalesced caller sees;
    the loser's ``_set`` returns False and its result is discarded.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self._done = threading.Event()
        self._result: Optional[SolveResult] = None
        # Leaf-level: nothing is ever acquired under it (done
        # callbacks are invoked after it is released).
        self._win = threading.Lock()
        self._callbacks: List["object"] = []     # guarded-by: _win

    def done(self) -> bool:
        return self._done.is_set()

    def on_done(self, fn) -> None:
        """Register ``fn(ticket)`` to run once the result lands.

        Fires on the resolving thread (worker, canceller or timer) with
        no ticket lock held; when the ticket is already resolved the
        callback runs immediately on the caller's thread.  The fleet
        router uses this to propagate shard results without a
        collector thread per request.
        """
        with self._win:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: Optional[float] = None) -> SolveResult:
        """Block until the result lands; ``TimeoutError`` otherwise."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"no result for {self.key[:24]}… within {timeout}s")
        assert self._result is not None
        return self._result

    def _set(self, result: SolveResult) -> bool:
        """Install ``result`` if none landed yet; True iff it won."""
        with self._win:
            if self._done.is_set():
                return False
            self._result = result
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
        return True


class Intake:
    """The request intake of a :class:`SolveService` or a fleet router:
    the coalescing table ``entries`` (key → :class:`Ticket`, or the
    router's placement record; ``pending`` is its length), the closed
    flag, the optional :class:`AdmissionController` with the coalesced
    and shed counts, and the drain condition.  It locks its owner's
    ``lock``; the owner reads ``entries`` and the counts under it and
    never calls in while holding it."""

    def __init__(self, lock, name: str,
                 admission: Union[AdmissionPolicy, AdmissionController,
                                  None],
                 workers: int, *, coalesced_metric: Optional[str] = None,
                 shed_metric: Optional[str] = None) -> None:
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission, workers=workers)
        self.admission: Optional[AdmissionController] = admission
        self._coalesced_metric = coalesced_metric
        self._shed_metric = shed_metric
        self._idle = obs.named_condition(f"{name}._idle", lock)
        self.entries: Dict[str, Any] = {}      # guarded-by: _idle
        self.coalesced = 0                     # guarded-by: _idle
        self.shed = 0                          # guarded-by: _idle
        self._closed = False                   # guarded-by: _idle

    def admit(self, key: str, depth: Optional[Sized],
              make: Callable[[str], Any]) -> Tuple[Any, bool]:
        """``(entry, fresh)``: the entry ``key`` coalesces onto, or a
        new ``make(key)``, built under the lock and published.  Closed
        check, coalescing, admission (at ``len(depth)``, or this
        table's length when ``depth`` is None) for new work only, since
        a duplicate costs no queue slot, then a re-check and
        publication."""
        with self._idle:
            if self._closed:
                raise ServiceClosedError()
            entry = self.entries.get(key)
            if entry is None and self.admission is None:
                entry = self.entries[key] = make(key)
                return entry, True
            backlog = len(self.entries)
            if entry is not None:
                self.coalesced += 1
        if entry is None:
            try:
                self.admission.check(backlog if depth is None
                                     else len(depth))
            except ServiceOverloadedError:
                with self._idle:
                    self.shed += 1
                self._observe(self._shed_metric)
                raise
            with self._idle:
                entry = self.entries.get(key)
                if entry is None:
                    entry = self.entries[key] = make(key)
                    return entry, True
                # An identical submit won the race while admission ran.
                self.coalesced += 1
        self._observe(self._coalesced_metric)
        return entry, False

    def release(self, key: str, entry: Any) -> None:
        """Unpublish ``entry`` if it is still ``key``'s (exactly once)."""
        with self._idle:
            if self.entries.get(key) is entry:
                del self.entries[key]
                self._idle.notify_all()

    def close(self) -> bool:
        """Refuse new work from now on; False if already closed."""
        with self._idle:
            closed, self._closed = self._closed, True
        return not closed

    @property
    def pending(self) -> int:
        with self._idle:
            return len(self.entries)

    def drain(self, timeout: Optional[float] = None) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: not self.entries, timeout)

    @staticmethod
    def _observe(metric: Optional[str]) -> None:
        if metric is not None and obs.is_enabled():
            obs.registry.counter(metric,
                                 "request intake accounting").inc()


@dataclass
class _Job:
    """A ticketed request inside the queue."""

    request: SolveRequest
    ticket: Ticket
    enqueued_at: float
    deadline_at: Optional[float]
    #: 1-based delivery attempt (retries, hedges and crash requeues
    #: each consume one).
    attempt: int = 1
    #: True for a hedged duplicate racing the original attempt.
    hedge: bool = False
    #: Set when supervision requeued this job after a worker crash —
    #: a second crash fails it instead of requeueing forever.
    crash_requeued: bool = False


@dataclass
class ServeStats:
    """Aggregate service counters + latency quantiles (at drain time).

    ``wait_p50`` … ``service_p99`` describe the latest
    :data:`LATENCY_WINDOW` results, not every result since start.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    expired: int = 0
    coalesced: int = 0
    rejected: int = 0
    degraded: int = 0
    shed: int = 0
    cancelled: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    requeued: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_cancelled: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    by_level: Dict[str, int] = field(default_factory=dict)
    wait_p50: float = 0.0
    wait_p99: float = 0.0
    service_p50: float = 0.0
    service_p99: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate


def _quantile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class SolveService:
    """Batched multi-tenant polarization-energy solve service.

    Parameters
    ----------
    workers:
        Worker threads executing requests.
    queue_capacity:
        Bounded queue size; a full queue raises
        :class:`QueueFullError` at submit.
    batch_size:
        Max requests one worker pops per queue round-trip; batching
        amortises wake-ups and lets back-to-back repeats of one
        molecule run against a cache its predecessor just filled.
    cache:
        Shared :class:`ArtifactCache`; built from ``cache_bytes`` /
        ``cache_dir`` when omitted.
    fault_plan:
        Optional :class:`ServeFaultPlan` driving deterministic crash /
        straggler / disk / poison injection (chaos testing only).
    retry:
        Optional :class:`RetryPolicy`; enables bounded retry of failed
        attempts and (via ``hedge_after_s``) hedged re-submits.  Also
        starts the :class:`DelayTimer` thread.
    admission:
        Optional :class:`AdmissionPolicy` (or a prebuilt
        :class:`AdmissionController`) shedding load ahead of
        :class:`QueueFullError` backpressure.
    breaker:
        Optional :class:`CircuitBreaker` for the disk cache tier; only
        applied when the service builds its own cache (pass a wired
        :class:`ArtifactCache` otherwise).
    """

    def __init__(self, workers: int = 2, queue_capacity: int = 64,
                 batch_size: int = 4,
                 cache: Optional[ArtifactCache] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 cache_dir: Optional[str] = None,
                 fault_plan: Optional[ServeFaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 admission: Union[AdmissionPolicy, AdmissionController,
                                  None] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cache = cache if cache is not None else ArtifactCache(
            max_bytes=cache_bytes, disk_dir=cache_dir,
            breaker=breaker, fault_plan=fault_plan)
        self.batch_size = int(batch_size)
        self._fault_plan = fault_plan
        self._retry = retry
        # The timer thread exists only when retry/hedging is on —
        # fault-free services pay nothing for it.
        self._timer = DelayTimer() if retry is not None else None
        self._queue = BoundedPriorityQueue(queue_capacity)
        # Witness-aware factories: plain threading primitives unless a
        # LockWitness is installed (repro.obs.lockwitness).
        self._lock = obs.named_lock("serve.service._lock")
        self._intake = Intake(self._lock, "serve.service", admission,
                              int(workers),
                              coalesced_metric="serve.coalesced")
        self._stats = ServeStats()               # guarded-by: _lock
        self._waits: Deque[float] = collections.deque(
            maxlen=LATENCY_WINDOW)               # guarded-by: _lock
        self._services: Deque[float] = collections.deque(
            maxlen=LATENCY_WINDOW)               # guarded-by: _lock
        # Replacement workers take ids past the initial pool, so a
        # WorkerCrash spec can never re-fire on the replacement.
        self._wid_counter = itertools.count(int(workers))
        self._threads = [                        # guarded-by: _lock
            threading.Thread(target=self._worker, args=(i,),
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for t in self._threads:
            t.start()
        if obs.is_enabled():
            obs.registry.gauge("serve.workers",
                               "solve-service worker threads").set(
                                   len(self._threads))

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting work, drain what was accepted, join workers.

        Order matters: the delay timer is flushed *first* (its close
        runs pending retry/hedge callbacks synchronously, requeueing
        their jobs), then the queue closes and drains, then workers —
        including replacements spawned by supervision during the drain
        — are joined until the pool is stable.
        """
        if not self._intake.close():
            return
        if self._timer is not None:
            self._timer.close()
        self._queue.close()
        while True:
            with self._lock:
                threads = list(self._threads)
            for t in threads:
                t.join()
            with self._lock:
                stable = len(self._threads) == len(threads)
            if stable:
                return

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Condition-wait until every accepted request has a result."""
        return self._intake.drain(timeout)

    @property
    def pending(self) -> int:
        """Accepted-but-unresolved requests (0 after a clean drain —
        the zero-stranded-tickets invariant ``repro chaos --serve``
        asserts)."""
        return self._intake.pending

    @property
    def queue_depth(self) -> int:
        """Requests sitting in the bounded queue right now (the
        per-shard gauge the fleet router exports)."""
        return len(self._queue)

    def cancel(self, key: str, reason: str = "cancelled") -> bool:
        """Revoke an in-flight request; True iff the cancel won.

        The cancelled ticket resolves immediately with a ``failed``
        result whose error carries :data:`CANCELLED_MARK`, which also
        wakes any worker stalled on the ticket's interruptible event.
        A worker that later pops the revoked job sees a done ticket
        and discards its work, and a completion racing the cancel
        simply wins first (``False`` return) — the caller must then
        treat the request as served, not revoked.  This is the fleet
        failover primitive: cancel on the old shard, and only if the
        cancel won, re-submit on the new one (exactly-once).
        """
        with self._lock:
            ticket = self._intake.entries.get(key)
        if ticket is None:
            return False
        won = ticket._set(SolveResult(
            key=key, status="failed",
            error=f"{CANCELLED_MARK} {reason}"))
        if won:
            with self._lock:
                self._stats.cancelled += 1
            self._observe_counter("serve.cancelled")
        self._intake.release(ticket.key, ticket)
        return won

    # -- producer side -----------------------------------------------------

    def submit(self, request: SolveRequest,
               wait_timeout: Optional[float] = None) -> Ticket:
        """Admit ``request``; returns a (possibly shared) ticket.

        A full queue raises :class:`QueueFullError` immediately;
        passing ``wait_timeout`` instead waits (condition-based) up to
        that long for a slot before raising — the service never blocks
        a submitter forever and never drops silently.
        """
        ticket, fresh = self._intake.admit(request.key(), self._queue,
                                           Ticket)
        if not fresh:
            return ticket
        job = _Job(request=request, ticket=ticket,
                   enqueued_at=time.monotonic(),
                   deadline_at=(time.monotonic() + request.deadline_s
                                if request.deadline_s is not None
                                else None))
        try:
            self._put_with_wait(job, request.priority, wait_timeout)
        except QueueFullError:
            self._withdraw(ticket, "queue full: request rejected with "
                                   "backpressure")
            with self._lock:
                self._stats.rejected += 1
            self._observe_counter("serve.rejected")
            raise
        except ServiceClosedError:
            self._withdraw(ticket, "service closed before the request "
                                   "was enqueued")
            raise
        with self._lock:
            self._stats.submitted += 1
        self._observe_counter("serve.requests")
        return ticket

    def _withdraw(self, ticket: Ticket, reason: str) -> None:
        """Retract a published ticket whose enqueue failed.

        Concurrent submitters may have coalesced onto it meanwhile, so
        it must still reach a terminal result, or they block forever.
        """
        self._intake.release(ticket.key, ticket)
        ticket._set(SolveResult(key=ticket.key, status="failed",
                                error=reason))

    def _put_with_wait(self, job: _Job, priority: int,
                       wait_timeout: Optional[float]) -> None:
        if wait_timeout is None:
            self._queue.put(job, priority)
            return
        deadline = time.monotonic() + wait_timeout
        while True:
            try:
                self._queue.put(job, priority)
                return
            except QueueFullError:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                self._queue.wait_not_full(remaining)

    # -- consumer side -----------------------------------------------------

    def _worker(self, wid: int) -> None:
        # The per-worker batch sequence number is deterministic state
        # WorkerCrash specs key on (never wall clock).
        for batch_seq in itertools.count():
            batch = self._queue.get_batch(self.batch_size)
            if batch is None:
                return
            crash = (self._fault_plan.crash_for(wid, batch_seq)
                     if self._fault_plan is not None else None)
            for i, job in enumerate(batch):
                if crash is not None and i >= crash.after_jobs:
                    self._on_worker_crash(wid, batch_seq, batch[i:])
                    return  # the thread dies mid-batch
                try:
                    self._execute(job, wid)
                except Exception:  # lint: ignore[RPR003]
                    # _execute's finally already resolved the ticket;
                    # a bookkeeping failure in one job must not strand
                    # the rest of the batch or kill the worker thread.
                    continue

    # -- supervision -------------------------------------------------------

    def _on_worker_crash(self, wid: int, batch_seq: int,
                         jobs: Sequence[_Job]) -> None:
        """A worker died with ``jobs`` in flight: requeue each exactly
        once (idempotency keys make the replay safe) and spawn a
        replacement thread.  A job that already survived one crash is
        failed instead — never requeued forever."""
        obs.instant(f"serve.worker.crash[{wid}]", cat="fault",
                    batch_seq=batch_seq, inflight=len(jobs))
        self._observe_counter("serve.worker.crashes")
        with self._lock:
            self._stats.worker_crashes += 1
        for job in jobs:
            if job.ticket.done():
                self._intake.release(job.ticket.key, job.ticket)
                continue
            if job.crash_requeued:
                exc = WorkerCrashedError(wid, batch_seq, job.ticket.key)
                self._fail(job, str(exc))
                continue
            job.crash_requeued = True
            job.attempt += 1
            job.enqueued_at = time.monotonic()
            with self._lock:
                self._stats.requeued += 1
            self._observe_counter("serve.requeued")
            self._queue.requeue(job, job.request.priority)
        self._spawn_replacement()

    def _spawn_replacement(self) -> None:
        with self._lock:
            wid = next(self._wid_counter)
            t = threading.Thread(target=self._worker, args=(wid,),
                                 name=f"serve-worker-{wid}", daemon=True)
            self._threads.append(t)
            self._stats.worker_restarts += 1
        t.start()
        self._observe_counter("serve.worker.restarts")
        obs.instant(f"serve.worker.restart[{wid}]", cat="fault")

    # -- job resolution ----------------------------------------------------

    def _fail(self, job: _Job, error: str) -> None:
        """Terminal failure for a job (crash re-loss, exhausted retry)."""
        result = SolveResult(key=job.ticket.key, status="failed",
                             method=job.request.method, error=error,
                             attempt=job.attempt)
        if job.ticket._set(result):
            self._observe_counter("serve.failures")
            with self._lock:
                self._stats.failed += 1
        self._intake.release(job.ticket.key, job.ticket)

    # -- retry / hedging ---------------------------------------------------

    def _maybe_retry(self, job: _Job, exc: Exception) -> bool:
        """Schedule a retry of ``job`` after backoff; False = give up.

        Deadline-aware: a backoff that alone would overrun the
        request's remaining monotonic budget is not scheduled.
        """
        pol, timer = self._retry, self._timer
        if pol is None or timer is None or job.ticket.done():
            return False
        remaining = (None if job.deadline_at is None
                     else job.deadline_at - time.monotonic())
        pause = pol.next_backoff(job.ticket.key, job.attempt, remaining)
        if pause is None:
            self._observe_counter("serve.retry.exhausted")
            return False
        job.attempt += 1
        with self._lock:
            self._stats.retries += 1
        self._observe_counter("serve.retry.attempts")
        obs.instant("serve.retry", cat="serve", key=job.ticket.key[:16],
                    attempt=job.attempt, backoff_s=pause,
                    error=type(exc).__name__)
        timer.schedule(pause, lambda: self._requeue_job(job))
        return True

    def _requeue_job(self, job: _Job) -> None:
        """Timer callback: put a retried job back on the queue."""
        if job.ticket.done():
            # A hedge (or the crash path) resolved it meanwhile.
            self._intake.release(job.ticket.key, job.ticket)
            return
        job.enqueued_at = time.monotonic()
        self._queue.requeue(job, job.request.priority)

    def _arm_hedge(self, job: _Job) -> None:
        """Arm a hedged duplicate if this attempt straggles."""
        pol, timer = self._retry, self._timer
        if (pol is None or timer is None or pol.hedge_after_s is None
                or job.hedge or job.crash_requeued
                or job.attempt >= pol.max_attempts):
            return
        timer.schedule(pol.hedge_after_s,
                       lambda: self._submit_hedge(job))

    def _submit_hedge(self, job: _Job) -> None:
        """Timer callback: the original attempt is still running —
        race a duplicate against it (first completed wins)."""
        if job.ticket.done():
            return
        with self._lock:
            self._stats.hedges += 1
        self._observe_counter("serve.hedge.armed")
        obs.instant("serve.hedge", cat="serve",
                    key=job.ticket.key[:16], attempt=job.attempt + 1)
        self._queue.requeue(
            _Job(request=job.request, ticket=job.ticket,
                 enqueued_at=time.monotonic(),
                 deadline_at=job.deadline_at,
                 attempt=job.attempt + 1, hedge=True),
            job.request.priority)

    def _note_hedge_loss(self, job: _Job) -> None:
        """This attempt lost the hedge race (cancelled or outpaced)."""
        with self._lock:
            self._stats.hedge_cancelled += 1
        self._observe_counter("serve.hedge.cancelled")

    # -- execution ---------------------------------------------------------

    def _execute(self, job: _Job, wid: int) -> None:
        req, started = job.request, time.monotonic()
        ticket = job.ticket
        if ticket.done():
            # Hedge loser cancelled before it started (or a crash
            # requeue raced a concurrent resolution).
            if job.hedge or self._retry is not None:
                self._note_hedge_loss(job)
            self._intake.release(ticket.key, ticket)
            return
        wait = started - job.enqueued_at
        retried = False
        try:
            if job.deadline_at is not None and started > job.deadline_at:
                exc = DeadlineExceededError(req.deadline_s or 0.0,
                                            started - job.deadline_at)
                result = SolveResult(key=ticket.key, status="expired",
                                     method=req.method, error=str(exc))
                self._observe_counter("serve.expired")
                with self._lock:
                    self._stats.expired += 1
            else:
                if self._retry is not None:
                    self._arm_hedge(job)
                slow = (self._fault_plan.slow_seconds(
                            wid, ticket.key, job.attempt)
                        if self._fault_plan is not None else 0.0)
                if slow > 0.0:
                    obs.instant(f"serve.worker.slow[{wid}]", cat="fault",
                                seconds=slow, key=ticket.key[:16])
                    # Interruptible stall (never time.sleep — RPR008);
                    # a hedge may win while this attempt is stuck.
                    ticket._done.wait(slow)
                    if ticket.done():
                        self._note_hedge_loss(job)
                        return
                with obs.span("serve.request", cat="serve",
                              method=req.method,
                              natoms=req.molecule.natoms,
                              key=ticket.key[:16]):
                    result, exc = failed_on_raise(self._solve, req,
                                                  ticket.key)
                if exc is not None:
                    # A DiagnosticError is terminal; anything else is
                    # retryable when a RetryPolicy is armed.
                    if not isinstance(exc, DiagnosticError) \
                            and self._maybe_retry(job, exc):
                        retried = True
                        return
                    self._observe_counter("serve.failures")
                    with self._lock:
                        self._stats.failed += 1
            result.wait_seconds = wait
            result.service_seconds = time.monotonic() - started
            result.worker = wid
            result.attempt = job.attempt
            # Resolve before recording: a failure in the (obs-touching)
            # latency bookkeeping must not replace a good result with
            # the finally-block's "internal error" fallback.
            if ticket._set(result):
                self._record_latency(result)
                admission = self._intake.admission
                if admission is not None and result.ok:
                    admission.note_service_seconds(result.service_seconds)
                if job.hedge:
                    with self._lock:
                        self._stats.hedge_wins += 1
                    self._observe_counter("serve.hedge.wins")
            else:
                # The other attempt landed first; this result is
                # discarded (first-set-wins).
                self._note_hedge_loss(job)
        finally:
            if not retried:
                # The ticket always resolves — even if bookkeeping
                # threw — except when a retry now owns it.
                if not ticket.done():
                    ticket._set(SolveResult(
                        key=ticket.key, status="failed",
                        error="internal error before a result was "
                              "built"))
                self._intake.release(ticket.key, ticket)

    def _record_latency(self, result: SolveResult) -> None:
        with self._lock:
            if result.ok:
                self._stats.completed += 1
                if result.status == "degraded":
                    self._stats.degraded += 1
            level = result.cache
            self._stats.by_level[level] = \
                self._stats.by_level.get(level, 0) + 1
            self._waits.append(result.wait_seconds)
            self._services.append(result.service_seconds)
        if obs.is_enabled():
            obs.registry.histogram(
                "serve.wait_seconds", "queue wait per request",
                bounds=LATENCY_BOUNDS_SECONDS).observe(result.wait_seconds)
            obs.registry.histogram(
                "serve.service_seconds", "execution time per request",
                bounds=LATENCY_BOUNDS_SECONDS).observe(
                    result.service_seconds)
            obs.registry.counter("serve.completed",
                                 "requests that reached a terminal "
                                 "status").inc()

    # -- the solve ---------------------------------------------------------

    def _solve(self, req: SolveRequest, key: str) -> SolveResult:
        """The solve step (a process shard runs it in its child)."""
        return solve_cached(self.cache, req, key)

    # -- stats -------------------------------------------------------------

    @staticmethod
    def _observe_counter(name: str) -> None:
        if obs.is_enabled():
            obs.registry.counter(name, "solve-service request "
                                       "accounting").inc()

    def stats(self) -> ServeStats:
        """Snapshot (meaningful after :meth:`drain` for quantiles)."""
        with self._lock:
            snap = ServeStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                failed=self._stats.failed,
                expired=self._stats.expired,
                coalesced=self._intake.coalesced,
                rejected=self._stats.rejected,
                degraded=self._stats.degraded,
                shed=self._intake.shed,
                cancelled=self._stats.cancelled,
                worker_crashes=self._stats.worker_crashes,
                worker_restarts=self._stats.worker_restarts,
                requeued=self._stats.requeued,
                retries=self._stats.retries,
                hedges=self._stats.hedges,
                hedge_wins=self._stats.hedge_wins,
                hedge_cancelled=self._stats.hedge_cancelled,
                by_level=dict(self._stats.by_level),
                wait_p50=_quantile(self._waits, 50),
                wait_p99=_quantile(self._waits, 99),
                service_p50=_quantile(self._services, 50),
                service_p99=_quantile(self._services, 99),
            )
        snap.cache = self.cache.stats()
        return snap


# -- the cached solve ------------------------------------------------------


def failed_on_raise(solve: Callable[[SolveRequest, str], SolveResult],
                    req: SolveRequest, key: str
                    ) -> Tuple[SolveResult, Optional[Exception]]:
    """``solve(req, key)``, with a raise turned into a ``failed`` result.

    Anything a solve can throw — OSError from the disk cache tier, a
    numpy shape error — is a failed *result*, never a dead worker
    thread or shard child: the rest of a popped batch must still run
    and every ticket must resolve.  The error reads ``str(exc)`` for a
    :class:`DiagnosticError` and ``"Type: message"`` otherwise; the
    exception comes back too, so a service can retry it.
    """
    try:
        return solve(req, key), None
    except Exception as exc:  # lint: ignore[RPR003]
        error = (str(exc) if isinstance(exc, DiagnosticError)
                 else f"{type(exc).__name__}: {exc}")
        return SolveResult(key=key, status="failed", method=req.method,
                           error=error), exc


def solve_cached(cache: ArtifactCache, req: SolveRequest,
                 key: str) -> SolveResult:
    """Solve ``req`` through ``cache``'s artifact layers.

    The one cached solve: a :class:`SolveService` worker and a process
    shard's child both run it.  A full-result hit returns the stored
    answer; otherwise the deepest cached surface, octrees and Born
    radii warm-start a :class:`GuardedSolver`, whose outputs are
    stored for the next request.  Raises what the solve raises.
    """
    mol = _surfaced(cache, req.molecule)
    ekey = epol_key(mol, req.params, req.method, req.tau)
    hit = cache.get(ekey)
    if isinstance(hit, CachedArrays):
        # Full-result hit: stored float64 arrays are bit-exact, so
        # this is the cold result, byte for byte.
        return SolveResult(
            key=key, status=str(hit.meta.get("status", "ok")),
            energy=float(hit.arrays["energy"]),
            born_radii=np.asarray(hit.arrays["radii"],
                                  dtype=np.float64),
            method=str(hit.meta.get("method", req.method)),
            rung=str(hit.meta.get("rung", "")),
            degradations=int(hit.meta.get("degradations", 0)),
            cache="epol")

    warm, level = _warm_start(cache, mol, req)
    guarded = GuardedSolver(mol, req.params, method=req.method,
                            tau=req.tau, warm=warm)
    report = guarded.report()
    _store_artifacts(cache, mol, req, ekey, report, guarded, warm)
    status = "degraded" if report.degradations else "ok"
    return SolveResult(
        key=key, status=status, energy=report.energy,
        born_radii=report.born_radii, method=report.method,
        rung=report.rung, degradations=report.degradations,
        guard_events=list(report.events), cache=level)


def _surfaced(cache: ArtifactCache, molecule: Molecule) -> Molecule:
    """Attach a surface, reusing the cached samples when present."""
    if molecule.surface is not None:
        return molecule
    skey = surface_key(molecule)
    hit = cache.get(skey)
    if isinstance(hit, CachedArrays):
        return Molecule(molecule.positions, molecule.charges,
                        molecule.radii,
                        surface=SurfaceSamples(**hit.arrays),
                        name=molecule.name)
    with obs.span("serve.sample_surface", cat="serve",
                  natoms=molecule.natoms):
        molecule = sample_surface(molecule)
    surf = molecule.require_surface()
    cache.put(skey, CachedArrays(
        {"points": surf.points, "normals": surf.normals,
         "weights": surf.weights}))
    return molecule


def _warm_start(cache: ArtifactCache, mol: Molecule,
                req: SolveRequest) -> "tuple[Optional[WarmStart], str]":
    """Deepest cached artifacts for this request, plus the level
    label ('born' ⊃ 'trees' ⊃ 'cold')."""
    if req.method == "naive":
        return None, "cold"
    atoms_tree = q_tree = None
    trees = cache.get(trees_key(mol, req.params))
    if isinstance(trees, tuple) and len(trees) == 2:
        atoms_tree, q_tree = trees
    radii = None
    born = cache.get(born_key(mol, req.params, req.method))
    if isinstance(born, CachedArrays):
        radii = np.asarray(born.arrays["radii"], dtype=np.float64)
    if atoms_tree is None and radii is None:
        return None, "cold"
    level = "born" if radii is not None else "trees"
    return WarmStart(atoms_tree=atoms_tree, q_tree=q_tree,
                     born_radii=radii), level


def _store_artifacts(cache: ArtifactCache, mol: Molecule,
                     req: SolveRequest, ekey: str, report,
                     guarded: GuardedSolver,
                     warm: Optional[WarmStart]) -> None:
    primary = report.rung == "primary" or \
        report.rung.startswith("retry")
    inner = guarded.inner_solver
    if inner is not None and req.method != "naive" \
            and inner._atoms_tree is not None \
            and inner._q_tree is not None \
            and (warm is None or warm.atoms_tree is None):
        cache.put(trees_key(mol, req.params),
                  (inner._atoms_tree, inner._q_tree))
    if primary and (warm is None or warm.born_radii is None):
        # Radii of the requested (un-tightened) params only — a
        # degraded rung's radii answer different parameters and
        # must not poison the primary key.
        cache.put(
            born_key(mol, req.params, req.method),
            CachedArrays({"radii": np.asarray(report.born_radii,
                                              dtype=np.float64)}))
    cache.put(ekey, CachedArrays(
        {"radii": np.asarray(report.born_radii, dtype=np.float64),
         "energy": np.asarray(float(report.energy))},
        meta={"status": ("degraded" if report.degradations
                         else "ok"),
              "method": report.method, "rung": report.rung,
              "degradations": int(report.degradations)}))
