"""One fleet shard: a :class:`SolveService` behind a uniform facade.

Two backends share the same surface (``submit`` / ``cancel`` /
``ping`` / ``stalled`` / ``kill`` / ``close`` / ``queue_depth`` /
``stats``) and the same parent-side service, which is each shard's
one queue, coalescing table, deadline clock, stall hook, cancel path
and stats:

* :class:`ThreadShard` — the default: the service's worker threads run
  the solve in the interpreter.  Fully deterministic under the chaos
  choreography (kills are modelled as *revocation*: the router cancels
  every outstanding ticket, which wakes stalled workers and turns any
  still-running compute into a discarded first-set-wins loser).
* :class:`ProcessShard` — behind ``backend="process"``: a thread shard
  whose service runs only its solve step in a child process (escaping
  the GIL for real).  One parent worker makes one call at a time over
  the pipe; the child is a serial solve loop over its own
  :class:`~repro.serve.cache.ArtifactCache`, running the same
  :func:`~repro.serve.service.solve_cached` as a thread shard.
  ``kill()`` is a real ``SIGTERM``.

Both backends consult a :class:`_ShardServePlan` — the adapter that
maps fleet-level :class:`~repro.faults.plan.ShardStall` injections
(keyed on per-shard *dispatch* sequence by the router) onto the
parent service's per-execution straggler hook.  The stall waits on the
ticket's interruptible event, so a fleet-level cancel wakes it
immediately.

Every shard's :class:`~repro.serve.cache.ArtifactCache` is named
(``shard<N>`` metric suffix) and may point at a *shared* ``disk_dir``:
the disk tier is the fleet's warm layer, so a request re-routed after
a shard death still hits the ``surface``/``trees``/``born`` layers its
old shard persisted.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import threading
import weakref
from typing import Callable, Dict, Optional, Set

import repro.obs as obs
from repro.faults.plan import ServeFaultPlan
from repro.guard.errors import DiagnosticError
from repro.molecules.molecule import Molecule
from repro.serve.cache import ArtifactCache, CacheStats, \
    DEFAULT_CACHE_BYTES
from repro.serve.request import SolveRequest, SolveResult
from repro.serve.service import ServeStats, SolveService, Ticket, \
    failed_on_raise, solve_cached

__all__ = ["ThreadShard", "ProcessShard", "STALL_ALARM_SECONDS",
           "PROC_DIED_ERROR"]

#: A noted stall at or above this many seconds arms the shard's
#: ``stalled()`` probe — the deterministic signal the supervisor's
#: degraded-shard detection keys on (never a wall-clock timeout).
STALL_ALARM_SECONDS = 5.0

#: Error of a :class:`ProcessShard` call the child cannot answer
#: because it died (or was killed).  The router matches it to fail the
#: shard over and re-route the request (crash semantics, not a terminal
#: compute failure).
PROC_DIED_ERROR = "shard process died mid-request"

#: Parent-side pipe ends of every live :class:`ProcessShard`.  A forked
#: child inherits a copy of each (its own included) and closes them
#: first thing, so its ``recv()`` sees EOF — and the child exits — when
#: the parent dies.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


class _ShardServePlan(ServeFaultPlan):
    """Adapter: fleet stalls, noted per dispatch, as a serve plan.

    The router resolves :meth:`FleetFaultPlan.stall_seconds` at
    dispatch time (it owns the per-shard dispatch counters) and notes
    the result here under the request key; the parent service's
    straggler hook (:meth:`slow_seconds`) then pops the note when the
    job executes — before a process shard's call reaches its child, so
    a cancel wakes the stall on either backend.  Crash/disk/poison
    queries stay empty — shard-level faults are injected above the
    service, at the router edge.
    """

    def __init__(self, name: str = "shard") -> None:
        super().__init__((), seed=0)
        self._stall_lock = obs.named_lock(f"fleet.plan[{name}]._lock")
        self._stalls: Dict[str, float] = {}  # guarded-by: _stall_lock

    def note_stall(self, key: str, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._stall_lock:
            self._stalls[key] = self._stalls.get(key, 0.0) + seconds

    def slow_seconds(self, worker: int, key: str, attempt: int) -> float:
        with self._stall_lock:
            # Consumed on first execution: a retry or a re-routed
            # return of the same key runs at full speed.
            return self._stalls.pop(key, 0.0)


class ThreadShard:
    """In-thread shard (the deterministic default backend)."""

    backend = "thread"

    def __init__(self, shard_id: int, *, workers: int = 1,
                 queue_capacity: int = 256, batch_size: int = 4,
                 cache_dir: Optional[str] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.shard_id = int(shard_id)
        self._plan = _ShardServePlan(name=f"shard{shard_id}")
        cache = ArtifactCache(max_bytes=cache_bytes, disk_dir=cache_dir,
                              fault_plan=self._plan,
                              name=f"shard{shard_id}")
        self.service = self._service(
            workers=workers, queue_capacity=queue_capacity,
            batch_size=batch_size, cache=cache, fault_plan=self._plan)
        self._lock = obs.named_lock(f"fleet.shard[{shard_id}]._lock")
        self._dead = False                       # guarded-by: _lock
        self._closed = False                     # guarded-by: _lock
        self._alarms: Dict[str, Ticket] = {}     # guarded-by: _lock

    def _service(self, **kwargs) -> SolveService:
        return SolveService(**kwargs)

    # -- work --------------------------------------------------------------

    def submit(self, request: SolveRequest,
               stall_seconds: float = 0.0) -> Ticket:
        key = request.key()
        if stall_seconds > 0.0:
            self._plan.note_stall(key, stall_seconds)
        ticket = self.service.submit(request)
        if stall_seconds >= STALL_ALARM_SECONDS:
            with self._lock:
                self._alarms[key] = ticket
        return ticket

    def cancel(self, key: str, reason: str = "cancelled") -> bool:
        return self.service.cancel(key, reason)

    @property
    def queue_depth(self) -> int:
        return self.service.queue_depth

    @property
    def pending(self) -> int:
        return self.service.pending

    # -- health ------------------------------------------------------------

    def ping(self) -> bool:
        """Liveness: False once killed or closed (the heartbeat the
        supervisor probes)."""
        with self._lock:
            return not (self._dead or self._closed)

    def stalled(self) -> bool:
        """True while an alarm-grade stalled job is still unresolved —
        a pure function of the fault plan and the ticket states, so
        the supervisor's degraded-shard path is deterministic."""
        with self._lock:
            self._alarms = {k: t for k, t in self._alarms.items()
                            if not t.done()}
            return bool(self._alarms)

    def kill(self) -> None:
        """Mark the shard dead (health probes fail from now on).

        The service object itself stays up so the router can revoke
        (cancel) its outstanding tickets — the thread-backend model of
        a crash is *all un-delivered work is lost to the fleet*, and
        revocation is what makes that deterministic.  ``close()``
        still reaps the worker threads.
        """
        with self._lock:
            self._dead = True

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.service.close()

    def stats(self) -> ServeStats:
        return self.service.stats()


# ---------------------------------------------------------------------------
# multiprocessing backend
# ---------------------------------------------------------------------------


class _ChildStep(SolveService):
    """A :class:`SolveService` whose solve step is ``step``."""

    def __init__(self, step: Callable[[SolveRequest, str], SolveResult],
                 **kwargs) -> None:
        self._step = step
        super().__init__(**kwargs)

    def _solve(self, req: SolveRequest, key: str) -> SolveResult:
        return self._step(req, key)


def _shard_child_main(conn, shard_id: int, cache_dir: Optional[str],
                      cache_bytes: int) -> None:
    """Child-process entry: a serial solve loop until EOF.

    Each call is ``(key, route, request)``.  The request keeps its
    molecule on the first call of a route only; the child keeps that
    molecule and restores it on later calls, so warm repeats cost a
    few hundred bytes on the wire.  The answer is the
    :class:`SolveResult` (``failed`` when the solve raised) and the
    cache's stats after the call.
    """
    for end in list(_PARENT_ENDS):
        end.close()
    cache = ArtifactCache(max_bytes=cache_bytes, disk_dir=cache_dir,
                          name=f"shard{shard_id}")
    solve = functools.partial(solve_cached, cache)
    molecules: Dict[str, Molecule] = {}
    while True:
        try:
            key, route, request = conn.recv()
        except EOFError:
            return
        if request.molecule is not None:
            molecules[route] = request.molecule
        molecule = molecules.get(route)
        if molecule is None:
            # A payload-less call for a route this child never got a
            # molecule for: a typed failure, not a dead shard.
            result = SolveResult(
                key=key, status="failed", method=request.method,
                error=f"unknown route {route[:16]}… (molecule payload "
                      f"not received)")
        else:
            result, _ = failed_on_raise(
                solve, dataclasses.replace(request, molecule=molecule),
                key)
        # Guard events may hold non-picklable context; the fleet
        # surface reports them via counts only.
        result.guard_events = []
        result.shard = shard_id
        conn.send((result, cache.stats()))


class ProcessShard(ThreadShard):
    """A thread shard whose solve step runs in a child process.

    Queueing, coalescing, priorities, deadlines, stalls, cancellation
    and the counts and latencies of :meth:`stats` all live in the
    parent's service, exactly as on a :class:`ThreadShard`.  That
    service runs one worker, whose solve step is one round trip to the
    child: a process shard solves one request at a time, whatever
    ``workers`` says.  A call the child cannot answer (killed, or
    died) fails with :data:`PROC_DIED_ERROR`, and so does every later
    call, at once.  ``ServeStats.cache`` is the child's cache, as of
    its last answer.
    """

    backend = "process"

    def __init__(self, shard_id: int, *, workers: int = 1,
                 queue_capacity: int = 256, batch_size: int = 4,
                 cache_dir: Optional[str] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_child_main,
            args=(child_conn, int(shard_id), cache_dir, cache_bytes),
            name=f"fleet-shard-{shard_id}", daemon=True)
        _PARENT_ENDS.add(self._conn)
        self._proc.start()
        child_conn.close()
        # The pipe and these two belong to the one parent worker (and
        # to close() once it has joined that worker); stats() only
        # reads the snapshot, which the worker rebinds whole.
        self._routes: Set[str] = set()      # routes the child holds
        self._child_cache = CacheStats()
        # The artifacts live in the child: the parent's cache is empty.
        super().__init__(shard_id, workers=1,
                         queue_capacity=queue_capacity,
                         batch_size=batch_size, cache_bytes=0)

    def _service(self, **kwargs) -> SolveService:
        return _ChildStep(self._call_child, **kwargs)

    def _call_child(self, req: SolveRequest, key: str) -> SolveResult:
        """The service's solve step: one round trip to the child."""
        with self._lock:
            dead = self._dead
        if dead:    # killed: fail at once, never touch the pipe
            raise DiagnosticError(PROC_DIED_ERROR)
        route = req.route_key()
        wire = (req if route not in self._routes
                else dataclasses.replace(req, molecule=None))
        try:
            self._conn.send((key, route, wire))
            self._routes.add(route)
            result, self._child_cache = self._conn.recv()
        except (EOFError, OSError):     # the child died
            self.kill()
            raise DiagnosticError(PROC_DIED_ERROR) from None
        if result.status == "failed":
            # The child's error text, as a thread shard reports it.
            raise DiagnosticError(result.error)
        return result

    def ping(self) -> bool:
        return super().ping() and self._proc.is_alive()

    def kill(self) -> None:
        super().kill()
        self._proc.terminate()

    def close(self) -> None:
        # The drain runs the queued calls through the child.  A hung
        # child would hold the worker's call, and so the drain,
        # forever: 30 s in, SIGKILL it (a stopped child ignores
        # SIGTERM), which fails that call and every one still queued
        # with PROC_DIED_ERROR.
        watchdog = threading.Timer(30.0, self._proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            super().close()
        finally:
            watchdog.cancel()
        self._conn.close()          # EOF ends the child's loop
        self._proc.join(timeout=30.0)
        if self._proc.is_alive():   # pragma: no cover — hung child
            self._proc.terminate()
            self._proc.join(timeout=5.0)

    def stats(self) -> ServeStats:
        stats = super().stats()
        stats.cache = self._child_cache
        return stats
