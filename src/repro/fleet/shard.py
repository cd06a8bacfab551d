"""One fleet shard: a :class:`SolveService` behind a uniform facade.

Two backends share the same surface (``submit`` / ``cancel`` /
``ping`` / ``stalled`` / ``kill`` / ``close`` / ``queue_depth`` /
``stats``):

* :class:`ThreadShard` — the default: an in-process service whose
  worker threads share the interpreter.  Fully deterministic under the
  chaos choreography (kills are modelled as *revocation*: the router
  cancels every outstanding ticket, which wakes stalled workers and
  turns any still-running compute into a discarded first-set-wins
  loser), which is why the chaos matrix runs on it.
* :class:`ProcessShard` — behind ``backend="process"``: the service
  lives in a child process (escaping the GIL for real), fed by one
  parent-side pipe thread, one outstanding request at a time.
  ``kill()`` is a real ``SIGTERM``.

Both backends consult a :class:`_ShardServePlan` — the adapter that
maps fleet-level :class:`~repro.faults.plan.ShardStall` injections
(keyed on per-shard *dispatch* sequence by the router) onto the
service's per-execution straggler hook.  The stall waits on the
ticket's interruptible event, so a fleet-level cancel wakes it
immediately.

Every shard's :class:`~repro.serve.cache.ArtifactCache` is named
(``shard<N>`` metric suffix) and may point at a *shared* ``disk_dir``:
the disk tier is the fleet's warm layer, so a request re-routed after
a shard death still hits the ``surface``/``trees``/``born`` layers its
old shard persisted.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import weakref
from typing import Dict, Optional

import repro.obs as obs
from repro.faults.plan import ServeFaultPlan
from repro.guard.solver import GuardPolicy
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.serve.cache import ArtifactCache, DEFAULT_CACHE_BYTES
from repro.serve.request import SolveRequest, SolveResult
from repro.serve.service import CANCELLED_MARK, ServeStats, SolveService, \
    Ticket

__all__ = ["ThreadShard", "ProcessShard", "STALL_ALARM_SECONDS",
           "PROC_DIED_ERROR"]

#: A noted stall at or above this many seconds arms the shard's
#: ``stalled()`` probe — the deterministic signal the supervisor's
#: degraded-shard detection keys on (never a wall-clock timeout).
STALL_ALARM_SECONDS = 5.0

#: Error string a :class:`ProcessShard` feeder installs when the child
#: process dies with a request on the wire.  The router matches it to
#: fail the shard over and re-route the request (crash semantics, not
#: a terminal compute failure).
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
    the result here under the request key; the service's straggler
    hook (:meth:`slow_seconds`) then pops the note when the job
    executes.  Crash/disk/poison queries stay empty — shard-level
    faults are injected above the service, at the router edge.
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
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 policy: Optional[GuardPolicy] = None,
                 stall_alarm_s: float = STALL_ALARM_SECONDS) -> None:
        self.shard_id = int(shard_id)
        self.stall_alarm_s = float(stall_alarm_s)
        self._plan = _ShardServePlan(name=f"shard{shard_id}")
        cache = ArtifactCache(max_bytes=cache_bytes, disk_dir=cache_dir,
                              fault_plan=self._plan,
                              name=f"shard{shard_id}")
        self.service = SolveService(
            workers=workers, queue_capacity=queue_capacity,
            batch_size=batch_size, cache=cache, policy=policy,
            fault_plan=self._plan)
        self._lock = obs.named_lock(f"fleet.shard[{shard_id}]._lock")
        self._dead = False                       # guarded-by: _lock
        self._alarms: Dict[str, Ticket] = {}     # guarded-by: _lock

    # -- work --------------------------------------------------------------

    def submit(self, request: SolveRequest,
               stall_seconds: float = 0.0) -> Ticket:
        key = request.key()
        if stall_seconds > 0.0:
            self._plan.note_stall(key, stall_seconds)
        ticket = self.service.submit(request)
        if stall_seconds >= self.stall_alarm_s:
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
        """Liveness: False once killed (the heartbeat the supervisor
        probes)."""
        with self._lock:
            return not self._dead

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
        self.service.close()

    def stats(self) -> ServeStats:
        return self.service.stats()


# ---------------------------------------------------------------------------
# multiprocessing backend
# ---------------------------------------------------------------------------


def _shard_child_main(conn, shard_id: int, workers: int,
                      queue_capacity: int, batch_size: int,
                      cache_dir: Optional[str],
                      cache_bytes: int) -> None:
    """Child-process entry: serve solve RPCs over ``conn`` until EOF.

    Molecules arrive once per route key (the parent registry sends
    the arrays on first use, then only the key), so warm repeats cost
    a few hundred bytes on the wire.
    """
    for end in list(_PARENT_ENDS):
        end.close()
    plan = _ShardServePlan(name=f"shard{shard_id}.child")
    cache = ArtifactCache(max_bytes=cache_bytes, disk_dir=cache_dir,
                          fault_plan=plan, name=f"shard{shard_id}")
    service = SolveService(workers=workers,
                           queue_capacity=queue_capacity,
                           batch_size=batch_size, cache=cache,
                           fault_plan=plan)
    molecules: Dict[str, Molecule] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg[0] == "close":
                conn.send(("bye",))
                return
            if msg[0] == "ping":
                conn.send(("pong",))
                continue
            if msg[0] == "stats":
                conn.send(("stats", service.stats()))
                continue
            (_, key, route, payload, params, method, priority, tau,
             stall) = msg
            if payload is not None:
                positions, charges, radii, surf, name = payload
                molecules[route] = Molecule(
                    positions, charges, radii,
                    surface=(SurfaceSamples(*surf)
                             if surf is not None else None),
                    name=name)
            molecule = molecules.get(route)
            if molecule is None:
                # The payload-bearing message for this route never
                # arrived (e.g. it was cancelled while queued in the
                # parent).  Answer with a typed failure instead of
                # dying — one bad message must not kill the shard.
                conn.send(("result", SolveResult(
                    key=key, status="failed",
                    error=f"unknown route {route[:16]}… (molecule "
                          f"payload not received)")))
                continue
            request = SolveRequest(
                molecule=molecule, params=params, method=method,
                priority=priority, idempotency_key=key, tau=tau)
            if stall > 0.0:
                plan.note_stall(key, stall)
            result = service.submit(request).result()
            # Guard events may hold non-picklable context; the fleet
            # surface reports them via counts only.
            result.guard_events = []
            conn.send(("result", result))
    finally:
        service.close()


class ProcessShard:
    """Shard whose service runs in a child process (GIL escape).

    One parent-side feeder thread owns the pipe and serves requests
    strictly in order, one outstanding RPC at a time; ``kill()`` is a
    real ``terminate()``.  Cancellation is parent-side (first-set-wins
    on the parent ticket): a cancelled request still queued is skipped
    by the feeder, one already on the wire finishes in the child and
    loses the set race.
    """

    backend = "process"

    def __init__(self, shard_id: int, *, workers: int = 1,
                 queue_capacity: int = 256, batch_size: int = 4,
                 cache_dir: Optional[str] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 policy: Optional[GuardPolicy] = None,
                 stall_alarm_s: float = STALL_ALARM_SECONDS) -> None:
        del policy  # guard policy is not wired over the pipe (defaults)
        self.shard_id = int(shard_id)
        self.stall_alarm_s = float(stall_alarm_s)
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_child_main,
            args=(child_conn, self.shard_id, workers, queue_capacity,
                  batch_size, cache_dir, cache_bytes),
            name=f"fleet-shard-{shard_id}", daemon=True)
        _PARENT_ENDS.add(self._conn)
        self._proc.start()
        child_conn.close()
        self._outbox: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._lock = obs.named_lock(f"fleet.shard[{shard_id}]._lock")
        self._dead = False                       # guarded-by: _lock
        self._closed = False                     # guarded-by: _lock
        self._sent_routes: Dict[str, bool] = {}  # guarded-by: _lock
        self._tickets: Dict[str, Ticket] = {}    # guarded-by: _lock
        self._alarms: Dict[str, Ticket] = {}     # guarded-by: _lock
        self._stats_box: "queue.Queue[ServeStats]" = queue.Queue()
        self._feeder = threading.Thread(
            target=self._feed, name=f"fleet-feeder-{shard_id}",
            daemon=True)
        self._feeder.start()

    # -- feeder ------------------------------------------------------------

    def _feed(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                try:
                    self._conn.send(("close",))
                    self._conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    # Pipe already torn down (killed child) — the
                    # close handshake is best-effort; note it and
                    # exit the feeder either way.
                    obs.instant(
                        f"fleet.shard{self.shard_id}.close_eof",
                        cat="fault")
                return
            if item[0] == "stats":
                try:
                    self._conn.send(("stats",))
                    self._stats_box.put(self._conn.recv()[1])
                except (EOFError, OSError, BrokenPipeError):
                    self._stats_box.put(ServeStats())
                continue
            ticket, wire = item
            if ticket.done():       # cancelled while queued
                if wire[3] is not None:
                    # This message carried the route's molecule payload
                    # and the child never saw it; unmark the route so
                    # the next submit resends the arrays.
                    with self._lock:
                        self._sent_routes.pop(wire[2], None)
                continue
            try:
                self._conn.send(wire)
                kind, result = self._conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                with self._lock:
                    self._dead = True
                ticket._set(SolveResult(
                    key=ticket.key, status="failed",
                    error=PROC_DIED_ERROR, shard=self.shard_id))
                continue
            result.shard = self.shard_id
            ticket._set(result)

    # -- work --------------------------------------------------------------

    def submit(self, request: SolveRequest,
               stall_seconds: float = 0.0) -> Ticket:
        key = request.key()
        route = request.route_key()
        mol = request.molecule
        surf = mol.surface
        ticket = Ticket(key)
        with self._lock:
            self._tickets[key] = ticket
            if stall_seconds >= self.stall_alarm_s:
                self._alarms[key] = ticket
            # The _sent_routes test-and-set and the enqueue share the
            # lock so the payload-bearing message is strictly first in
            # the outbox for its route — a concurrent payload-less
            # submit of the same route can neither overtake it nor
            # race the membership test (the outbox is unbounded, the
            # put never blocks under the lock).
            payload = None
            if route not in self._sent_routes:
                self._sent_routes[route] = True
                payload = (mol.positions, mol.charges, mol.radii,
                           (surf.points, surf.normals, surf.weights)
                           if surf is not None else None, mol.name)
            self._outbox.put((ticket, (
                "solve", key, route, payload, request.params,
                request.method, request.priority, request.tau,
                stall_seconds)))
        ticket.on_done(self._forget)
        return ticket

    def _forget(self, ticket: Ticket) -> None:
        with self._lock:
            if self._tickets.get(ticket.key) is ticket:
                del self._tickets[ticket.key]

    def cancel(self, key: str, reason: str = "cancelled") -> bool:
        """Parent-side revocation (first-set-wins on the parent
        ticket); a request already on the wire finishes in the child
        and its result loses the set race."""
        with self._lock:
            ticket = self._tickets.get(key)
        if ticket is None:
            return False
        return ticket._set(SolveResult(
            key=key, status="failed",
            error=f"{CANCELLED_MARK} {reason}", shard=self.shard_id))

    @property
    def queue_depth(self) -> int:
        return self._outbox.qsize()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._tickets)

    # -- health ------------------------------------------------------------

    def ping(self) -> bool:
        with self._lock:
            if self._dead or self._closed:
                return False
        return self._proc.is_alive()

    def stalled(self) -> bool:
        with self._lock:
            self._alarms = {k: t for k, t in self._alarms.items()
                            if not t.done()}
            return bool(self._alarms)

    def kill(self) -> None:
        with self._lock:
            self._dead = True
        self._proc.terminate()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._outbox.put(None)
        self._feeder.join(timeout=30.0)
        self._proc.join(timeout=30.0)
        if self._proc.is_alive():   # pragma: no cover — hung child
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._conn.close()

    def stats(self) -> ServeStats:
        if not self.ping():
            return ServeStats()
        self._outbox.put(("stats",))
        try:
            return self._stats_box.get(timeout=30.0)
        except queue.Empty:         # pragma: no cover — hung child
            return ServeStats()
