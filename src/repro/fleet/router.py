"""Consistent-hash router over N serve shards, with failover.

The :class:`ShardRouter` is the fleet's single front door:

* **routing** — a request's *content* fingerprint
  (:meth:`~repro.serve.request.SolveRequest.route_key`) is hashed
  onto a :class:`~repro.fleet.ring.HashRing`, so repeats of one
  molecule hit the same shard's memory-tier cache and the assignment
  is a pure function of the live shard set (same seed ⇒ same shards,
  the determinism the chaos matrix asserts);
* **fleet-level coalescing** — concurrent submits with one
  idempotency key share one fleet ticket, exactly like a single
  service;
* **resilience at the dispatch edge** — a per-shard
  :class:`~repro.serve.resilience.CircuitBreaker` (a partitioned or
  failing shard is routed around while its breaker is open) and an
  optional fleet-level :class:`AdmissionController` shedding load with
  a retry-after hint before any shard queue backs up.  Admission sees
  the router's own outstanding-entry count — deterministic state, not
  a racy queue length;
* **failover** — :meth:`fail_over` (dead shard) and
  :meth:`quarantine` (degraded shard) revoke every unresolved entry
  from the victim via :meth:`SolveService.cancel` and re-submit the
  ones whose cancel *won* to the ring successor — the cancel/resubmit
  pair is what makes redelivery exactly-once: a result that beat the
  cancel is delivered (the request was served, not lost) and is never
  recomputed.  Requests re-routed more than ``max_moves`` times fail
  with a typed :class:`~repro.fleet.errors.ShardLostError`;
* **fault injection** — an optional
  :class:`~repro.faults.plan.FleetFaultPlan` is consulted at dispatch
  time against the per-shard dispatch sequence counters (never wall
  clock): ``crash_at`` kills the shard *before* the triggering
  dispatch, ``partitioned`` fails the dispatch at the router edge
  (breaker food), ``stall_seconds`` rides into the shard's straggler
  hook.

Lock discipline: ``_lock`` guards the ring, the entry table and the
counters only.  Dispatch, cancellation, shard calls and ticket
resolution all happen *outside* it — the router never blocks under
its hot lock (RPR202) and callbacks never see it held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import repro.obs as obs
from repro.faults.plan import FleetFaultPlan
from repro.fleet.errors import NoLiveShardsError, ShardLostError
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.fleet.shard import PROC_DIED_ERROR
from repro.serve.errors import (
    QueueFullError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.request import SolveRequest, SolveResult
from repro.serve.resilience import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serve.service import CANCELLED_MARK, Ticket

__all__ = ["ShardRouter", "FleetStats"]


@dataclass
class _Entry:
    """One accepted fleet request and its current placement."""

    request: SolveRequest
    ticket: Ticket
    shard: int = -1
    shard_ticket: Optional[Ticket] = None
    moves: int = 0


@dataclass
class FleetStats:
    """Router counters (snapshot via :meth:`ShardRouter.stats`)."""

    submitted: int = 0
    coalesced: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    rerouted: int = 0
    rebalance_moves: int = 0
    shards_live: int = 0
    shards_dead: int = 0
    dead: List[int] = field(default_factory=list)
    degraded: List[int] = field(default_factory=list)
    dispatches: Dict[int, int] = field(default_factory=dict)
    queue_depth: Dict[int, int] = field(default_factory=dict)


class ShardRouter:
    """Routes :class:`SolveRequest`s across shards; survives losing
    them."""

    def __init__(self, shards: Sequence[object], *,
                 fault_plan: Optional[FleetFaultPlan] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 admission: Union[AdmissionPolicy, AdmissionController,
                                  None] = None,
                 max_moves: int = 3) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        if max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        self.max_moves = int(max_moves)
        self._plan = fault_plan
        self._shards: Dict[int, object] = {
            s.shard_id: s for s in shards}              # guarded-by: _lock
        if len(self._shards) != len(shards):
            raise ValueError("duplicate shard ids")
        self._ring = HashRing(self._shards, replicas)   # guarded-by: _lock
        self._breaker_policy = breaker_policy
        self._breakers: Dict[int, CircuitBreaker] = {
            sid: CircuitBreaker(breaker_policy,
                                name=f"fleet.shard{sid}")
            for sid in self._shards}
        if isinstance(admission, AdmissionController):
            self._admission: Optional[AdmissionController] = admission
        elif admission is not None:
            self._admission = AdmissionController(
                admission, workers=len(self._shards))
        else:
            self._admission = None
        self._lock = obs.named_lock("fleet.router._lock")
        self._idle = obs.named_condition("fleet.router._idle",
                                         self._lock)
        self._entries: Dict[str, _Entry] = {}    # guarded-by: _lock
        self._seq: Dict[int, int] = {
            sid: 0 for sid in self._shards}      # guarded-by: _lock
        self._dead: Set[int] = set()             # guarded-by: _lock
        self._degraded: Set[int] = set()         # guarded-by: _lock
        self._closed = False                     # guarded-by: _lock
        self._stats = FleetStats()               # guarded-by: _lock
        self._update_gauges()

    # -- introspection -----------------------------------------------------

    @property
    def live_shards(self) -> List[int]:
        with self._lock:
            return sorted(self._ring.shards)

    def shard(self, sid: int) -> object:
        with self._lock:
            return self._shards[sid]

    def breaker(self, sid: int) -> CircuitBreaker:
        return self._breakers[sid]

    def assignment(self, request: SolveRequest) -> int:
        """Where ``request`` would run right now (no dispatch)."""
        with self._lock:
            return self._ring.route(request.route_key(),
                                    excluding=self._dead)

    @property
    def outstanding(self) -> int:
        """Accepted-but-unresolved fleet requests (0 after a clean
        drain — the zero-stranded-tickets invariant)."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> FleetStats:
        with self._lock:
            s = self._stats
            snap = FleetStats(
                submitted=s.submitted, coalesced=s.coalesced,
                completed=s.completed, failed=s.failed, shed=s.shed,
                rerouted=s.rerouted,
                rebalance_moves=s.rebalance_moves,
                shards_live=len(self._ring),
                shards_dead=len(self._dead),
                dead=sorted(self._dead),
                degraded=sorted(self._degraded),
                dispatches=dict(self._seq))
            shards = list(self._shards.items())
        for sid, shard in shards:
            snap.queue_depth[sid] = shard.queue_depth
            if obs.is_enabled():
                obs.registry.gauge(
                    f"fleet.shard.queue_depth.shard{sid}",
                    "requests queued on one fleet shard").set(
                        shard.queue_depth)
        return snap

    def _update_gauges(self) -> None:
        # guarded-by: caller may hold _lock; reads are plain ints
        if obs.is_enabled():
            obs.registry.gauge(
                "fleet.shards.live",
                "shards currently on the routing ring").set(
                    len(self._ring))

    def _count(self, attr: str, n: int = 1,
               metric: Optional[str] = None) -> None:
        with self._lock:
            setattr(self._stats, attr, getattr(self._stats, attr) + n)
        if obs.is_enabled() and metric is not None:
            obs.registry.counter(
                metric, "fleet router request accounting").inc(n)

    # -- producer side -----------------------------------------------------

    def submit(self, request: SolveRequest) -> Ticket:
        """Admit ``request``; returns a (possibly shared) fleet ticket.

        Raises :class:`ServiceOverloadedError` on admission shed and
        :class:`NoLiveShardsError` when the ring is empty.
        """
        key = request.key()
        with self._lock:
            if self._closed:
                raise ServiceClosedError()
            if not self._ring:
                raise NoLiveShardsError(self._dead)
            entry = self._entries.get(key)
            if entry is not None:
                self._stats.coalesced += 1
                return entry.ticket
            depth = len(self._entries)
        if self._admission is not None:
            try:
                self._admission.check(depth)
            except ServiceOverloadedError:
                self._count("shed", metric="fleet.shed")
                raise
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._stats.coalesced += 1
                return entry.ticket
            entry = _Entry(request=request, ticket=Ticket(key))
            self._entries[key] = entry
            self._stats.submitted += 1
        if obs.is_enabled():
            obs.registry.counter("fleet.requests",
                                 "requests accepted by the router").inc()
        self._dispatch(entry)
        return entry.ticket

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, entry: _Entry, exclude: Optional[Set[int]] = None
                  ) -> None:
        """Place ``entry`` on a shard, consulting the fault plan.

        Runs until the entry is dispatched or terminally failed; a
        plan-triggered shard crash or partition re-routes within the
        loop.  Never holds ``_lock`` across a shard call.
        """
        exclude = set(exclude or ())
        route = entry.request.route_key()
        rejected: Dict[int, str] = {}
        while True:
            if entry.ticket.done():
                return
            with self._lock:
                try:
                    sid = self._ring.route(route,
                                           excluding=self._dead | exclude)
                except KeyError:
                    sid = None
            if sid is None:
                if rejected:
                    error = ("every routable shard rejected the "
                             "request: " + "; ".join(
                                 f"shard{s}: {why}"
                                 for s, why in sorted(rejected.items())))
                else:
                    error = str(NoLiveShardsError(self._dead))
                self._resolve(entry, SolveResult(
                    key=entry.ticket.key, status="failed", error=error))
                return
            breaker = self._breakers[sid]
            if not breaker.allow():
                # Open breaker: route around this shard for this
                # dispatch only (it recovers via half-open probes).
                exclude.add(sid)
                continue
            with self._lock:
                seq = self._seq[sid]
                self._seq[sid] = seq + 1
            crash = (self._plan.crash_at(sid, seq)
                     if self._plan is not None else None)
            if crash is not None:
                obs.instant(f"fleet.crash[shard{sid}#{seq}]",
                            cat="fault")
                self.fail_over(sid)
                continue
            part = (self._plan.partitioned(sid, seq)
                    if self._plan is not None else None)
            if part is not None:
                obs.instant(f"fleet.partition[shard{sid}#{seq}]",
                            cat="fault")
                breaker.record_failure()
                self._count("rerouted", metric="fleet.rerouted")
                exclude.add(sid)
                continue
            stall = (self._plan.stall_seconds(sid, seq)
                     if self._plan is not None else 0.0)
            shard = self._shards[sid]
            with self._lock:
                entry.shard = sid
            try:
                shard_ticket = shard.submit(entry.request,
                                            stall_seconds=stall)
            except (QueueFullError, ServiceClosedError,
                    ServiceOverloadedError) as exc:
                # A rejecting shard (full queue, closing) must not
                # strand the entry: route around it for this dispatch
                # and keep going — exhaustion of the ring resolves the
                # ticket terminally above, never leaves it dangling.
                rejected[sid] = type(exc).__name__
                obs.instant(f"fleet.reject[shard{sid}]", cat="fault",
                            error=type(exc).__name__)
                if isinstance(exc, ServiceClosedError):
                    breaker.record_failure()
                exclude.add(sid)
                continue
            with self._lock:
                entry.shard_ticket = shard_ticket
            shard_ticket.on_done(
                lambda t, e=entry, s=sid: self._on_shard_done(e, s, t))
            # A fail_over/quarantine that raced this placement (between
            # entry.shard being published and the shard accepting the
            # request) enumerated the entry as a victim but its
            # cancel() missed the not-yet-submitted key.  Re-check and
            # reclaim: if the shard was pulled off the ring meanwhile
            # and our cancel wins, the request re-routes instead of
            # running (or dying) on the lost shard.
            with self._lock:
                lost = sid in self._dead or sid in self._degraded
            if lost and shard.cancel(entry.ticket.key,
                                     "shard lost during placement"):
                if not self._budget_move(entry):
                    return
                exclude.add(sid)
                continue
            return

    def _budget_move(self, entry: _Entry) -> bool:
        """Charge one re-route against ``entry``'s move budget.

        True when the entry may be dispatched again; False when the
        budget is spent — the entry is then terminally failed with a
        :class:`ShardLostError` (never left unresolved)."""
        entry.moves += 1
        if entry.moves > self.max_moves:
            exc = ShardLostError(entry.ticket.key, entry.moves,
                                 self.max_moves)
            self._resolve(entry, SolveResult(
                key=entry.ticket.key, status="failed", error=str(exc)))
            return False
        self._count("rerouted", metric="fleet.rerouted")
        return True

    def _on_shard_done(self, entry: _Entry, sid: int,
                       shard_ticket: Ticket) -> None:
        """Shard-ticket completion → fleet-ticket resolution.

        Runs on the resolving thread (shard worker or canceller) with
        no locks held.  Router-initiated cancels carry
        :data:`CANCELLED_MARK` and are skipped — the failover path
        that issued them owns the re-submission.
        """
        result = shard_ticket.result(timeout=0.0)
        if result.error.startswith(CANCELLED_MARK):
            return
        if result.error == PROC_DIED_ERROR:
            # The process backend lost its child with this request on
            # the wire.  Treat it like any other shard crash instead of
            # failing the fleet ticket terminally: fail the shard over
            # (idempotent — also revokes and re-routes its queued work)
            # and re-dispatch this entry to the ring successor, subject
            # to the same move budget as revoke-path failover.
            breaker = self._breakers.get(sid)
            if breaker is not None:
                breaker.record_failure()
            self.fail_over(sid, reason=PROC_DIED_ERROR)
            if entry.ticket.done():
                return
            if self._budget_move(entry):
                self._dispatch(entry, exclude={sid})
            return
        if result.shard < 0:
            result.shard = sid
        breaker = self._breakers.get(sid)
        if breaker is not None:
            if result.status in ("ok", "degraded", "expired"):
                breaker.record_success()
            else:
                breaker.record_failure()
        if self._admission is not None and result.ok:
            self._admission.note_service_seconds(result.service_seconds)
        self._resolve(entry, result)

    def _resolve(self, entry: _Entry, result: SolveResult) -> None:
        """Exactly-once terminal bookkeeping for a fleet entry."""
        won = entry.ticket._set(result)
        with self._lock:
            if self._entries.get(entry.ticket.key) is entry:
                del self._entries[entry.ticket.key]
                self._idle.notify_all()
            if won:
                if result.ok:
                    self._stats.completed += 1
                else:
                    self._stats.failed += 1

    # -- failover / rebalancing --------------------------------------------

    def _revoke(self, victims: List[Tuple[object, _Entry]],
                reason: str) -> List[_Entry]:
        """Cancel every ``(shard, entry)`` victim; returns, oldest
        first, the entries whose cancel won.

        Every victim is revoked before any is re-dispatched, newest
        first: cancelling the oldest entry — the hold a shard's worker
        is stalled on — frees that worker, which must then find the
        rest of its queue already revoked.  A lost cancel means the
        shard delivered (or is a breath from delivering) a genuine
        result; its on_done callback resolves the fleet ticket.
        """
        won = [entry for shard, entry in reversed(victims)
               if shard.cancel(entry.ticket.key, reason)]
        return won[::-1]

    def _revoke_and_reroute(self, sid: int, reason: str) -> int:
        """Cancel every unresolved entry on ``sid``; re-dispatch the
        ones whose cancel won (exactly-once: a result that landed
        first is delivered, never recomputed).  Returns the move
        count."""
        shard = self._shards[sid]
        with self._lock:
            victims = [(shard, e) for e in self._entries.values()
                       if e.shard == sid and not e.ticket.done()]
        moves = 0
        for entry in self._revoke(victims, reason):
            if not self._budget_move(entry):
                continue
            moves += 1
            self._dispatch(entry)
        return moves

    def fail_over(self, sid: int, reason: str = "shard died") -> int:
        """Kill + drop ``sid`` from the ring and re-route its work.

        Idempotent; returns how many requests moved.  Used by the
        fault plan's :class:`ShardCrash` hook and by the supervisor
        when health probes flatline.
        """
        with self._lock:
            if sid in self._dead or sid not in self._shards:
                return 0
            self._dead.add(sid)
            if sid in self._ring:
                self._ring.remove(sid)
            self._update_gauges()
        shard = self._shards[sid]
        shard.kill()
        obs.instant(f"fleet.failover[shard{sid}]", cat="fault")
        return self._revoke_and_reroute(sid, reason)

    def quarantine(self, sid: int, reason: str = "shard degraded"
                   ) -> int:
        """Pull a *degraded* (stalled) shard off the ring and re-route
        its unresolved work; the shard process stays alive.  The
        cancel wakes a worker stalled on a ticket's interruptible
        event immediately."""
        with self._lock:
            if (sid in self._dead or sid in self._degraded
                    or sid not in self._shards):
                return 0
            self._degraded.add(sid)
            if sid in self._ring:
                self._ring.remove(sid)
            self._update_gauges()
        obs.instant(f"fleet.quarantine[shard{sid}]", cat="fault")
        return self._revoke_and_reroute(sid, reason)

    def add_shard(self, shard: object) -> int:
        """Join a shard and rebalance: only entries whose ring owner
        *changed* (a consistent-hash-minimal set, all owned by the new
        shard) are revoked from their old placement and re-dispatched.
        Returns the move count."""
        sid = shard.shard_id
        with self._lock:
            if sid in self._shards and sid not in self._dead:
                raise ValueError(f"shard {sid} is already in the fleet")
            self._shards[sid] = shard
            self._dead.discard(sid)
            self._degraded.discard(sid)
            self._seq.setdefault(sid, 0)
            self._ring.add(sid)
            self._update_gauges()
            moved = [(self._shards[e.shard], e)
                     for e in self._entries.values()
                     if not e.ticket.done() and e.shard >= 0
                     and e.shard != self._ring.route(
                         e.request.route_key(), excluding=self._dead)]
        self._breakers.setdefault(
            sid, CircuitBreaker(self._breaker_policy,
                                name=f"fleet.shard{sid}"))
        if self._admission is not None:
            self._admission.workers = max(self._admission.workers,
                                          len(self._shards)
                                          - len(self._dead))
        moves = 0
        for entry in self._revoke(moved, "rebalanced away"):
            moves += 1
            # lifetime total under .total; the bare name stays a gauge
            # holding the size of the *last* rebalance
            self._count("rebalance_moves",
                        metric="fleet.rebalance.moves.total")
            self._dispatch(entry)
        if obs.is_enabled():
            obs.registry.gauge(
                "fleet.rebalance.moves",
                "requests moved by the last rebalance").set(moves)
        return moves

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Condition-wait until every accepted request has a result."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._entries,
                                       timeout)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards.values())
        for shard in shards:
            shard.close()
