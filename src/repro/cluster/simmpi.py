"""Simulated MPI: real message passing between rank threads, virtual time.

Each rank runs as an OS thread executing the user's rank function with a
:class:`SimComm` handle.  Data really moves (payloads are deep-copied
between ranks, so there is no accidental shared-memory cheating — the
distributed-memory semantics are enforced), while *time* is virtual:

* ``comm.compute(dt)`` charges modelled computation time;
* collectives synchronise all ranks' virtual clocks to the latest
  arrival, then advance them by the Grama-style cost of the operation
  from :class:`repro.cluster.costmodel.CostModel`;
* point-to-point sends charge latency + bandwidth for the payload size,
  with cheaper constants when both ranks share a node.

The result of a run is the per-rank return values plus a
:class:`repro.cluster.trace.RunStats` with comp/comm/idle breakdowns.

Fault model (see ``docs/ROBUSTNESS.md``)
----------------------------------------
A :class:`repro.faults.plan.FaultPlan` passed to the cluster injects
deterministic, seeded faults: rank crashes during labelled compute
phases, point-to-point message drops and delays, lost collective
fragments (retransmitted at a virtual-time cost) and straggler
slowdowns.  Every fault the runtime surfaces to user code is a typed
:class:`repro.faults.errors.FaultError` — never a bare ``queue.Empty``
or ``BrokenBarrierError`` (lint rule RPR006 enforces the boundary):

* ``recv`` timeouts raise :class:`RecvTimeoutError` naming the channel
  and both endpoints' virtual clocks;
* an aborted collective raises :class:`CollectiveAbortedError` naming
  the operation and — heartbeat-style — *which* ranks died, so
  survivors can act on it;
* a crashed rank raises :class:`RankCrashedError` on itself.

Survivors recover by calling :meth:`SimComm.shrink`, which rendezvous
all live ranks on a new communicator epoch excluding the dead (the
ULFM ``MPI_Comm_shrink`` model); subsequent collectives span only the
survivors.  :func:`repro.parallel.distributed.run_fig4_simmpi` builds
its checkpoint/recovery loop on top of this.
"""

from __future__ import annotations

import copy
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineSpec, lonestar4
from repro.cluster.trace import RankStats, RunStats
from repro.faults.errors import (
    CollectiveAbortedError,
    FaultError,
    NoSurvivorsError,
    RankCrashedError,
    RecvTimeoutError,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import get_tracer

#: Default barrier/recv timeout (real seconds) — a mismatched collective
#: in user code fails loudly instead of deadlocking the test suite.
#: Override per cluster with ``SimCluster(timeout=...)`` or globally via
#: the ``REPRO_SIMMPI_TIMEOUT`` environment variable.
_BARRIER_TIMEOUT = 120.0

#: How often a blocked ``recv`` wakes to check for dead senders (s).
_RECV_POLL = 0.05


def _resolve_timeout(timeout: Optional[float]) -> float:
    if timeout is not None:
        value = float(timeout)
    else:
        env = os.environ.get("REPRO_SIMMPI_TIMEOUT")
        value = float(env) if env else _BARRIER_TIMEOUT
    if value <= 0:
        raise ValueError("timeout must be positive")
    return value


def _payload_copy(obj: Any) -> Any:
    """Deep copy enforcing distributed-memory isolation."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, str, bytes, bool,
                        type(None))):
        return obj
    return copy.deepcopy(obj)


def _payload_words(obj: Any) -> float:
    """Size of a payload in 8-byte words (for the cost model)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes / 8.0
    if isinstance(obj, (list, tuple)):
        return sum(_payload_words(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_payload_words(v) for v in obj.values())
    return 1.0


@dataclass(frozen=True)
class GroupInfo:
    """What :meth:`SimComm.shrink` reports back to the rank function."""

    epoch: int
    alive: Tuple[int, ...]
    newly_dead: Tuple[int, ...]


class _Group:
    """One communicator epoch: the live ranks plus their collective state.

    Epoch 0 spans all ranks; each :meth:`SimComm.shrink` after a rank
    death creates the next epoch over the survivors.  Collectives on a
    group run in lockstep (shared slots + a triple barrier), so at any
    moment all members are in the same collective — the property the
    recovery protocol relies on.
    """

    def __init__(self, epoch: int, alive: Tuple[int, ...],
                 timeout: float,
                 newly_dead: Tuple[int, ...] = (),
                 op_seqs: Optional[Dict[str, int]] = None) -> None:
        self.epoch = epoch
        self.alive = tuple(alive)
        self.newly_dead = tuple(newly_dead)
        self.index = {r: i for i, r in enumerate(self.alive)}
        self.size = len(self.alive)
        self.slots: List[Any] = [None] * self.size
        self.entry_clocks = np.zeros(self.size)
        self.result: Any = None
        #: Completed-collective counters per op (carried across epochs
        #: so fault indices keep addressing logical collectives).
        self.op_seqs: Dict[str, int] = dict(op_seqs or {})
        self.barrier = threading.Barrier(self.size)
        self._timeout = timeout

    def wait(self) -> None:
        """One barrier cycle; broken barriers surface to the caller."""
        self.barrier.wait(timeout=self._timeout)


class SimComm:
    """Per-rank communicator handle (the ``comm`` of a rank function)."""

    def __init__(self, cluster: "SimCluster", rank: int) -> None:
        self._cluster = cluster
        self.rank = rank
        self.size = cluster.processes
        self.stats = RankStats(rank=rank)
        self._clock = 0.0
        self._group = cluster._latest_group
        self._compute_seqs: Dict[str, int] = {}
        self._send_seqs: Dict[Tuple[int, int], int] = {}
        self._straggler_noted = False

    # -- virtual time ----------------------------------------------------

    @property
    def clock(self) -> float:
        """This rank's virtual time (seconds since run start)."""
        return self._clock

    @property
    def alive(self) -> Tuple[int, ...]:
        """Ranks in this rank's current communicator epoch."""
        return self._group.alive

    @property
    def epoch(self) -> int:
        return self._group.epoch

    def compute(self, seconds: float, label: str = "compute",
                recovery: bool = False) -> None:
        """Charge modelled computation time.

        ``label`` names the trace span when observability is enabled
        and is what :class:`~repro.faults.plan.RankCrash` phases match
        against.  ``recovery=True`` additionally books the charge as
        recovery work (``RankStats.recovery_seconds``) and colours the
        trace span as such.
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        t0 = self._clock
        plan = self._cluster.fault_plan
        if plan is not None and not plan.is_empty:
            seconds = self._inject_compute_faults(seconds, label, t0)
        self._clock += seconds
        self.stats.comp_seconds += seconds
        if recovery:
            self.stats.recovery_seconds += seconds
        tracer = get_tracer()
        if tracer.enabled:
            tracer.virtual_span(label, "recovery" if recovery else "comp",
                                self.rank, t0, self._clock)

    def _inject_compute_faults(self, seconds: float, label: str,
                               t0: float) -> float:
        """Apply straggler slowdown; fire a matching crash."""
        plan = self._cluster.fault_plan
        factor = plan.slowdown(self.rank)
        if factor != 1.0:
            seconds *= factor
            if not self._straggler_noted:
                self._straggler_noted = True
                self._cluster._record_fault(
                    FaultEvent("straggler", self.rank, t0,
                               f"slowdown x{factor:g}"))
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.virtual_instant("fault.straggler", "fault",
                                           self.rank, t0, factor=factor)
        occurrence = self._compute_seqs.get(label, 0)
        self._compute_seqs[label] = occurrence + 1
        crash = plan.crash_for(self.rank, label, occurrence,
                               t0, t0 + seconds)
        if crash is not None:
            if crash.at_time is not None:
                t_crash = crash.at_time
            else:
                t_crash = t0 + crash.after_fraction * seconds
            done = max(0.0, t_crash - t0)
            self._clock += done
            self.stats.comp_seconds += done
            self._die(label, self._clock)
        return seconds

    def _die(self, phase: str, t: float) -> None:
        """Injected death: mark, abort, trace, raise — in that order
        (peers must see the dead set before their barriers break)."""
        self._cluster._mark_dead(self.rank)
        self._cluster._record_fault(
            FaultEvent("crash", self.rank, t, phase))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.virtual_instant("fault.crash", "fault", self.rank, t,
                                   phase=phase)
        raise RankCrashedError(self.rank, t, phase)

    def charge_memory(self, nbytes: int) -> None:
        """Record resident bytes for this rank's process (peak tracked)."""
        self.stats.memory_bytes = max(self.stats.memory_bytes, int(nbytes))

    def _sync_to(self, t: float) -> None:
        """Advance to a later virtual time, booking the gap as idle."""
        if t > self._clock:
            self.stats.idle_seconds += t - self._clock
            self._clock = t

    def _charge_comm(self, seconds: float) -> None:
        self._clock += seconds
        self.stats.comm_seconds += seconds

    # -- fault detection / recovery ------------------------------------

    def _aborted(self, op: str) -> CollectiveAbortedError:
        """Typed error for a broken collective barrier, naming the dead."""
        dead = self._cluster.dead_ranks()
        return CollectiveAbortedError(op, self.rank, self._clock,
                                      dead=dead, timed_out=not dead)

    def shrink(self) -> GroupInfo:
        """Rendezvous the survivors on a new communicator epoch.

        The ULFM ``MPI_Comm_shrink`` model: after a
        :class:`CollectiveAbortedError` names dead ranks, every
        survivor calls ``shrink()``; all live ranks meet on a fresh
        group excluding the dead and subsequent collectives span only
        them.  The agreement costs one small collective in virtual
        time.  Returns the new epoch's membership and every rank that
        died since this rank's previous epoch.
        """
        cluster = self._cluster
        old_epoch = self._group.epoch
        with cluster._state_lock:
            latest = cluster._latest_group
            dead = set(cluster._dead)
            if self.rank in dead:
                raise RankCrashedError(self.rank, self._clock)
            if any(r in dead for r in latest.alive):
                alive = tuple(r for r in latest.alive if r not in dead)
                if not alive:
                    raise NoSurvivorsError(sorted(dead))
                newly = tuple(r for r in latest.alive if r in dead)
                latest = _Group(latest.epoch + 1, alive, cluster.timeout,
                                newly_dead=newly, op_seqs=latest.op_seqs)
                cluster._groups[latest.epoch] = latest
                cluster._latest_group = latest
                cluster._recoveries += 1
            target = latest
        newly_dead: List[int] = []
        for e in range(old_epoch + 1, target.epoch + 1):
            newly_dead.extend(cluster._groups[e].newly_dead)
        self._group = target
        idx = target.index.get(self.rank)
        if idx is None:
            raise RankCrashedError(self.rank, self._clock)
        target.entry_clocks[idx] = self._clock
        try:
            target.wait()
            t_latest = float(target.entry_clocks.max())
            target.wait()  # everyone has read before clocks are reused
        except threading.BrokenBarrierError:
            raise self._aborted("shrink") from None
        t_entry = self._clock
        self._sync_to(t_latest)
        cost = self._cluster.cost
        self._charge_comm(cost.reduce_seconds(1.0, target.size,
                                              self._cluster.threads_per_rank)
                          + cost.collective_sync_seconds(target.size))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.virtual_span("shrink", "comm", self.rank, t_entry,
                                self._clock, epoch=target.epoch,
                                alive=list(target.alive))
        return GroupInfo(epoch=target.epoch, alive=target.alive,
                         newly_dead=tuple(newly_dead))

    # -- collectives -------------------------------------------------------

    def _collective(self, payload: Any,
                    combine: Callable[[List[Any]], Any],
                    cost: Callable[[List[Any]], float],
                    op: str = "collective") -> Any:
        """Generic synchronising collective over the current group.

        ``combine`` maps the slot list (in group order) to the common
        result; ``cost`` maps it to the operation's virtual cost.  All
        live ranks synchronise to the latest entry clock, then advance
        by the cost.  ``op`` names the trace event emitted when
        observability is on.  A broken barrier — peer death, timeout or
        mismatched schedule — surfaces as
        :class:`CollectiveAbortedError`, never ``BrokenBarrierError``.
        """
        st = self._group
        idx = st.index.get(self.rank)
        if idx is None:
            raise RankCrashedError(self.rank, self._clock)
        plan = self._cluster.fault_plan
        op_seq = st.op_seqs.get(op, 0)
        if plan is not None and not plan.is_empty:
            delay = plan.collective_delay(self.rank, op, op_seq)
            if delay > 0.0:
                self._charge_comm(delay)
                self._cluster._record_fault(
                    FaultEvent("delay", self.rank, self._clock,
                               f"{op}[{op_seq}] +{delay:g}s"))
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.virtual_instant("fault.delay", "fault",
                                           self.rank, self._clock,
                                           op=op, seconds=delay)
        st.slots[idx] = payload
        st.entry_clocks[idx] = self._clock
        try:
            st.wait()
            if idx == 0:
                st.result = combine(st.slots)
                st.op_seqs[op] = op_seq + 1
            st.wait()
        except threading.BrokenBarrierError:
            raise self._aborted(op) from None
        result = _payload_copy(st.result)
        t_max = float(st.entry_clocks.max())
        dt = float(cost(st.slots))
        if plan is not None and not plan.is_empty:
            dt += self._collective_retransmits(op, op_seq, st, t_max, idx)
        t_entry = self._clock
        self._sync_to(t_max)
        self._charge_comm(dt)
        tracer = get_tracer()
        if tracer.enabled:
            nbytes = int(8 * _payload_words(payload)) if payload is not None \
                else 0
            if t_max > t_entry:
                tracer.virtual_span(f"{op}.wait", "idle", self.rank,
                                    t_entry, t_max)
            tracer.virtual_span(op, "comm", self.rank, t_max, self._clock,
                                payload_bytes=nbytes, size=st.size)
        try:
            st.wait()  # everyone has read before slots are reused
        except threading.BrokenBarrierError:
            raise self._aborted(op) from None
        return result

    def _collective_retransmits(self, op: str, op_seq: int, st: _Group,
                                t_fault: float, idx: int) -> float:
        """Virtual cost of retransmitting dropped collective fragments.

        A lost fragment from any participant stalls the whole
        operation for one inter-node round trip of the largest
        fragment — every rank pays it, which is how a reliable
        transport's retransmission shows up in an Allreduce.
        """
        plan = self._cluster.fault_plan
        drops = plan.collective_drops(op, op_seq, st.alive)
        if not drops:
            return 0.0
        words = max(_payload_words(s) for s in st.slots)
        extra = len(drops) * self._cluster.cost.point_to_point_seconds(
            words, same_node=False)
        if idx == 0:  # record once per collective, not once per rank
            for src in drops:
                self._cluster._record_fault(
                    FaultEvent("drop", src, t_fault,
                               f"{op}[{op_seq}] fragment retransmitted"))
            tracer = get_tracer()
            if tracer.enabled:
                for src in drops:
                    tracer.virtual_instant("fault.drop", "fault", src,
                                           t_fault, op=op)
        return extra

    def _effective_root(self, root: int) -> int:
        """Map a (possibly dead) root rank onto the current group."""
        if root in self._group.index:
            return root
        return self._group.alive[0]

    def barrier(self) -> None:
        """Synchronise virtual clocks (latency-only cost)."""
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        self._collective(
            None,
            combine=lambda slots: None,
            cost=lambda slots: cm.reduce_seconds(1.0, len(slots), p),
            op="barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        root = self._effective_root(root)
        root_idx = self._group.index[root]
        return self._collective(
            obj if self.rank == root else None,
            combine=lambda slots: slots[root_idx],
            cost=lambda slots: cm.reduce_seconds(
                _payload_words(slots[root_idx]), len(slots), p),
            op="bcast")

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Allreduce over numpy arrays or scalars (``sum``/``min``/``max``)."""
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        reducers = {"sum": _reduce_sum, "min": _reduce_min,
                    "max": _reduce_max}
        if op not in reducers:
            raise ValueError(f"unsupported op {op!r}")
        return self._collective(
            value,
            combine=reducers[op],
            cost=lambda slots: cm.allreduce_seconds(
                _payload_words(slots[0]), len(slots), p),
            op="allreduce")

    def reduce(self, value: Any, root: int = 0, op: str = "sum") -> Any:
        """Reduce to ``root``; other ranks receive ``None``.

        If ``root`` died, the lowest surviving rank takes over as
        master (the Fig. 4 energy accumulation must always have one).
        """
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        reducers = {"sum": _reduce_sum, "min": _reduce_min,
                    "max": _reduce_max}
        if op not in reducers:
            raise ValueError(f"unsupported op {op!r}")
        root = self._effective_root(root)
        out = self._collective(
            value,
            combine=reducers[op],
            cost=lambda slots: cm.reduce_seconds(
                _payload_words(slots[0]), len(slots), p),
            op="reduce")
        return out if self.rank == root else None

    def allgather(self, obj: Any) -> List[Any]:
        """Gather everyone's payload; the list is in group (alive) order."""
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        return self._collective(
            obj,
            combine=lambda slots: list(slots),
            cost=lambda slots: cm.allgather_seconds(
                max(_payload_words(s) for s in slots), len(slots), p),
            op="allgather")

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather to ``root`` (tree gather — cheaper than allgather)."""
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        root = self._effective_root(root)
        out = self._collective(
            obj,
            combine=lambda slots: list(slots),
            cost=lambda slots: cm.gather_seconds(
                max(_payload_words(s) for s in slots), len(slots), p),
            op="gather")
        return out if self.rank == root else None

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        cm = self._cluster.cost
        p = self._cluster.threads_per_rank
        root = self._effective_root(root)
        root_idx = self._group.index[root]
        my_idx = self._group.index[self.rank]
        if self.rank == root:
            if objs is None or len(objs) != self._group.size:
                raise ValueError("scatter needs one payload per live rank")
        result = self._collective(
            objs if self.rank == root else None,
            combine=lambda slots: slots[root_idx],
            cost=lambda slots: cm.allgather_seconds(
                max(_payload_words(s) for s in slots[root_idx]),
                len(slots), p),
            op="scatter")
        return _payload_copy(result[my_idx])

    # -- point-to-point ------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size or dest == self.rank:
            raise ValueError(f"bad destination {dest}")
        same = (self._cluster.placement[self.rank]
                == self._cluster.placement[dest])
        words = _payload_words(obj)
        dt = self._cluster.cost.point_to_point_seconds(
            words, same_node=same)
        t0 = self._clock
        self._charge_comm(dt)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.virtual_span("send", "comm", self.rank, t0, self._clock,
                                payload_bytes=int(8 * words), dest=dest,
                                tag=tag, same_node=same)
        arrival_clock = self._clock
        plan = self._cluster.fault_plan
        if plan is not None and not plan.is_empty:
            seq = self._send_seqs.get((dest, tag), 0)
            self._send_seqs[(dest, tag)] = seq + 1
            drop, delay = plan.p2p_fault(self.rank, dest, tag, seq)
            if drop is not None:
                self._cluster._record_fault(
                    FaultEvent("drop", self.rank, self._clock,
                               f"send -> {dest} tag {tag} seq {seq}"))
                if tracer.enabled:
                    tracer.virtual_instant("fault.drop", "fault",
                                           self.rank, self._clock,
                                           dest=dest, tag=tag)
                return  # the message vanishes in transit
            if delay is not None:
                arrival_clock += delay.seconds
                self._cluster._record_fault(
                    FaultEvent("delay", self.rank, self._clock,
                               f"send -> {dest} tag {tag} "
                               f"+{delay.seconds:g}s"))
                if tracer.enabled:
                    tracer.virtual_instant("fault.delay", "fault",
                                           self.rank, self._clock,
                                           dest=dest, tag=tag,
                                           seconds=delay.seconds)
        self._cluster._queue_for(self.rank, dest, tag).put(
            (_payload_copy(obj), arrival_clock))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive.

        Raises :class:`RankCrashedError` if the source is known dead,
        and :class:`RecvTimeoutError` — naming the channel and both
        endpoints' virtual clocks — if nothing arrives within the
        cluster timeout.  Never leaks ``queue.Empty``.
        """
        if not 0 <= source < self.size or source == self.rank:
            raise ValueError(f"bad source {source}")
        cluster = self._cluster
        q = cluster._queue_for(source, self.rank, tag)
        deadline = time.monotonic() + cluster.timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                obj, sender_clock = q.get(
                    timeout=min(_RECV_POLL, max(1e-6, remaining)))
                break
            except queue.Empty:
                if source in cluster._dead:
                    raise RankCrashedError(
                        source, cluster.rank_clock(source)) from None
                if remaining <= 0:
                    raise RecvTimeoutError(
                        source, self.rank, tag,
                        dest_clock=self._clock,
                        source_clock=cluster.rank_clock(source),
                        timeout=cluster.timeout) from None
        t0 = self._clock
        self._sync_to(sender_clock)
        tracer = get_tracer()
        if tracer.enabled and self._clock > t0:
            tracer.virtual_span("recv.wait", "idle", self.rank, t0,
                                self._clock, source=source, tag=tag)
        return obj


def _reduce_sum(slots: List[Any]) -> Any:
    acc = _payload_copy(slots[0])
    for s in slots[1:]:
        acc = acc + s
    return acc


def _reduce_min(slots: List[Any]) -> Any:
    acc = _payload_copy(slots[0])
    for s in slots[1:]:
        acc = np.minimum(acc, s)
    return acc


def _reduce_max(slots: List[Any]) -> Any:
    acc = _payload_copy(slots[0])
    for s in slots[1:]:
        acc = np.maximum(acc, s)
    return acc


class SimCluster:
    """Launches rank threads and aggregates their statistics.

    Parameters
    ----------
    processes:
        Number of MPI ranks.
    threads_per_rank:
        Cores each rank occupies (affects placement and collective
        costs; intra-rank threading itself is modelled by the
        work-stealing simulator in the drivers).
    machine:
        Cluster hardware model.
    cost:
        Cost model; defaults to one over ``machine``.
    timeout:
        Real-time seconds a barrier or receive waits before aborting
        (default: ``REPRO_SIMMPI_TIMEOUT`` env var, else 120).
    fault_plan:
        Deterministic fault injection plan (``None`` — the default —
        keeps every fault hook off the fast path).

    A cluster object is reusable: ``run()`` resets all shared state
    (collective groups, p2p queues, dead set, fault log), so an aborted
    run cannot poison the next one.
    """

    def __init__(self,
                 processes: int,
                 threads_per_rank: int = 1,
                 machine: Optional[MachineSpec] = None,
                 cost: Optional[CostModel] = None,
                 timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.threads_per_rank = threads_per_rank
        self.machine = machine or lonestar4()
        self.cost = cost or CostModel(machine=self.machine)
        self.placement = self.machine.placement(processes, threads_per_rank)
        self.timeout = _resolve_timeout(timeout)
        self.fault_plan = fault_plan
        self._state_lock = threading.Lock()
        self._queues_lock = threading.Lock()
        self._comms: List[SimComm] = []
        self._reset_run_state()

    # -- shared run state ------------------------------------------------

    def _reset_run_state(self) -> None:
        """Fresh collective group, queues, dead set and fault log.

        Runs lock-free by design: it is only called from ``__init__``
        and from :meth:`run` *before* the rank threads start, so no
        other thread can observe the torn state — hence the per-line
        RPR204 suppressions on the guarded fields below.
        """
        self._dead: Dict[int, bool] = {}  # guarded-by: _state_lock  # lint: ignore[RPR204] — pre-thread reset
        self._groups: Dict[int, _Group] = {  # guarded-by: _state_lock  # lint: ignore[RPR204] — pre-thread reset
            0: _Group(0, tuple(range(self.processes)), self.timeout)}
        self._latest_group = self._groups[0]
        self._queues: Dict[Tuple[int, int, int], queue.Queue] = {}  # guarded-by: _queues_lock  # lint: ignore[RPR204] — pre-thread reset
        self._fault_events: List[FaultEvent] = []  # guarded-by: _state_lock  # lint: ignore[RPR204] — pre-thread reset
        self._recoveries = 0  # guarded-by: _state_lock  # lint: ignore[RPR204] — pre-thread reset

    def dead_ranks(self) -> Tuple[int, ...]:
        """Ranks currently known dead (sorted)."""
        with self._state_lock:
            return tuple(sorted(self._dead))

    def rank_clock(self, rank: int) -> Optional[float]:
        """Best-effort read of a rank's virtual clock (diagnostics)."""
        if 0 <= rank < len(self._comms):
            return self._comms[rank]._clock
        return None

    def _mark_dead(self, rank: int) -> None:
        """Record a death and break every group barrier so survivors
        blocked in collectives learn about it promptly."""
        with self._state_lock:
            self._dead[rank] = True
            groups = list(self._groups.values())
        for g in groups:
            g.barrier.abort()

    def _record_fault(self, event: FaultEvent) -> None:
        with self._state_lock:
            self._fault_events.append(event)

    def _queue_for(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._queues_lock:
            if key not in self._queues:
                self._queues[key] = queue.Queue()
            return self._queues[key]

    # -- execution -------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any
            ) -> Tuple[List[Any], RunStats]:
        """Execute ``fn(comm, *args)`` on every rank.

        Returns the list of per-rank return values and the aggregated
        :class:`RunStats`.  Error policy, in order of precedence:

        * a non-fault exception on any rank (a programming error) is
          re-raised in the caller, in preference to the typed fault
          errors its death caused on peers;
        * a typed fault error a rank did *not* recover from
          (:class:`CollectiveAbortedError`, :class:`RecvTimeoutError`)
          is re-raised;
        * an *injected* :class:`RankCrashedError` (the plan killed that
          rank) is tolerated as long as at least one rank survived —
          dead ranks simply return ``None`` — so fault-tolerant rank
          functions can recover and still deliver results.
        """
        self._reset_run_state()
        comms = [SimComm(self, r) for r in range(self.processes)]
        self._comms = comms
        results: List[Any] = [None] * self.processes
        errors: List[Optional[BaseException]] = [None] * self.processes

        def runner(r: int) -> None:
            try:
                results[r] = fn(comms[r], *args)
            except BaseException as exc:  # lint: ignore[RPR003] — re-raised below
                errors[r] = exc
                # Mark the death and break the collective barriers so
                # peers fail fast instead of timing out.
                self._mark_dead(r)

        threads = [threading.Thread(target=runner, args=(r,),
                                    name=f"simmpi-rank{r}", daemon=True)
                   for r in range(self.processes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        self._raise_run_errors(errors)
        with self._state_lock:
            events = sorted(self._fault_events,
                            key=lambda e: (e.t, e.rank, e.kind))
            recoveries = self._recoveries
        stats = RunStats(processes=self.processes,
                         threads=self.threads_per_rank,
                         ranks=[c.stats for c in comms],
                         faults=len(events),
                         recoveries=recoveries,
                         fault_events=events)
        return results, stats

    def _raise_run_errors(self,
                          errors: List[Optional[BaseException]]) -> None:
        """Re-raise the most informative rank error (see :meth:`run`)."""
        injected = self.fault_plan is not None

        def tolerated(r: int, exc: BaseException) -> bool:
            return (injected and isinstance(exc, RankCrashedError)
                    and exc.rank == r)

        real = [e for e in errors
                if e is not None
                and not isinstance(e, (FaultError,
                                       threading.BrokenBarrierError))]
        if real:
            raise real[0]
        surfaced = [e for r, e in enumerate(errors)
                    if e is not None and not tolerated(r, e)]
        # Typed fault errors carry rank/op/clock context; a raw
        # BrokenBarrierError can only come from user code.
        surfaced.sort(key=lambda e: isinstance(
            e, threading.BrokenBarrierError))
        if surfaced:
            raise surfaced[0]
        if errors and all(e is not None for e in errors):
            raise NoSurvivorsError(sorted(range(len(errors))))
