"""`ShardedFleet` — shards + router + supervisor in one handle.

The convenience composition the CLI (``repro serve --shards N``), the
fleet chaos matrix (:mod:`repro.faults.chaos`) and the layer ledger
build: N shards over one shared ``cache_dir`` (the disk tier is the
fleet-wide warm layer), one :class:`ShardRouter` front door, and an
optional :class:`FleetSupervisor`.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.faults.plan import FleetFaultPlan
from repro.fleet.router import FleetStats, ShardRouter
from repro.fleet.shard import ProcessShard, ThreadShard
from repro.fleet.supervisor import FleetSupervisor
from repro.guard.solver import GuardPolicy
from repro.serve.cache import DEFAULT_CACHE_BYTES
from repro.serve.request import SolveRequest
from repro.serve.resilience import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
)
from repro.serve.service import ServeStats, Ticket

__all__ = ["ShardedFleet"]

_BACKENDS = {"thread": ThreadShard, "process": ProcessShard}


class ShardedFleet:
    """N-shard serve fleet behind a single submit/drain/close surface."""

    def __init__(self, shards: int = 2, *, backend: str = "thread",
                 workers_per_shard: int = 1,
                 queue_capacity: int = 256, batch_size: int = 4,
                 cache_dir: Optional[str] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 policy: Optional[GuardPolicy] = None,
                 fault_plan: Optional[FleetFaultPlan] = None,
                 admission: Union[AdmissionPolicy, AdmissionController,
                                  None] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 replicas: Optional[int] = None,
                 max_moves: int = 3,
                 supervise: bool = False,
                 probe_interval_s: float = 0.05) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {set(_BACKENDS)}")
        self.backend = backend
        self._shard_kwargs = dict(
            workers=workers_per_shard, queue_capacity=queue_capacity,
            batch_size=batch_size, cache_dir=cache_dir,
            cache_bytes=cache_bytes, policy=policy)
        cls = _BACKENDS[backend]
        self.shards = [cls(sid, **self._shard_kwargs)
                       for sid in range(shards)]
        ring_kwargs = {} if replicas is None else {"replicas": replicas}
        self.router = ShardRouter(
            self.shards, fault_plan=fault_plan, admission=admission,
            breaker_policy=breaker_policy, max_moves=max_moves,
            **ring_kwargs)
        self.supervisor = FleetSupervisor(
            self.router, probe_interval_s=probe_interval_s)
        if supervise:
            self.supervisor.start()

    # -- the serve surface -------------------------------------------------

    def submit(self, request: SolveRequest) -> Ticket:
        return self.router.submit(request)

    def drain(self, timeout: Optional[float] = None) -> bool:
        return self.router.drain(timeout)

    def spawn_shard(self, shard_id: int) -> int:
        """Build + join a new shard (same backend/config, same shared
        disk tier); returns how many in-flight requests rebalanced
        onto it."""
        cls = _BACKENDS[self.backend]
        shard = cls(shard_id, **self._shard_kwargs)
        self.shards.append(shard)
        return self.router.add_shard(shard)

    def stats(self) -> FleetStats:
        return self.router.stats()

    def shard_stats(self) -> Dict[int, ServeStats]:
        return {s.shard_id: s.stats() for s in self.shards}

    def close(self) -> None:
        self.supervisor.close()
        self.router.close()

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
