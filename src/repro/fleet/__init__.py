"""repro.fleet — the sharded serve fleet (horizontal scale-out).

One :class:`~repro.serve.service.SolveService` is the scaling ceiling
of the serve tier; this package turns N of them into one fleet:

* :mod:`repro.fleet.ring` — consistent hashing of request *content*
  fingerprints with virtual nodes (same shards ⇒ same assignment;
  adding a shard moves only the minimal key range);
* :mod:`repro.fleet.shard` — the shard facade over a service:
  in-thread (deterministic, the chaos backend) or ``multiprocessing``
  (real GIL escape) behind ``backend="process"``, both sharing one
  disk-tier warm layer;
* :mod:`repro.fleet.router` — the front door: routing, fleet-level
  coalescing, per-shard circuit breakers, admission shedding, and
  exactly-once failover re-routing via cancel-or-deliver;
* :mod:`repro.fleet.supervisor` — heartbeat probes (injectable
  monotonic clock) driving dead/degraded verdicts into the router;
* :mod:`repro.fleet.fleet` — :class:`ShardedFleet`, the composed
  handle the CLI, chaos matrix and benchmarks use.

Fault injection comes from
:class:`~repro.faults.plan.FleetFaultPlan` (``ShardCrash`` /
``ShardStall`` / ``RouterPartition``), keyed on per-shard dispatch
sequence numbers — never wall clock — and exercised end-to-end by
``repro chaos --fleet`` (see :mod:`repro.faults.chaos` and
``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from repro.fleet.errors import FleetError, NoLiveShardsError, \
    ShardLostError
from repro.fleet.fleet import ShardedFleet
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.fleet.router import FleetStats, ShardRouter
from repro.fleet.shard import ProcessShard, STALL_ALARM_SECONDS, \
    ThreadShard
from repro.fleet.supervisor import FleetSupervisor

__all__ = [
    "FleetError",
    "NoLiveShardsError",
    "ShardLostError",
    "ShardedFleet",
    "HashRing",
    "DEFAULT_REPLICAS",
    "FleetStats",
    "ShardRouter",
    "ThreadShard",
    "ProcessShard",
    "STALL_ALARM_SECONDS",
    "FleetSupervisor",
]
