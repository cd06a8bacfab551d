"""repro.faults — deterministic fault injection + fault tolerance.

Three layers (see ``docs/ROBUSTNESS.md`` for the full model):

* **Plans** (:mod:`repro.faults.plan`) — a seeded, fully reproducible
  :class:`FaultPlan` describing rank crashes, message drops/delays and
  straggler slowdowns, consulted by the simulated MPI runtime;
* **Errors** (:mod:`repro.faults.errors`) — the typed hierarchy every
  cluster fault surfaces as (:class:`RankCrashedError`,
  :class:`RecvTimeoutError`, :class:`CollectiveAbortedError`), each
  naming the ranks, operation and virtual clocks involved;
* **Chaos** (:mod:`repro.faults.chaos`) — a seeded scenario matrix
  that runs the fault-tolerant Fig. 4 solver under each fault class
  and asserts energy agreement with the fault-free run (exposed as
  ``repro chaos``).  Imported lazily (``from repro.faults import
  chaos``) because it pulls in the distributed drivers and the serve
  and fleet stacks.

The same discipline reaches the serve tier: a
:class:`ServeFaultPlan` (worker crashes, stragglers, disk faults,
cache poison — all seeded and keyed on deterministic serve-side
state) is consumed by :class:`repro.serve.service.SolveService`, and
:mod:`repro.faults.chaos` runs the ``repro chaos --serve`` scenario
matrix over it.

One level further up, a :class:`FleetFaultPlan` (``ShardCrash`` /
``ShardStall`` / ``RouterPartition``, keyed on per-shard dispatch
sequence numbers) drives the sharded fleet of
:mod:`repro.fleet`, and the same module runs the
``repro chaos --fleet`` matrix — shard deaths, stalled-shard
quarantine, live rebalancing and overload shedding, all asserting
bitwise energy parity against fault-free twins.
"""

from __future__ import annotations

from repro.faults.errors import (
    CollectiveAbortedError,
    DiskFaultError,
    FaultError,
    NoSurvivorsError,
    RankCrashedError,
    RecvTimeoutError,
    WorkerCrashedError,
)
from repro.faults.plan import (
    CachePoison,
    DataCorruption,
    DiskIOFault,
    FaultEvent,
    FaultPlan,
    FleetFaultPlan,
    MessageDelay,
    MessageDrop,
    RankCrash,
    RouterPartition,
    ServeFaultPlan,
    ShardCrash,
    ShardStall,
    SlowWorker,
    Straggler,
    WorkerCrash,
)

__all__ = [
    "FaultError",
    "RankCrashedError",
    "RecvTimeoutError",
    "CollectiveAbortedError",
    "NoSurvivorsError",
    "WorkerCrashedError",
    "DiskFaultError",
    "FaultEvent",
    "FaultPlan",
    "RankCrash",
    "MessageDrop",
    "MessageDelay",
    "Straggler",
    "DataCorruption",
    "ServeFaultPlan",
    "WorkerCrash",
    "SlowWorker",
    "DiskIOFault",
    "CachePoison",
    "FleetFaultPlan",
    "ShardCrash",
    "ShardStall",
    "RouterPartition",
]
