"""Virtual-time simulated cluster of multicores.

This container has one physical core and no MPI installation, so the
paper's hardware substrate (Lonestar4: 12 nodes × 12 Westmere cores,
InfiniBand fat-tree, MVAPICH2 + cilk++) is *simulated*:

* :mod:`repro.cluster.machine` — the machine model (paper Table I);
* :mod:`repro.cluster.costmodel` — operation → seconds conversion,
  cache-tier effects, memory-pressure penalties and Grama-style
  collective communication formulas;
* :mod:`repro.cluster.simmpi` — a thread-backed simulated MPI with
  virtual per-rank clocks and real data movement;
* :mod:`repro.cluster.workstealing` — a discrete-event simulator of the
  cilk++ randomized work-stealing scheduler, inside one rank or across
  ranks (the paper's future-work inter-node stealing);
* :mod:`repro.cluster.hybrid` — P ranks × p threads composition;
* :mod:`repro.cluster.trace` — per-run statistics records.

All *numerical* results flowing through this layer are real; only the
reported wall-clock seconds are virtual.
"""

from repro.cluster.machine import MachineSpec, NodeSpec, NetworkSpec, lonestar4
from repro.cluster.costmodel import CostModel
from repro.cluster.simmpi import SimCluster, SimComm
from repro.cluster.workstealing import WorkStealingSim, StealStats
from repro.cluster.trace import PhaseSlice, RankStats, RunStats

__all__ = [
    "PhaseSlice",
    "MachineSpec",
    "NodeSpec",
    "NetworkSpec",
    "lonestar4",
    "CostModel",
    "SimCluster",
    "SimComm",
    "WorkStealingSim",
    "StealStats",
    "RankStats",
    "RunStats",
]
