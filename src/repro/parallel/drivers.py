"""Named drivers matching the paper's program list (Table II).

* ``run_oct_cilk``  — shared-memory, dual-tree algorithm of [6,7], one
  process with p cilk workers (the paper's ``OCT_CILK``).
* ``run_oct_mpi``   — pure distributed single-tree algorithm, P ranks ×
  1 thread (``OCT_MPI``).
* ``run_oct_hybrid``— distributed-shared single-tree algorithm, P ranks
  × p threads (``OCT_MPI+CILK``).

Each returns a :class:`DriverResult` with the real energy/radii and the
virtual wall time on the modelled machine.  Profiles are cached per
(molecule, params, method) so parameter sweeps pay one traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineSpec
from repro.cluster.trace import RunStats
from repro.config import ApproxParams
from repro.molecules.molecule import Molecule
from repro.obs import span
from repro.parallel.distributed import simulate_fig4
from repro.parallel.profile import WorkProfile


@dataclass
class DriverResult:
    """One named-driver run."""

    name: str
    energy: float
    born_radii: np.ndarray
    wall_seconds: float
    stats: RunStats
    profile: WorkProfile

    @property
    def memory_per_process(self) -> int:
        return self.stats.memory_per_process()


class _ProfileCache:
    """Per-(molecule id, params, method) WorkProfile cache."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, ApproxParams, str], WorkProfile] = {}

    def get(self, molecule: Molecule, params: ApproxParams,
            method: str) -> WorkProfile:
        key = (id(molecule), params, method)
        if key not in self._cache:
            self._cache[key] = WorkProfile.from_molecule(molecule, params,
                                                         method=method)
        return self._cache[key]


_profiles = _ProfileCache()


def clear_profile_cache() -> None:
    """Drop cached work profiles (used between benchmark groups)."""
    _profiles._cache.clear()


def _run(name: str, molecule: Molecule, params: ApproxParams,
         method: str, processes: int, threads: int,
         machine: Optional[MachineSpec], cost: Optional[CostModel],
         seed: int) -> DriverResult:
    profile = _profiles.get(molecule, params, method)
    with span("driver.simulate", driver=name, processes=processes,
              threads=threads):
        stats = simulate_fig4(profile, processes, threads,
                              machine=machine, cost=cost, seed=seed)
    return DriverResult(name=name, energy=profile.energy,
                        born_radii=profile.born_radii,
                        wall_seconds=stats.wall_seconds, stats=stats,
                        profile=profile)


def run_oct_cilk(molecule: Molecule,
                 params: ApproxParams = ApproxParams(),
                 threads: int = 12,
                 machine: Optional[MachineSpec] = None,
                 cost: Optional[CostModel] = None,
                 seed: int = 0) -> DriverResult:
    """Shared-memory OCT_CILK (dual-tree algorithm, 1 process)."""
    return _run("OCT_CILK", molecule, params, "dualtree", 1, threads,
                machine, cost, seed)


def run_oct_mpi(molecule: Molecule,
                params: ApproxParams = ApproxParams(),
                processes: int = 12,
                machine: Optional[MachineSpec] = None,
                cost: Optional[CostModel] = None,
                seed: int = 0) -> DriverResult:
    """Pure distributed OCT_MPI (single-tree, P ranks × 1 thread)."""
    return _run("OCT_MPI", molecule, params, "octree", processes, 1,
                machine, cost, seed)


def run_oct_hybrid(molecule: Molecule,
                   params: ApproxParams = ApproxParams(),
                   processes: int = 2,
                   threads: int = 6,
                   machine: Optional[MachineSpec] = None,
                   cost: Optional[CostModel] = None,
                   seed: int = 0) -> DriverResult:
    """Hybrid OCT_MPI+CILK (single-tree, P ranks × p threads)."""
    return _run("OCT_MPI+CILK", molecule, params, "octree", processes,
                threads, machine, cost, seed)
