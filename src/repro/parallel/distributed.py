"""The paper's Fig. 4 distributed program, two ways.

:func:`run_fig4_simmpi` *executes* the seven steps on the simulated MPI
runtime: every rank is a thread, partial integrals really travel
through ``Allreduce``, Born-radius segments through ``Allgather`` and
partial energies through ``Reduce``.  It survives rank crashes: phase
checkpoints, shrink-based recovery after rank deaths and deterministic
redistribution of the dead rank's work — see ``docs/ROBUSTNESS.md`` and
the ``repro chaos`` harness.  Use it for correctness runs and moderate
rank counts.

:func:`simulate_fig4` *replays* a recorded :class:`WorkProfile` under a
given (P, p) layout: per-leaf task costs are partitioned node-wise,
each rank's parallel phase goes through the work-stealing simulator,
and communication is priced by the collective cost formulas.  Use it
for the core-count sweeps (Figs. 5, 6, 11) where the numerics are
provably layout-independent.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.hybrid import run_intra_rank
from repro.cluster.machine import MachineSpec, lonestar4
from repro.cluster.simmpi import SimCluster
from repro.cluster.trace import PhaseSlice, RankStats, RunStats
from repro.cluster.workstealing import WorkStealingSim
from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import (
    TraversalCounts,
    approx_integrals,
    push_integrals_to_atoms,
)
from repro.core.energy_octree import (
    approx_epol_for_leaves,
    build_charge_buckets,
)
from repro.core.gb import energy_prefactor
from repro.faults.errors import FaultError, RankCrashedError
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    MessageDelay,
    Straggler,
)
from repro.molecules.molecule import Molecule
from repro.octree.build import build_octree
from repro.parallel.partition import segment_bounds, weighted_bounds
from repro.parallel.profile import WorkProfile


@dataclass
class DistributedOutcome:
    """Result of a real simulated-MPI execution of Fig. 4."""

    energy: float
    born_radii: np.ndarray            # original atom order
    stats: RunStats


class _Checkpoint:
    """Replicated in-memory phase-checkpoint store for one run.

    Models a replicated checkpoint service: the ranks publish each
    completed phase's collective result under a name (idempotent —
    every rank publishes the identical value, the first write wins),
    and a recovering rank reads the checkpoint instead of recomputing
    the phase.  Values are copied on both ``put`` and ``get`` so rank
    threads never share mutable arrays through the store.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._store: Dict[str, Any] = {}             # guarded-by: _lock

    def put(self, name: str, value: Any) -> None:
        with self._lock:
            if name not in self._store:
                self._store[name] = _ckpt_copy(value)

    def get(self, name: str) -> Any:
        with self._lock:
            value = self._store.get(name)
        return _ckpt_copy(value) if value is not None else None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._store)


def _ckpt_copy(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.copy()
    return copy.deepcopy(value)


def _block_owners(n_items: int, parts: int) -> np.ndarray:
    """Owning rank of each item under the static even split."""
    return np.repeat(np.arange(parts),
                     np.diff(segment_bounds(n_items, parts)))


def _reassign_lost(owner: np.ndarray, newly_dead: Tuple[int, ...],
                   alive: Tuple[int, ...]) -> None:
    """Recovery policy: redistribute a dead rank's blocks.

    Every index owned by a newly-dead rank is split contiguously and
    evenly among the survivors — the same static-partition arithmetic
    (:func:`segment_bounds`) that cut the original segments, so every
    rank derives the identical reassignment independently, with no
    extra communication.
    """
    lost = np.flatnonzero(np.isin(owner, newly_dead))
    if lost.size == 0:
        return
    bounds = segment_bounds(int(lost.size), len(alive))
    for i, r in enumerate(alive):
        owner[lost[bounds[i]:bounds[i + 1]]] = r


def _contiguous_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, end)`` half-open runs of True in a boolean mask."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    ends = np.concatenate((idx[breaks], [idx[-1]])) + 1
    return list(zip(starts.tolist(), ends.tolist()))


def run_fig4_simmpi(molecule: Molecule,
                    params: ApproxParams = ApproxParams(),
                    processes: int = 4,
                    threads: int = 1,
                    machine: Optional[MachineSpec] = None,
                    cost: Optional[CostModel] = None,
                    work_division: str = "node",
                    fault_plan: Optional[FaultPlan] = None,
                    timeout: Optional[float] = None,
                    tau: float = TAU_WATER) -> DistributedOutcome:
    """Execute the seven steps of Fig. 4 on the simulated MPI runtime.

    ``work_division`` selects the Born-phase scheme: ``"node"`` divides
    the Q-leaves (the paper's choice), ``"atom"`` divides the sorted
    atoms (each rank traverses everything but only deposits for its
    range — the ablation whose error varies with P).  The energy phase
    always uses node division, as in the paper.

    Each of the three compute phases (integrals, push, energy) runs
    under a recovery loop, so the run survives the rank crashes of
    ``fault_plan``:

    * every rank works through the blocks it *owns* (Q-leaves or
      sorted atoms, atom ranges, atoms-tree leaves — the static
      partition of :mod:`repro.parallel.partition`), folding results
      into local accumulators and marking blocks *folded* so a retry
      never double-counts;
    * when a peer dies, the in-flight collective aborts with a typed
      :class:`~repro.faults.errors.CollectiveAbortedError` naming the
      dead; survivors :meth:`~repro.cluster.simmpi.SimComm.shrink` to
      a new communicator epoch and apply :func:`_reassign_lost` to
      take over the dead rank's unfolded blocks — recomputing *only*
      the lost work, charged as recovery time in the virtual cost
      model;
    * each phase's collective result is published to a replicated
      :class:`_Checkpoint` store ("integrals" after the Allreduce,
      "radii" after the Allgather), so a phase whose collective
      completed is never re-entered.

    Under node division the recovered energy matches the fault-free
    run to floating-point reordering (the chaos harness asserts 1e-9
    relative agreement).  Under atom division a Born-phase recovery
    re-cuts the dead rank's atom range, which moves the result within
    the same ε envelope that moving P does.  A rank crashed by the
    plan returns ``None``; the cluster tolerates injected deaths as
    long as one rank survives.
    """
    if work_division not in ("node", "atom"):
        raise ValueError("work_division must be 'node' or 'atom'")
    machine = machine or lonestar4()
    cost = cost or CostModel(machine=machine)

    surf = molecule.require_surface()
    atoms_tree = build_octree(molecule.positions, params.leaf_size,
                              params.max_depth)
    q_tree = build_octree(surf.points, params.leaf_size, params.max_depth)
    wn_sorted = surf.weighted_normals[q_tree.perm]
    q_sorted = molecule.charges[atoms_tree.perm]
    intrinsic_sorted = molecule.radii[atoms_tree.perm]
    natoms = molecule.natoms
    nnodes = atoms_tree.nnodes
    n_vleaves = len(atoms_tree.leaves)

    # Static partition metadata, reused verbatim by the recovery policy.
    # The Born phase owns Q-leaves under node division, sorted atoms
    # under atom division.
    atom_owner0 = _block_owners(natoms, processes)
    v_owner0 = _block_owners(n_vleaves, processes)
    born_owner0 = (atom_owner0 if work_division == "atom"
                   else _block_owners(len(q_tree.leaves), processes))

    def born_calls(todo: np.ndarray) -> List[Tuple[Any, Dict]]:
        """``(folded selector, approx_integrals subset)`` per traversal:
        one per contiguous run of owned, unfolded atoms, or one over
        every owned, unfolded Q-leaf."""
        if work_division == "atom":
            return [(slice(s, e), {"atom_range": (s, e)})
                    for s, e in _contiguous_runs(todo)]
        mine = np.flatnonzero(todo)
        return [(mine, {"q_leaf_subset": mine})] if mine.size else []

    data_bytes = (molecule.nbytes() + atoms_tree.nbytes() + q_tree.nbytes()
                  + 8 * (nnodes + 2 * natoms))

    ckpt = _Checkpoint()

    def rankfn(comm):
        # Step 1 — octrees are built (locally, identical) as
        # preprocessing; excluded from timing as in §IV-C.
        comm.charge_memory(data_bytes)
        born_owner = born_owner0.copy()
        atom_owner = atom_owner0.copy()
        v_owner = v_owner0.copy()
        owners = (born_owner, atom_owner, v_owner)
        # The V leaves one energy traversal covers: a rank's segment,
        # or the share of a dead rank's leaves it took over at an epoch.
        v_unit = v_owner0.copy()

        def on_fault(exc: FaultError) -> None:
            """Shrink to the survivors and take over the dead's blocks."""
            if isinstance(exc, RankCrashedError) and exc.rank == comm.rank:
                raise exc          # this rank *is* the casualty
            info = comm.shrink()
            if not info.newly_dead:
                raise exc          # timeout/divergence, not a death
            before = v_owner.copy()
            for owner in owners:
                _reassign_lost(owner, info.newly_dead, info.alive)
            moved = v_owner != before
            v_unit[moved] = info.epoch * processes + v_owner[moved]

        # Steps 2–3 — APPROX-INTEGRALS over this rank's share, then
        # Allreduce of everyone's partial integrals (ckpt "integrals").
        s_node_acc = np.zeros(nnodes, dtype=np.float64)
        s_atom_acc = np.zeros(natoms, dtype=np.float64)
        born_folded = np.zeros(len(born_owner), dtype=bool)
        # ``attempt`` counts per-phase retries: attempt 0 is primary
        # work (even on a shrunken communicator — redistribution is
        # just the static partition over fewer ranks); attempt > 0
        # re-executes work a dead rank lost, and only that is labelled
        # and charged as recovery.
        attempt = 0
        while True:
            packed = ckpt.get("integrals")
            if packed is not None:
                break
            try:
                for sel, subset in born_calls(
                        (born_owner == comm.rank) & ~born_folded):
                    s_node, s_atom, cnt, _ = approx_integrals(
                        atoms_tree, q_tree, wn_sorted, params, **subset)
                    comm.compute(
                        cost.born_compute_seconds(
                            cnt.frontier_visits, cnt.far_evaluations,
                            cnt.exact_interactions, params.approx_math),
                        label="born" if attempt == 0 else "born.recovery",
                        recovery=attempt > 0)
                    s_node_acc += s_node
                    s_atom_acc += s_atom
                    born_folded[sel] = True
                packed = comm.allreduce(
                    np.concatenate([s_node_acc, s_atom_acc]))
                ckpt.put("integrals", packed)
                break
            except FaultError as exc:
                on_fault(exc)
                attempt += 1
        s_node_t, s_atom_t = packed[:nnodes], packed[nnodes:]

        # Steps 4–5 — PUSH-INTEGRALS-TO-ATOMS for this rank's atom
        # segment, then Allgather of the Born radii (ckpt "radii").
        radii_acc = np.full(natoms, np.nan, dtype=np.float64)
        atom_folded = np.zeros(natoms, dtype=bool)
        attempt = 0
        while True:
            radii_full = ckpt.get("radii")
            if radii_full is not None:
                break
            try:
                todo = (atom_owner == comm.rank) & ~atom_folded
                for s, e in _contiguous_runs(todo):
                    vals = push_integrals_to_atoms(
                        atoms_tree, s_node_t, s_atom_t, intrinsic_sorted,
                        atom_range=(s, e))
                    comm.compute(
                        cost.push_compute_seconds(
                            e - s, nnodes / len(comm.alive)),
                        label="push" if attempt == 0 else "push.recovery",
                        recovery=attempt > 0)
                    radii_acc[s:e] = vals[s:e]
                    atom_folded[s:e] = True
                chunks = [(int(s), radii_acc[s:e].copy())
                          for s, e in _contiguous_runs(atom_folded)]
                parts = comm.allgather(chunks)
                flat = sorted((c for part in parts for c in part),
                              key=lambda c: c[0])
                radii_full = np.concatenate([v for _, v in flat])
                ckpt.put("radii", radii_full)
                break
            except FaultError as exc:
                on_fault(exc)
                attempt += 1

        # Steps 6–7 — partial energy over this rank's atoms-leaf
        # segment, Reduce to the master and Bcast of the result.
        buckets = build_charge_buckets(atoms_tree, q_sorted, radii_full,
                                       params.eps_epol)
        # One traversal per unit, summed in unit order: thread timing
        # decides whether a survivor folded its own segment before it
        # saw a death, and the exact blocks depend on a call's leaves.
        raw_unit: Dict[int, float] = {}
        v_folded = np.zeros(n_vleaves, dtype=bool)
        attempt = 0
        while True:
            try:
                mine = np.flatnonzero((v_owner == comm.rank) & ~v_folded)
                cnt2 = TraversalCounts()
                for unit in np.unique(v_unit[mine]):
                    raw_unit[unit], cnt, _ = approx_epol_for_leaves(
                        atoms_tree, q_sorted, radii_full, buckets, params,
                        v_leaf_subset=mine[v_unit[mine] == unit])
                    cnt2 = cnt2.merged(cnt)
                if mine.size:
                    comm.compute(
                        cost.epol_compute_seconds(
                            cnt2.frontier_visits, cnt2.far_evaluations,
                            cnt2.exact_interactions, buckets.nbuckets,
                            params.approx_math),
                        label="epol" if attempt == 0 else "epol.recovery",
                        recovery=attempt > 0)
                    v_folded[mine] = True
                total_raw = comm.reduce(
                    sum(raw_unit[u] for u in sorted(raw_unit)), root=0)
                energy = (energy_prefactor(tau) * total_raw
                          if total_raw is not None else None)
                # Master may have died: reduce/bcast fail over to the
                # lowest survivor, and every rank returns the energy.
                energy = comm.bcast(energy, root=0)
                break
            except FaultError as exc:
                on_fault(exc)
                attempt += 1
        return energy, radii_full

    cluster = SimCluster(processes, threads_per_rank=threads,
                         machine=machine, cost=cost, timeout=timeout,
                         fault_plan=fault_plan)
    results, stats = cluster.run(rankfn)
    energy, radii_sorted = next(r for r in results if r is not None)
    radii = atoms_tree.scatter_to_original(radii_sorted)
    return DistributedOutcome(energy=energy, born_radii=radii, stats=stats)


# ---------------------------------------------------------------------------
# Fast schedule replay over a WorkProfile
# ---------------------------------------------------------------------------


def _working_set_per_core(profile: WorkProfile, cores: int) -> float:
    """Heuristic per-core working set during a traversal phase.

    Each core touches its proportional slice of the point data plus the
    upper levels of both trees; the factor 3 absorbs the re-touched
    shared structure.  Feeds the cache-tier factor only.
    """
    return 3.0 * profile.data_bytes / max(1, cores)


def simulate_fig4(profile: WorkProfile,
                  processes: int,
                  threads: int = 1,
                  machine: Optional[MachineSpec] = None,
                  cost: Optional[CostModel] = None,
                  seed: int = 0,
                  noise_sigma: float = 0.02,
                  segmenting: str = "count",
                  fault_plan: Optional[FaultPlan] = None) -> RunStats:
    """Replay one (P, p) layout over a recorded :class:`WorkProfile`.

    Returns a :class:`RunStats` whose ``phases`` dictionary holds the
    virtual seconds of each Fig. 4 step; ``wall_seconds`` is the rank
    maximum.  ``seed`` drives both the work-stealing victim RNG and the
    per-rank OS-noise factors, so repeated calls model repeated cluster
    runs (the paper's 20-run min/max envelopes in Fig. 6).

    ``segmenting`` selects how leaf work is balanced across ranks:
    ``"count"`` — equal leaf counts, the paper's scheme; ``"weighted"``
    — equal modelled *cost* per contiguous segment
    (:func:`~repro.parallel.partition.weighted_bounds`); ``"stealing"``
    — cross-rank work stealing on top of the count segments (both
    "explicit load balancing" variants the paper's conclusion proposes
    as future work).

    ``fault_plan`` injects the *performance* fault classes into the
    replay — :class:`Straggler` slowdowns and collective
    :class:`MessageDelay` late entries (crashes and drops need real
    message passing; use :func:`run_fig4_simmpi` for those).
    """
    if segmenting not in ("count", "weighted", "stealing"):
        raise ValueError(
            "segmenting must be 'count', 'weighted' or 'stealing'")
    if fault_plan is not None:
        unsupported = [
            f for f in fault_plan.faults
            if not (isinstance(f, Straggler)
                    or (isinstance(f, MessageDelay) and f.op is not None))]
        if unsupported:
            raise ValueError(
                "simulate_fig4 replays support only Straggler and "
                "collective MessageDelay faults; use run_fig4_simmpi for "
                f"crashes and drops (got {unsupported[0]!r})")
    machine = machine or lonestar4()
    cost = cost or CostModel(machine=machine)
    P, p = processes, threads
    machine.placement(P, p)  # validates fit
    rpn = machine.ranks_per_node(P, p)
    rng = np.random.default_rng(seed)

    node_spec = machine.node
    cores_busy_per_node = min(rpn * p, node_spec.cores)
    per_socket = -(-cores_busy_per_node // node_spec.sockets)
    cf = cost.cache_factor(_working_set_per_core(profile, P * p),
                           cores_sharing_socket=per_socket)
    proc_bytes = profile.data_bytes
    mem_factor = cost.memory_pressure_factor(proc_bytes * rpn)
    if P == 1 and p > node_spec.cores_per_socket:
        # A lone process spanning sockets with no thread affinity
        # (cilk++ has no affinity manager — paper §V-A).
        mem_factor *= cost.numa_no_affinity_factor

    def noise() -> np.ndarray:
        return np.exp(rng.normal(0.0, noise_sigma, size=P))

    bps = profile.born_per_source
    born_leaf_sec = cost.born_compute_seconds(
        bps.visits.astype(np.float64), bps.far.astype(np.float64),
        bps.exact_interactions.astype(np.float64),
        profile.params.approx_math, cf)
    eps_src = profile.epol_per_source
    epol_leaf_sec = cost.epol_compute_seconds(
        eps_src.visits.astype(np.float64), eps_src.far.astype(np.float64),
        eps_src.exact_interactions.astype(np.float64),
        profile.nbuckets, profile.params.approx_math, cf)

    def phase_over_ranks(leaf_sec: np.ndarray, phase_seed: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        bounds = (weighted_bounds(leaf_sec, P) if segmenting == "weighted"
                  else segment_bounds(len(leaf_sec), P))
        if segmenting == "stealing":
            sim = WorkStealingSim(
                workers=p, ranks=P,
                task_overhead=cost.cilk_task_overhead,
                steal_overhead=cost.cilk_steal_overhead,
                inter_steal_overhead=(
                    cost.point_to_point_seconds(8.0, same_node=False)
                    * 2.0),
                seed=phase_seed)
            st = sim.run(leaf_sec, bounds)
            extra = (cost.hybrid_interface_overhead
                     if (p > 1 and P > 1) else 0.0)
            jitter = float(np.exp(rng.normal(0.0, noise_sigma)))
            t = (st.makespan + extra) * mem_factor * jitter
            # The simulator reports one count pooled over the ranks;
            # spread it so per-rank accounting still sums to the total.
            spread = np.full(P, st.steals // P, dtype=np.int64)
            spread[:st.steals % P] += 1
            return np.full(P, t, dtype=np.float64), spread
        times = np.empty(P, dtype=np.float64)
        steals = np.zeros(P, dtype=np.int64)
        jitter = noise()
        for r in range(P):
            seg = leaf_sec[bounds[r]:bounds[r + 1]]
            out = run_intra_rank(seg, p, cost, seed=phase_seed * 131 + r,
                                 mpi_interface=(P > 1))
            times[r] = out.seconds * mem_factor * jitter[r]
            steals[r] = out.steals
        return times, steals

    born_times, born_steals = phase_over_ranks(born_leaf_sec, seed * 7 + 1)
    epol_times, epol_steals = phase_over_ranks(epol_leaf_sec, seed * 7 + 2)

    push_each = cost.push_compute_seconds(
        profile.natoms / P, profile.atoms_nodes / P)
    if p > 1:
        push_each /= 0.9 * p
        if P > 1:
            push_each += cost.hybrid_interface_overhead
    push_times = push_each * mem_factor * noise()

    fault_events: List[FaultEvent] = []
    delay_by_op = {"allreduce": 0.0, "allgather": 0.0, "reduce": 0.0}
    delayed_srcs = {op: [] for op in delay_by_op}
    if fault_plan is not None and not fault_plan.is_empty:
        slow = np.array([fault_plan.slowdown(r) for r in range(P)],
                        dtype=np.float64)
        for r in np.flatnonzero(slow != 1.0):
            fault_events.append(FaultEvent("straggler", int(r), 0.0,
                                           f"slowdown x{slow[r]:g}"))
        born_times = born_times * slow
        push_times = push_times * slow
        epol_times = epol_times * slow
        # Fig. 4 runs each collective once, so only index-0 delays
        # apply; the latest-entering rank sets the stall everyone pays.
        for op in delay_by_op:
            for r in range(P):
                d = fault_plan.collective_delay(r, op, 0)
                if d > 0.0:
                    delayed_srcs[op].append((r, d))
            delay_by_op[op] = max(
                (d for _, d in delayed_srcs[op]), default=0.0)

    sync = cost.collective_sync_seconds(P)
    comm_allreduce = (cost.allreduce_seconds(
        profile.atoms_nodes + profile.natoms, P, p) + sync
        + delay_by_op["allreduce"])
    comm_allgather = (cost.allgather_seconds(profile.natoms / P, P, p)
                      + sync + delay_by_op["allgather"])
    comm_reduce = (cost.reduce_seconds(1.0, P, p) + sync
                   + delay_by_op["reduce"])
    comm_total = comm_allreduce + comm_allgather + comm_reduce

    phases = {
        "born": float(born_times.max()),
        "allreduce": comm_allreduce,
        "push": float(push_times.max()),
        "allgather": comm_allgather,
        "epol": float(epol_times.max()),
        "reduce": comm_reduce,
    }

    # Per-rank virtual timeline: each Fig. 4 step is one comp slice per
    # rank padded with idle to the step barrier, or one comm slice
    # (collectives synchronise, so all ranks share those intervals).
    comm_payloads = {
        "allreduce": 8 * (profile.atoms_nodes + profile.natoms),
        "allgather": int(8 * profile.natoms / P),
        "reduce": 8,
    }
    steps = (("born", born_times), ("allreduce", comm_allreduce),
             ("push", push_times), ("allgather", comm_allgather),
             ("epol", epol_times), ("reduce", comm_reduce))
    timeline: List[PhaseSlice] = []
    t_base = 0.0
    for name, dur in steps:
        if isinstance(dur, np.ndarray):
            t_end = t_base + float(dur.max())
            for r in range(P):
                t_r = t_base + float(dur[r])
                timeline.append(PhaseSlice(r, name, "comp", t_base, t_r))
                if t_end > t_r:
                    timeline.append(PhaseSlice(r, f"{name}.wait", "idle",
                                               t_r, t_end))
        else:
            t_end = t_base + float(dur)
            nbytes = comm_payloads.get(name, 0)
            for r, d in delayed_srcs.get(name, ()):
                fault_events.append(FaultEvent("delay", r, t_base,
                                               f"{name}[0] +{d:g}s"))
            for r in range(P):
                timeline.append(PhaseSlice(r, name, "comm", t_base, t_end,
                                           payload_bytes=nbytes))
        t_base = t_end

    ranks: List[RankStats] = []
    for r in range(P):
        comp = float(born_times[r] + push_times[r] + epol_times[r])
        idle = float((born_times.max() - born_times[r])
                     + (push_times.max() - push_times[r])
                     + (epol_times.max() - epol_times[r]))
        ranks.append(RankStats(rank=r, comp_seconds=comp,
                               comm_seconds=comm_total, idle_seconds=idle,
                               steals=int(born_steals[r]
                                          + epol_steals[r]),
                               memory_bytes=proc_bytes))
    fault_events.sort(key=lambda e: (e.t, e.rank, e.kind))
    return RunStats(processes=P, threads=p, ranks=ranks, phases=phases,
                    timeline=timeline, faults=len(fault_events),
                    fault_events=fault_events)
