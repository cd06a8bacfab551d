"""Chaos harness: seeded fault-scenario matrices over three tiers.

:func:`run_chaos` runs one tier's matrix and returns a
:class:`ChaosReport`:

* ``"cluster"`` — :func:`repro.parallel.distributed.run_fig4_simmpi`
  (the paper's Fig. 4 hybrid solver) under every fault class the runtime
  injects — clean baseline, a rank crash in each of the three Fig. 4
  compute phases (integrals, push, energy), a double crash, a lost
  collective fragment, a late collective entry and a straggler — plus
  two :class:`~repro.faults.plan.DataCorruption` scenarios routed
  through :class:`~repro.guard.solver.GuardedSolver` (NaN bit-rot
  caught by the sentinels, finite-but-wrong radii caught by the
  accuracy watchdog).  Each scenario must recover E_pol to a relative
  tolerance of the fault-free run (1e-9 by default; only reordered
  partial sums may differ) and be **deterministic**: two same-seed
  runs give bit-identical energies and fault/recovery counts.
* ``"serve"`` — a :class:`~repro.serve.service.SolveService` under a
  :class:`~repro.faults.plan.ServeFaultPlan`, and ``"fleet"`` — a
  :class:`~repro.fleet.fleet.ShardedFleet` (consistent-hash routing,
  shard supervision, failover re-routing) under a
  :class:`~repro.faults.plan.FleetFaultPlan`.  Each scenario must
  leave **zero stranded tickets** (pending count zero after the
  drain), keep **parity** (every energy produced under faults is
  bitwise equal, by ``float.hex``, to a fault-free single-worker
  service and, for the fleet, to a fault-free fleet twin) and be
  **deterministic** (two same-seed runs give identical JSON
  summaries, never wall-clock times).

Choreography: serve and fleet faults are keyed on deterministic state
(per-worker batch and per-shard dispatch sequence numbers, request
keys), never wall clock.  A scenario whose shape depends on which
requests are queued or outstanding when a fault fires first freezes
every worker on a *hold*: a request steered by content-hash search
onto each shard and stalled there by a
:class:`~repro.faults.plan.SlowWorker` or
:class:`~repro.faults.plan.ShardStall`.  The whole workload then
queues before any worker pops its next batch, so batch composition
and the outstanding set are pure functions of the workload, not of
submission timing.  A cancel or a hedge wakes a stalled worker at
once, so large margins on those stalls cost nothing; a serve hold
nothing cancels is paid in full once per run.

``repro chaos [--serve | --fleet]`` prints a pass table and writes the
JSON report; CI runs each tier at ``--seed 0 --quick`` and diffs the
serve and fleet reports of a bare and a ``--lock-witness`` run
byte-for-byte.  Everything derives from the seed, so a failing row
replays exactly.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import (Any, Callable, ClassVar, Dict, List, Sequence, Tuple,
                    Union)

import numpy as np

from repro.config import ApproxParams
from repro.faults.plan import (
    CachePoison,
    DataCorruption,
    DiskIOFault,
    FaultPlan,
    FleetFaultPlan,
    MessageDelay,
    MessageDrop,
    RankCrash,
    ServeFaultPlan,
    ShardCrash,
    ShardStall,
    SlowWorker,
    Straggler,
    WorkerCrash,
)
from repro.fleet.fleet import ShardedFleet
from repro.fleet.ring import HashRing
from repro.guard.solver import GuardedSolver
from repro.molecules import synthetic_protein
from repro.molecules.molecule import Molecule
from repro.parallel.distributed import DistributedOutcome, run_fig4_simmpi
from repro.serve.cache import ArtifactCache
from repro.serve.errors import ServiceOverloadedError
from repro.serve.request import SolveRequest
from repro.serve.resilience import (
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.service import SolveService, Ticket

__all__ = ["Scenario", "ScenarioResult", "ServiceResult", "ChaosReport",
           "SCENARIOS", "scenario_matrix", "run_chaos",
           "DEFAULT_TOLERANCE"]

#: Relative E_pol agreement every cluster scenario must reach vs
#: fault-free.
DEFAULT_TOLERANCE = 1e-9

#: Worker stall (seconds) freezing queue composition while a serve or
#: fleet scenario is choreographed.  Must comfortably exceed the wall
#: time of submitting a handful of requests (microseconds to
#: milliseconds).
HOLD_SECONDS = 1.0

#: Straggler stall for the hedge and stall-failover scenarios —
#: alarm-grade for the fleet (above
#: :data:`repro.fleet.shard.STALL_ALARM_SECONDS`) and interruptible,
#: so a huge margin is free.
STALL_SECONDS = 30.0

#: Molecule size per tier under ``quick`` (the CI smoke configuration).
QUICK_ATOMS = {"cluster": 120, "serve": 80, "fleet": 60}

Summary = Dict[str, Any]

#: What a serve or fleet scenario returns: the summaries of its two
#: same-seed runs, the fault-free reference energies (``float.hex`` by
#: key), its own scenario-specific verdict, and its notes.
Outcome = Tuple[Summary, Summary, List[Dict[str, str]], bool, str]


@dataclass(frozen=True)
class Scenario:
    """One named cell of the cluster chaos matrix."""

    name: str
    description: str
    plan: FaultPlan


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one cluster scenario (two same-seed runs)."""

    name: str
    description: str
    energy: float
    rel_err: float
    deterministic: bool
    faults: int
    recoveries: int
    recovery_seconds: float
    wall_seconds: float
    passed: bool

    columns: ClassVar[Tuple[str, ...]] = (
        "scenario", "faults", "recoveries", "recovery (s)", "rel. error",
        "determ.", "status")

    def row(self) -> Tuple[Any, ...]:
        return (self.name, self.faults, self.recoveries,
                f"{self.recovery_seconds:.4f}", f"{self.rel_err:.2e}",
                "yes" if self.deterministic else "NO",
                "PASS" if self.passed else "FAIL")


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one serve or fleet scenario (two same-seed runs plus
    the fault-free references)."""

    name: str
    description: str
    stranded: int
    pending: int
    parity: bool
    deterministic: bool
    summary: Summary
    notes: str
    passed: bool

    columns: ClassVar[Tuple[str, ...]] = (
        "scenario", "stranded", "parity", "determ.", "notes", "status")

    def row(self) -> Tuple[Any, ...]:
        return (self.name, self.stranded,
                "yes" if self.parity else "NO",
                "yes" if self.deterministic else "NO",
                self.notes, "PASS" if self.passed else "FAIL")


@dataclass
class ChaosReport:
    """Matrix results plus everything needed to reproduce them.

    ``header`` holds the run's parameters.  The serve and fleet
    reports are wall-clock-free by construction: two same-seed runs of
    those matrices serialize byte-identically.
    """

    title: str
    header: Dict[str, Any]
    results: List[Union[ScenarioResult, ServiceResult]]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> str:
        from repro.analysis.tables import Table
        t = Table(self.results[0].columns, title=self.title)
        for r in self.results:
            t.add_row(*r.row())
        return t.render()

    def to_json(self, indent: int = 2) -> str:
        doc = dict(self.header, all_passed=self.all_passed,
                   scenarios=[asdict(r) for r in self.results])
        return json.dumps(doc, indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# cluster tier
# ---------------------------------------------------------------------------


def scenario_matrix(seed: int, processes: int = 4) -> List[Scenario]:
    """The seeded cluster scenario matrix (11 scenarios, every fault
    class).

    All randomness — which rank crashes, where in the phase, delay
    magnitudes, straggler factors — derives from ``seed``, so the
    matrix is a pure function of ``(seed, processes)``.
    """
    if processes < 3:
        raise ValueError("the chaos matrix needs at least 3 ranks")
    rng = np.random.default_rng(seed)

    def victim() -> int:
        # Any rank may die — including rank 0 (master failover).
        return int(rng.integers(0, processes))

    def frac() -> float:
        return float(rng.uniform(0.1, 0.9))

    crash_born = RankCrash(victim(), phase="born", after_fraction=frac())
    crash_push = RankCrash(victim(), phase="push", after_fraction=frac())
    crash_epol = RankCrash(victim(), phase="epol", after_fraction=frac())
    first = int(rng.integers(0, processes))
    second = (first + 1 + int(rng.integers(0, processes - 1))) % processes
    delay_s = float(rng.uniform(1e-3, 5e-2))
    factor = float(rng.uniform(1.5, 4.0))
    return [
        Scenario("clean", "no faults (baseline)", FaultPlan(seed=seed)),
        Scenario("crash-born", "rank crash during the integral phase",
                 FaultPlan([crash_born], seed=seed)),
        Scenario("crash-push", "rank crash during the Born-radii push",
                 FaultPlan([crash_push], seed=seed)),
        Scenario("crash-epol", "rank crash during the energy phase",
                 FaultPlan([crash_epol], seed=seed)),
        Scenario("crash-double", "two ranks die in different phases",
                 FaultPlan([RankCrash(first, phase="born",
                                      after_fraction=frac()),
                            RankCrash(second, phase="epol",
                                      after_fraction=frac())], seed=seed)),
        Scenario("drop-collective", "lost Allreduce fragment "
                                    "(retransmitted)",
                 FaultPlan([MessageDrop(src=victim(), op="allreduce")],
                           seed=seed)),
        Scenario("delay-collective", "late entry into the Allgather",
                 FaultPlan([MessageDelay(src=victim(), seconds=delay_s,
                                         op="allgather")], seed=seed)),
        Scenario("straggler", "one rank computes slower by a factor",
                 FaultPlan([Straggler(victim(), factor=factor)],
                           seed=seed)),
        Scenario("crash+straggler", "combined: crash under a straggler",
                 FaultPlan([RankCrash(victim(), phase="born",
                                      after_fraction=frac()),
                            Straggler(victim(), factor=factor)],
                           seed=seed)),
        # Data-corruption rows run through GuardedSolver, not the
        # cluster runtime: transient faults the degradation ladder's
        # retry rung must clear bitwise.
        Scenario("corrupt-nan", "NaN bit-rot in the Born radii "
                                "(sentinel catches, retry clears)",
                 FaultPlan([DataCorruption("born.radii", kind="nan",
                                           fraction=0.1)], seed=seed)),
        Scenario("corrupt-scale", "finite-but-wrong Born radii "
                                  "(watchdog catches, retry clears)",
                 FaultPlan([DataCorruption("born.radii", kind="scale",
                                           fraction=0.25, factor=8.0)],
                           seed=seed)),
    ]


def _run_scenario(scenario: Scenario, molecule: Molecule,
                  params: ApproxParams, processes: int,
                  ref: DistributedOutcome, tolerance: float
                  ) -> ScenarioResult:
    """Run one cluster scenario twice.

    Fault rows run the Fig. 4 executor against the fault-free run
    ``ref``.  Corruption rows run :class:`GuardedSolver` instead, which
    must detect, degrade and land on the clean answer (transient
    faults → the retry rung is bitwise); a silent pass-through fails.
    """
    guarded = scenario.plan.has_corruptions
    if guarded:
        ref = GuardedSolver(molecule, params).report()

    def once() -> Tuple[Any, Tuple[Any, ...], Tuple[Any, ...]]:
        # (outcome, determinism signature, counts and timings)
        t0 = time.perf_counter()
        if guarded:
            g = GuardedSolver(molecule, params, fault_plan=scenario.plan)
            r = g.report()
            return (r, (r.energy, r.rung, [e.action for e in g.events]),
                    (g.injected_faults, g.degradations, 0.0,
                     time.perf_counter() - t0))
        out = run_fig4_simmpi(molecule, params, processes=processes,
                              fault_plan=scenario.plan)
        st = out.stats
        return (out, (out.energy, st.faults, st.recoveries),
                (st.faults, st.recoveries, st.recovery_seconds(),
                 st.wall_seconds))

    (first, signature, counts), (_, signature2, _) = once(), once()
    faults, recoveries, recovery_seconds, wall_seconds = counts
    deterministic = signature == signature2
    rel_err = abs(first.energy - ref.energy) / abs(ref.energy)
    radii_ok = bool(np.allclose(first.born_radii, ref.born_radii,
                                rtol=tolerance, atol=0.0))
    return ScenarioResult(
        name=scenario.name, description=scenario.description,
        energy=first.energy, rel_err=rel_err,
        deterministic=deterministic, faults=faults,
        recoveries=recoveries, recovery_seconds=recovery_seconds,
        wall_seconds=wall_seconds,
        passed=(rel_err <= tolerance and radii_ok and deterministic
                and (recoveries > 0 or not guarded)))


# ---------------------------------------------------------------------------
# serve and fleet tiers: workload, summary and reference helpers
# ---------------------------------------------------------------------------


def _requests(prefix: str, count: int, seed: int,
              natoms: int) -> List[SolveRequest]:
    """``count`` distinct-molecule requests with deterministic keys."""
    return [SolveRequest(molecule=synthetic_protein(natoms,
                                                    seed=seed + 101 * i),
                         idempotency_key=f"{prefix}-{i}")
            for i in range(count)]


def _holds(shards: int, seed: int, natoms: int) -> List[SolveRequest]:
    """One hold request per shard ``0..shards-1``, in shard order,
    steered by content-hash search.

    Routing hashes the molecule fingerprint, so steering a request
    onto shard ``s`` means searching molecule seeds until one lands
    there — a pure, deterministic search (a handful of candidates per
    shard on average).  A single service is shard ``0`` of one.
    """
    ring = HashRing(range(shards))
    out: Dict[int, SolveRequest] = {}
    j = 0
    while len(out) < shards:
        req = SolveRequest(
            molecule=synthetic_protein(natoms, seed=seed + 7919 + j),
            idempotency_key=f"hold-{j}")
        out.setdefault(ring.route(req.route_key()), req)
        j += 1
    return [out[s] for s in range(shards)]


def _route_counts(shard_ids: Sequence[int],
                  ordered: Sequence[SolveRequest]) -> Dict[int, int]:
    """Fault-free dispatch counts per shard for an ordered workload —
    the pure precomputation crash sequence numbers are chosen from."""
    ring = HashRing(shard_ids)
    counts = {sid: 0 for sid in shard_ids}
    for req in ordered:
        counts[ring.route(req.route_key())] += 1
    return counts


def _submit_all(target: Union[SolveService, ShardedFleet],
                requests: Sequence[SolveRequest],
                tickets: List[Ticket]) -> Tuple[int, bool]:
    """Submit ``requests`` in order, appending each admitted ticket to
    ``tickets``; returns the shed count and whether every shed carried
    a retry-after hint at or past the depth limit."""
    shed, hints_ok = 0, True
    for r in requests:
        try:
            tickets.append(target.submit(r))
        except ServiceOverloadedError as exc:
            shed += 1
            hints_ok = hints_ok and exc.retry_after_s > 0 \
                and exc.depth >= exc.limit
    return shed, hints_ok


def _counters(stats: object, *names: str) -> Dict[str, Any]:
    return {name: getattr(stats, name) for name in names}


def _all_ok(summary: Summary) -> bool:
    return all(r["status"] == "ok" for r in summary["results"].values())


def _collect(target: Union[SolveService, ShardedFleet],
             tickets: Sequence[Ticket]) -> Summary:
    """Drain, summarize and close — deterministic fields only.

    ``stranded`` and ``pending`` are read after the drain and *before*
    ``close()``, which resolves whatever is left and so would hide a
    ticket the drain missed.
    """
    fleet = isinstance(target, ShardedFleet)
    summary: Summary = {"drained": target.drain(timeout=120.0)}
    summary["stranded"] = sum(0 if t.done() else 1 for t in tickets)
    if fleet:
        summary["pending"] = target.router.outstanding
        stats = target.stats()
        summary["fleet"] = dict(
            _counters(stats, "submitted", "rerouted", "rebalance_moves",
                      "shed", "dead", "degraded", "shards_live"),
            dispatches={str(k): v
                        for k, v in sorted(stats.dispatches.items())})
    else:
        summary["pending"] = target.pending
    target.close()
    results: Dict[str, Dict[str, Any]] = {}
    for t in tickets:
        if not t.done():
            continue
        r = t.result(timeout=0.0)
        row = {"status": r.status,
               "energy_hex": (float(r.energy).hex()
                              if r.energy is not None else None)}
        if fleet:
            row["shard"] = r.shard
        else:
            row.update(attempt=r.attempt, degraded=r.degradations > 0)
        results[t.key] = row
    summary["results"] = results
    return summary


def _reference(requests: Sequence[SolveRequest],
               shards: int = 0) -> Dict[str, str]:
    """Fault-free reference energy (``float.hex``) per key: from a
    single-worker :class:`SolveService` (the single-shard baseline),
    or with ``shards`` from a fault-free fleet twin."""
    if shards:
        target: Union[SolveService, ShardedFleet] = ShardedFleet(
            shards=shards, queue_capacity=max(16, 2 * len(requests)))
    else:
        target = SolveService(workers=1, batch_size=4,
                              queue_capacity=max(8, 2 * len(requests)))
    summary = _collect(target, [target.submit(r) for r in requests])
    return {key: row["energy_hex"]
            for key, row in summary["results"].items()
            if row["energy_hex"] is not None}


def _verdict(name: str, description: str,
             outcome: Outcome) -> ServiceResult:
    """Parity and the shared pass rule.  Every faulted-run energy must
    bitwise match every reference; a key missing from a reference is
    a mismatch."""
    summary, summary2, refs, ok, notes = outcome
    parity = True
    for key, row in summary["results"].items():
        e = row["energy_hex"]
        if e is not None and any(ref.get(key) != e for ref in refs):
            parity = False
            notes += f"; energy mismatch for {key}"
            break
    deterministic = summary == summary2
    stranded, pending = summary["stranded"], summary["pending"]
    passed = (bool(summary["drained"]) and stranded == 0
              and pending == 0 and parity and deterministic and ok)
    return ServiceResult(
        name=name, description=description, stranded=stranded,
        pending=pending, parity=parity, deterministic=deterministic,
        summary=summary, notes=notes, passed=passed)


# ---------------------------------------------------------------------------
# serve scenarios
# ---------------------------------------------------------------------------


def _serve_clean(seed: int, natoms: int, tmpdir: str,
                 workers: int) -> Outcome:
    """Baseline — every resilience knob armed, empty fault plan: the
    machinery must not perturb a healthy run."""
    reqs = _requests("clean", 4, seed, natoms)

    def once() -> Summary:
        svc = SolveService(
            workers=workers, batch_size=2, queue_capacity=16,
            fault_plan=ServeFaultPlan(seed=seed),
            retry=RetryPolicy(seed=seed),
            admission=AdmissionPolicy(max_queue_depth=1000),
            breaker=CircuitBreaker(BreakerPolicy()))
        summary = _collect(svc, [svc.submit(r) for r in reqs])
        summary["counters"] = _counters(
            svc.stats(), "worker_crashes", "retries", "hedges", "shed")
        return summary

    s1, s2 = once(), once()
    ok = (_all_ok(s1)
          and s1["counters"] == {"worker_crashes": 0, "retries": 0,
                                 "hedges": 0, "shed": 0})
    return s1, s2, [_reference(reqs)], ok, "no-op machinery"


def _serve_crash(seed: int, natoms: int, tmpdir: str, workers: int,
                 double: bool = False) -> Outcome:
    """Worker crash mid-batch (and optionally a second crash on the
    replacement): in-flight jobs requeued exactly once, all ok."""
    prefix = "crash2" if double else "crash"
    reqs = _requests(prefix, 4, seed, natoms)
    [hold] = _holds(1, seed, natoms)
    faults: List[object] = [
        SlowWorker(seconds=HOLD_SECONDS, key_prefix="hold-"),
        # Batch 0 is the hold request alone; the crash takes batch 1
        # after its first job completes.
        WorkerCrash(worker=0, batch_seq=1, after_jobs=1),
    ]
    if double:
        # The replacement (worker id 1) dies on *its* first batch too.
        faults.append(WorkerCrash(worker=1, batch_seq=0, after_jobs=1))
    plan = ServeFaultPlan(faults, seed=seed)

    def once() -> Summary:
        svc = SolveService(workers=1, batch_size=2, queue_capacity=16,
                           fault_plan=plan)
        t0 = svc.submit(hold)
        # The worker has popped the hold batch once the heap is empty;
        # it now stalls HOLD_SECONDS while the real workload queues.
        svc._queue.wait_empty(timeout=30.0)
        tickets = [t0] + [svc.submit(r) for r in reqs]
        summary = _collect(svc, tickets)
        summary["counters"] = _counters(
            svc.stats(), "worker_crashes", "worker_restarts", "requeued",
            "failed")
        return summary

    s1, s2 = once(), once()
    crashes = 2 if double else 1
    ok = (s1["counters"] == {"worker_crashes": crashes,
                             "worker_restarts": crashes,
                             "requeued": crashes, "failed": 0}
          and _all_ok(s1))
    notes = (f"{crashes} crash(es), {s1['counters']['requeued']} "
             f"requeued once")
    return s1, s2, [_reference([hold] + reqs)], ok, notes


def _serve_hedge(seed: int, natoms: int, tmpdir: str,
                 workers: int) -> Outcome:
    """A straggling first attempt is hedged; the hedge wins bitwise
    and the straggler is cancelled at its next checkpoint."""
    reqs = _requests("hedge-slow", 1, seed, natoms)
    plan = ServeFaultPlan(
        [SlowWorker(seconds=STALL_SECONDS, key_prefix="hedge-slow",
                    attempt=1)], seed=seed)

    def once() -> Summary:
        svc = SolveService(
            workers=2, batch_size=1, queue_capacity=8,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, seed=seed,
                              hedge_after_s=0.25))
        summary = _collect(svc, [svc.submit(r) for r in reqs])
        summary["counters"] = _counters(
            svc.stats(), "hedges", "hedge_wins", "hedge_cancelled")
        return summary

    s1, s2 = once(), once()
    row = s1["results"].get("hedge-slow-0", {})
    ok = (s1["counters"] == {"hedges": 1, "hedge_wins": 1,
                             "hedge_cancelled": 1}
          and row.get("status") == "ok" and row.get("attempt") == 2)
    return s1, s2, [_reference(reqs)], ok, "hedge won on attempt 2"


def _serve_disk_storm(seed: int, natoms: int, tmpdir: str,
                      workers: int) -> Outcome:
    """Every disk op fails: the breaker opens after ``min_samples``
    errors and the service degrades to memory-only caching."""
    reqs = _requests("disk", 5, seed, natoms)
    plan = ServeFaultPlan([DiskIOFault(op="*", index=0, count=None)],
                          seed=seed)
    pol = BreakerPolicy(window=4, failure_threshold=1.0, min_samples=4,
                        open_seconds=600.0, half_open_probes=1)

    def once(run: int) -> Summary:
        breaker = CircuitBreaker(pol)
        cache = ArtifactCache(disk_dir=f"{tmpdir}/run{run}",
                              breaker=breaker, fault_plan=plan)
        svc = SolveService(workers=1, batch_size=2, queue_capacity=16,
                           cache=cache, fault_plan=plan)
        summary = _collect(svc, [svc.submit(r) for r in reqs])
        cs = cache.stats()
        summary["counters"] = {"disk_errors": cs.disk_errors,
                               "disk_writes": cs.disk_writes,
                               "breaker_opens": breaker.open_count,
                               "breaker_state": breaker.state,
                               "shorted": breaker.short_circuited > 0}
        return summary

    s1, s2 = once(1), once(2)
    ok = (s1["counters"]["disk_errors"] == pol.min_samples
          and s1["counters"]["disk_writes"] == 0
          and s1["counters"]["breaker_opens"] == 1
          and s1["counters"]["breaker_state"] == "open"
          and s1["counters"]["shorted"]
          and _all_ok(s1))
    return s1, s2, [_reference(reqs)], ok, (f"breaker open after "
                                            f"{pol.min_samples} errors")


def _serve_poison(seed: int, natoms: int, tmpdir: str,
                  workers: int) -> Outcome:
    """A poisoned warm Born-radii hit: the guard watchdog catches the
    corruption, degrades, and recomputes the clean energy bitwise."""
    mol = synthetic_protein(natoms, seed=seed + 31)
    cold = SolveRequest(molecule=mol, idempotency_key="poison-a")
    # Same geometry, different eps_epol: the born layer stays warm (it
    # excludes eps_epol), the epol layer misses — the classic
    # warm-start path the poison targets.
    warm = SolveRequest(molecule=mol,
                        params=ApproxParams(eps_epol=1e-7),
                        idempotency_key="poison-b")
    plan = ServeFaultPlan(
        [CachePoison(layer="born", kind="scale", fraction=0.25,
                     factor=8.0, occurrence=0)], seed=seed)

    def once() -> Summary:
        svc = SolveService(workers=1, batch_size=1, queue_capacity=8,
                           fault_plan=plan)
        t_cold = svc.submit(cold)
        t_cold.result(timeout=60.0)  # fills the born layer first
        t_warm = svc.submit(warm)
        return _collect(svc, [t_cold, t_warm])

    s1, s2 = once(), once()
    row = s1["results"].get("poison-b", {})
    ok = (row.get("status") == "degraded" and row.get("degraded")
          and s1["results"].get("poison-a", {}).get("status") == "ok")
    return (s1, s2, [_reference([cold, warm])], ok,
            "watchdog caught poisoned warm radii")


def _serve_shed(seed: int, natoms: int, tmpdir: str,
                workers: int) -> Outcome:
    """Admission control sheds the overload with typed errors carrying
    a retry-after hint, ahead of hard queue backpressure."""
    reqs = _requests("shed", 8, seed, natoms)
    [hold] = _holds(1, seed, natoms)
    plan = ServeFaultPlan(
        [SlowWorker(seconds=HOLD_SECONDS, key_prefix="hold-")],
        seed=seed)

    def once() -> Summary:
        svc = SolveService(workers=1, batch_size=2, queue_capacity=32,
                           fault_plan=plan,
                           admission=AdmissionPolicy(max_queue_depth=3))
        tickets = [svc.submit(hold)]
        svc._queue.wait_empty(timeout=30.0)
        shed, hints_ok = _submit_all(svc, reqs, tickets)
        summary = _collect(svc, tickets)
        summary["counters"] = {"shed": shed,
                               "stats_shed": svc.stats().shed,
                               "hints_ok": hints_ok}
        return summary

    s1, s2 = once(), once()
    # Depth seen by request i is i (single held worker): 0,1,2 admit,
    # 3..7 shed — deterministically 5.
    ok = (s1["counters"]["shed"] == 5
          and s1["counters"]["stats_shed"] == 5
          and s1["counters"]["hints_ok"]
          and _all_ok(s1))
    return (s1, s2, [_reference([hold] + reqs)], ok,
            "5 of 8 shed with retry-after hints")


# ---------------------------------------------------------------------------
# fleet scenarios
# ---------------------------------------------------------------------------


def _fleet_clean(seed: int, natoms: int, tmpdir: str,
                 workers: int) -> Outcome:
    """Baseline — breakers and an (ample) admission limit armed, empty
    fault plan: the fleet machinery must not perturb a healthy run."""
    reqs = _requests("clean", 6, seed, natoms)

    def once(run: int) -> Summary:
        fleet = ShardedFleet(
            shards=2, cache_dir=f"{tmpdir}/clean{run}",
            fault_plan=FleetFaultPlan(seed=seed),
            breaker_policy=BreakerPolicy(),
            admission=AdmissionPolicy(max_queue_depth=1000))
        return _collect(fleet, [fleet.submit(r) for r in reqs])

    s1, s2 = once(1), once(2)
    ok = (_all_ok(s1)
          and s1["fleet"]["rerouted"] == 0
          and s1["fleet"]["dead"] == []
          and s1["fleet"]["shed"] == 0)
    refs = [_reference(reqs, 2), _reference(reqs)]
    return s1, s2, refs, ok, "no-op machinery"


def _fleet_kill(seed: int, natoms: int, tmpdir: str,
                workers: int) -> Outcome:
    """Kill the busiest shard just before its last dispatch: every
    outstanding request re-routes exactly once and lands bitwise."""
    reqs = _requests("kill", 8, seed, natoms)
    ordered = _holds(2, seed, natoms) + reqs
    counts = _route_counts([0, 1], ordered)
    victim = max(counts, key=lambda s: (counts[s], -s))
    # Fires just before the victim's final dispatch: outstanding =
    # everything dispatched to it so far (all frozen by the holds).
    plan = FleetFaultPlan(
        [ShardStall(0, HOLD_SECONDS, 0), ShardStall(1, HOLD_SECONDS, 0),
         ShardCrash(victim, counts[victim] - 1)], seed=seed)
    expected_moves = counts[victim] - 1

    def once(run: int) -> Summary:
        fleet = ShardedFleet(shards=2, fault_plan=plan,
                             cache_dir=f"{tmpdir}/kill{run}")
        return _collect(fleet, [fleet.submit(r) for r in ordered])

    s1, s2 = once(1), once(2)
    ok = (_all_ok(s1)
          and s1["fleet"]["dead"] == [victim]
          and s1["fleet"]["rerouted"] == expected_moves
          and all(r["shard"] != victim
                  for r in s1["results"].values()))
    notes = (f"shard {victim} killed; {expected_moves} re-routed "
             f"exactly once")
    return s1, s2, [_reference(ordered, 2), _reference(ordered)], ok, notes


def _fleet_kill_two(seed: int, natoms: int, tmpdir: str,
                    workers: int) -> Outcome:
    """Two of four shards die; work re-routes across both deaths
    (some requests move twice) and still lands bitwise."""
    shard_ids = [0, 1, 2, 3]
    reqs = _requests("kill2", 12, seed, natoms)
    ordered = _holds(len(shard_ids), seed, natoms) + reqs
    counts = _route_counts(shard_ids, ordered)
    by_load = sorted(shard_ids, key=lambda s: (-counts[s], s))
    a, b = by_load[0], by_load[1]
    # Consistent hashing keeps b's fault-free traffic on b after a
    # dies, so b's dispatch counter still passes counts[b]-1 and the
    # second crash is guaranteed to fire.
    plan = FleetFaultPlan(
        [ShardStall(s, HOLD_SECONDS, 0) for s in shard_ids]
        + [ShardCrash(a, counts[a] - 1), ShardCrash(b, counts[b] - 1)],
        seed=seed)

    def once(run: int) -> Summary:
        fleet = ShardedFleet(shards=4, fault_plan=plan,
                             cache_dir=f"{tmpdir}/kill2{run}")
        return _collect(fleet, [fleet.submit(r) for r in ordered])

    s1, s2 = once(1), once(2)
    survivors = [s for s in shard_ids if s not in (a, b)]
    ok = (_all_ok(s1)
          and s1["fleet"]["dead"] == sorted((a, b))
          and s1["fleet"]["rerouted"] >= counts[a] + counts[b] - 2
          and all(r["shard"] in survivors
                  for r in s1["results"].values()))
    notes = (f"shards {sorted((a, b))} killed; "
             f"{s1['fleet']['rerouted']} re-routes incl. double moves")
    return s1, s2, [_reference(ordered, 4), _reference(ordered)], ok, notes


def _fleet_stall_failover(seed: int, natoms: int, tmpdir: str,
                          workers: int) -> Outcome:
    """An alarm-grade straggler parks one shard; a supervisor probe
    marks it degraded and quarantines it — the cancel wakes the
    stalled worker, the work re-routes, the shard stays alive."""
    reqs = _requests("stall", 8, seed, natoms)
    stalled = HashRing([0, 1]).route(reqs[0].route_key())
    healthy = 1 - stalled
    counts = _route_counts([0, 1], reqs)
    plan = FleetFaultPlan([ShardStall(stalled, STALL_SECONDS, 0)],
                          seed=seed)

    def once(run: int) -> Summary:
        fleet = ShardedFleet(shards=2, fault_plan=plan,
                             cache_dir=f"{tmpdir}/stall{run}")
        tickets = [fleet.submit(r) for r in reqs]
        verdicts = fleet.supervisor.probe()
        # Read before _collect closes the fleet: a closed shard never
        # answers a ping.
        alive = fleet.shards[stalled].ping()
        summary = _collect(fleet, tickets)
        summary["verdicts"] = {str(k): v
                               for k, v in sorted(verdicts.items())}
        summary["stalled_alive"] = alive
        return summary

    s1, s2 = once(1), once(2)
    ok = (_all_ok(s1)
          and s1["verdicts"][str(stalled)] == "degraded"
          and s1["fleet"]["degraded"] == [stalled]
          and s1["fleet"]["dead"] == []
          and s1["fleet"]["rerouted"] == counts[stalled]
          and s1["stalled_alive"]
          and all(r["shard"] == healthy
                  for r in s1["results"].values()))
    notes = (f"shard {stalled} quarantined; {counts[stalled]} "
             f"re-routed; shard stayed alive")
    return s1, s2, [_reference(reqs, 2), _reference(reqs)], ok, notes


def _fleet_rebalance(seed: int, natoms: int, tmpdir: str,
                     workers: int) -> Outcome:
    """A shard joins mid-load: only keys the new ring assigns to the
    newcomer move (consistent-hashing minimality), revoked from their
    old shard and re-dispatched without losing a ticket."""
    first = _requests("reb", 6, seed, natoms)
    second = _requests("reb2", 6, seed, natoms)
    ordered = _holds(2, seed, natoms) + first
    # Minimality, precomputed: of the entries in flight at join time,
    # exactly those whose 3-ring owner is the newcomer move.
    ring2, ring3 = HashRing([0, 1]), HashRing([0, 1, 2])
    expected_moved = sorted(
        r.key() for r in ordered
        if ring2.route(r.route_key()) != ring3.route(r.route_key()))
    assert all(ring3.route(r.route_key()) == 2 for r in ordered
               if r.key() in expected_moved)
    plan = FleetFaultPlan(
        [ShardStall(0, HOLD_SECONDS, 0), ShardStall(1, HOLD_SECONDS, 0)],
        seed=seed)

    def once(run: int) -> Summary:
        fleet = ShardedFleet(shards=2, fault_plan=plan,
                             cache_dir=f"{tmpdir}/reb{run}")
        tickets = [fleet.submit(r) for r in ordered]
        moves = fleet.spawn_shard(2)
        tickets += [fleet.submit(r) for r in second]
        summary = _collect(fleet, tickets)
        summary["moves"] = moves
        return summary

    s1, s2 = once(1), once(2)
    in_flight_keys = {r.key() for r in ordered}
    moved_rows = sorted(k for k, r in s1["results"].items()
                        if r["shard"] == 2 and k in in_flight_keys)
    ok = (_all_ok(s1)
          and s1["moves"] == len(expected_moved)
          and s1["fleet"]["rebalance_moves"] == len(expected_moved)
          and moved_rows == expected_moved)
    notes = (f"{len(expected_moved)} of {len(ordered)} in-flight keys "
             f"moved, all to the new shard")
    everything = ordered + second
    return (s1, s2, [_reference(everything, 2), _reference(everything)],
            ok, notes)


def _fleet_shed(seed: int, natoms: int, tmpdir: str,
                workers: int) -> Outcome:
    """Fleet-level admission sheds the overload with typed retry-after
    errors while both shards are frozen; admitted work still lands
    bitwise once the holds lift."""
    reqs = _requests("shed", 12, seed, natoms)
    holds = _holds(2, seed, natoms)
    plan = FleetFaultPlan(
        [ShardStall(0, HOLD_SECONDS, 0), ShardStall(1, HOLD_SECONDS, 0)],
        seed=seed)
    limit = 6

    def once(run: int) -> Summary:
        fleet = ShardedFleet(
            shards=2, fault_plan=plan,
            cache_dir=f"{tmpdir}/shed{run}",
            admission=AdmissionPolicy(max_queue_depth=limit))
        tickets = [fleet.submit(h) for h in holds]
        shed, hints_ok = _submit_all(fleet, reqs, tickets)
        summary = _collect(fleet, tickets)
        summary["shed_seen"] = shed
        summary["hints_ok"] = hints_ok
        return summary

    s1, s2 = once(1), once(2)
    # Outstanding entries at the i-th request submit (0-based) is
    # 2 + i with both shards frozen: 0..3 admit, 4..11 shed — 8.
    expected_shed = len(reqs) - (limit - len(holds))
    ok = (_all_ok(s1)
          and s1["shed_seen"] == expected_shed
          and s1["fleet"]["shed"] == expected_shed
          and s1["hints_ok"])
    admitted = holds + reqs[:limit - len(holds)]
    notes = (f"{expected_shed} of {len(reqs)} shed with retry-after "
             f"hints")
    return s1, s2, [_reference(admitted, 2), _reference(admitted)], ok, notes


# ---------------------------------------------------------------------------
# the matrices
# ---------------------------------------------------------------------------

#: The serve and fleet matrices in run order: name → (description,
#: scenario function).  A scenario function takes ``(seed, natoms,
#: tmpdir, workers)``: ``tmpdir`` hosts per-run disk tiers, ``workers``
#: sizes the serve clean baseline (fault scenarios pin their own pool
#: sizes, because supervision and hedging shapes require it).
SCENARIOS: Dict[str, Dict[str, Tuple[str, Callable[..., Outcome]]]] = {
    "serve": {
        "clean": ("no faults; resilience machinery armed but idle",
                  _serve_clean),
        "crash-mid-batch": ("worker dies mid-batch; in-flight jobs "
                            "requeued exactly once; replacement spawned",
                            _serve_crash),
        "crash-double": ("the replacement worker dies too; distinct "
                         "jobs each requeued exactly once",
                         partial(_serve_crash, double=True)),
        "straggler-hedge": ("straggling attempt hedged; first "
                            "completed wins, loser cancelled",
                            _serve_hedge),
        "disk-storm": ("every disk op fails; breaker opens; service "
                       "degrades to memory-only caching",
                       _serve_disk_storm),
        "cache-poison": ("poisoned warm cache hit caught by the guard "
                         "watchdog; degraded recompute is bitwise clean",
                         _serve_poison),
        "overload-shed": ("SLO breach sheds load with typed "
                          "retry-after errors ahead of hard backpressure",
                          _serve_shed),
    },
    "fleet": {
        "clean": ("no faults; breakers + admission armed but idle",
                  _fleet_clean),
        "kill-shard-mid-batch": ("busiest shard dies mid-batch; "
                                 "outstanding work re-routes exactly "
                                 "once, energies bitwise",
                                 _fleet_kill),
        "kill-two": ("two of four shards die; double-moved requests "
                     "still land bitwise on the survivors",
                     _fleet_kill_two),
        "stall-failover": ("supervisor probe quarantines a stalled "
                           "shard; cancel wakes it; work re-routes, "
                           "shard stays alive",
                           _fleet_stall_failover),
        "rebalance-under-load": ("a shard joins mid-load; only the "
                                 "minimal key range moves, all of it to "
                                 "the newcomer",
                                 _fleet_rebalance),
        "overload-shed": ("fleet admission sheds load with typed "
                          "retry-after errors while every shard is busy",
                          _fleet_shed),
    },
}


def run_chaos(tier: str = "cluster",
              seed: int = 0,
              processes: int = 4,
              atoms: int = 400,
              quick: bool = False,
              workers: int = 2,
              tolerance: float = DEFAULT_TOLERANCE) -> ChaosReport:
    """Run one tier's scenario matrix — ``"cluster"``, ``"serve"`` or
    ``"fleet"``; returns the report (never raises on scenario failure
    — check ``report.all_passed``).

    ``processes`` and ``tolerance`` steer the cluster tier, ``workers``
    the serve tier's clean baseline.  ``quick`` replaces ``atoms`` by
    the tier's :data:`QUICK_ATOMS`.
    """
    if tier != "cluster" and tier not in SCENARIOS:
        raise ValueError(f"unknown chaos tier {tier!r}")
    natoms = QUICK_ATOMS[tier] if quick else atoms
    if tier == "cluster":
        params = ApproxParams()
        molecule = synthetic_protein(natoms, seed=seed)
        ref = run_fig4_simmpi(molecule, params, processes=processes)
        results: List[Union[ScenarioResult, ServiceResult]] = [
            _run_scenario(sc, molecule, params, processes, ref, tolerance)
            for sc in scenario_matrix(seed, processes)]
        return ChaosReport(
            title=(f"chaos matrix seed={seed} P={processes} "
                   f"({molecule.natoms} atoms, tol {tolerance:g})"),
            header={"seed": seed, "processes": processes,
                    "natoms": molecule.natoms, "tolerance": tolerance,
                    "ref_energy": ref.energy},
            results=results)
    with tempfile.TemporaryDirectory(prefix=f"chaos-{tier}-") as tmpdir:
        results = [_verdict(name, description,
                            fn(seed, natoms, tmpdir, workers))
                   for name, (description, fn)
                   in SCENARIOS[tier].items()]
    extra = ({"workers": workers} if tier == "serve"
             else {"backend": "thread"})
    return ChaosReport(
        title=f"{tier} chaos matrix seed={seed} ({natoms} atoms/request)",
        header=dict(seed=seed, natoms=natoms, **extra), results=results)
