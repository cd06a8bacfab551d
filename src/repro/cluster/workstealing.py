"""Discrete-event simulator of the cilk++ randomized work-stealing
scheduler (Blumofe & Leiserson), on one rank or across ranks.

The paper's intra-node load balancing is "implicit dynamic load
balancing" via cilk++: each worker owns a double-ended queue, pushes
spawned work to the *bottom*, pops its own work from the bottom, and an
idle worker steals from the *top* of a uniformly random victim's deque
(the oldest — i.e. largest — outstanding task).

The solvers' intra-rank work is a parallel loop over leaf tasks with
known per-task costs.  cilk++ executes such a loop by lazy binary
splitting: a worker holding a range ``[lo, hi)`` of more than one grain
of tasks pushes the right half and continues with the left.  This
simulator reproduces that behaviour event-by-event on virtual worker
clocks, so the *schedule* (who steals what and when, the final
makespan) is a faithful sample of the real scheduler's distribution —
seeded, hence reproducible.

With ``ranks > 1`` it models the paper's future-work inter-node
stealing: each rank's first deque starts with the rank's static
segment, and an idle worker tries a random remote rank (one
interconnect round trip) with probability
:data:`REMOTE_ATTEMPT_FRACTION`, else a worker of its own rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_tracer, record_steal_stats

#: Auto-grainsize: a range splits until it holds at most
#: ``max(1, n / (GRAIN_DIVISOR * workers))`` tasks — small enough that
#: the end-of-loop tail costs ~1 grain per worker, large enough to
#: amortise per-task overhead (cilk++'s heuristic).
GRAIN_DIVISOR = 64

#: Probability that an idle worker of a multi-rank run tries a remote
#: victim instead of a local one (locality-biased stealing).
REMOTE_ATTEMPT_FRACTION = 0.25


@dataclass(frozen=True)
class StealStats:
    """Outcome of one simulated parallel region."""

    makespan: float
    total_work: float
    per_worker_busy: np.ndarray
    steals: int
    failed_steals: int
    #: Successful steals from another rank's worker (multi-rank only).
    inter_steals: int = 0

    @property
    def intra_steals(self) -> int:
        return self.steals - self.inter_steals

    @property
    def utilization(self) -> float:
        """busy / (p × makespan) ∈ (0, 1]."""
        p = len(self.per_worker_busy)
        if self.makespan <= 0.0:
            return 1.0
        return float(self.per_worker_busy.sum() / (p * self.makespan))


class WorkStealingSim:
    """Simulates ``ranks × workers`` workers executing a task range.

    Parameters
    ----------
    workers:
        Worker threads ``p`` per rank.
    task_overhead:
        Virtual seconds charged per executed grain (spawn/bookkeeping).
    steal_overhead:
        Virtual seconds charged per same-rank steal *attempt*
        (successful or not).
    seed:
        Victim-selection RNG seed.
    ranks:
        Ranks ``P``; worker ``w`` belongs to rank ``w // p``.
    inter_steal_overhead:
        Virtual seconds per remote steal attempt (one interconnect
        round trip; ~tens of µs on the paper's InfiniBand).
    """

    def __init__(self, workers: int,
                 task_overhead: float = 9.0e-8,
                 steal_overhead: float = 6.0e-7,
                 seed: int = 0,
                 ranks: int = 1,
                 inter_steal_overhead: float = 2.5e-5) -> None:
        if workers < 1 or ranks < 1:
            raise ValueError("workers and ranks must be >= 1")
        self.workers = workers
        self.task_overhead = task_overhead
        self.steal_overhead = steal_overhead
        self.seed = seed
        self.ranks = ranks
        self.inter_steal_overhead = inter_steal_overhead

    def run(self, task_costs: Sequence[float],
            segment_bounds: Optional[Sequence[int]] = None) -> StealStats:
        """Simulate executing ``task_costs`` (virtual seconds each).

        Rank *r* initially owns tasks
        ``segment_bounds[r]:segment_bounds[r+1]``; ``None`` (one rank
        only) hands the whole range to worker 0.
        """
        costs = np.asarray(task_costs, dtype=np.float64)
        if np.any(costs < 0):
            raise ValueError("task costs must be nonnegative")
        n = len(costs)
        bounds = np.asarray([0, n] if segment_bounds is None
                            else segment_bounds, dtype=np.int64)
        if len(bounds) != self.ranks + 1 or bounds[0] != 0 \
                or bounds[-1] != n:
            raise ValueError("segment_bounds must cover all tasks with "
                             "one segment per rank")
        total = float(costs.sum())
        P, p = self.ranks, self.workers
        W = P * p
        if n == 0:
            return StealStats(0.0, 0.0, np.zeros(W), 0, 0)
        if W == 1:
            busy = total + n * self.task_overhead
            return StealStats(busy, total, np.array([busy]), 0, 0)

        prefix = np.concatenate([[0.0], np.cumsum(costs)])

        def range_cost(lo: int, hi: int) -> float:
            return float(prefix[hi] - prefix[lo])

        grain = max(1, n // (GRAIN_DIVISOR * W))
        rng = np.random.default_rng(self.seed)
        tracer = get_tracer()
        emit_events = tracer.enabled

        # Deques of (lo, hi, ready_time) ranges; bottom = end of list,
        # top = index 0.  ``ready_time`` is the owner's virtual clock at
        # push time: a thief cannot execute work before it existed.
        # Rank r's first worker seeds its deque with the rank's segment.
        deques: List[List[Tuple[int, int, float]]] = [[] for _ in range(W)]
        for r in range(P):
            if bounds[r + 1] > bounds[r]:
                deques[r * p].append((int(bounds[r]),
                                      int(bounds[r + 1]), 0.0))
        clocks = np.zeros(W)
        busy = np.zeros(W)
        steals = 0
        inter = 0
        failed = 0
        remaining = n

        while remaining > 0:
            w = int(np.argmin(clocks))
            dq = deques[w]
            if dq:
                lo, hi, _ready = dq.pop()  # pop bottom (own work, newest)
                while hi - lo > grain:
                    mid = (lo + hi) // 2
                    dq.append((mid, hi, clocks[w]))  # right half to bottom
                    hi = mid
                dt = range_cost(lo, hi) + self.task_overhead
                clocks[w] += dt
                busy[w] += dt
                remaining -= hi - lo
            else:
                # Steal attempt from a random victim's top; one rank
                # draws no remote coin, so its RNG stream is the plain
                # cilk++ one.
                rank = w // p
                remote = P > 1 and rng.random() < REMOTE_ATTEMPT_FRACTION
                if remote:
                    victim_rank = int(rng.integers(0, P - 1))
                    if victim_rank >= rank:
                        victim_rank += 1
                    victim = victim_rank * p + int(rng.integers(0, p))
                    clocks[w] += self.inter_steal_overhead
                else:
                    victim = rank * p + int(rng.integers(0, p))
                    clocks[w] += self.steal_overhead
                if victim != w and deques[victim]:
                    lo, hi, ready = deques[victim].pop(0)  # take top
                    # Work cannot run before it was pushed.
                    clocks[w] = max(clocks[w], ready)
                    deques[w].append((lo, hi, clocks[w]))
                    steals += 1
                    inter += remote
                    if emit_events:
                        tracer.virtual_instant(
                            "steal", "workstealing", w, float(clocks[w]),
                            victim=victim, tasks=hi - lo)
                else:
                    failed += 1
                    if emit_events:
                        tracer.virtual_instant(
                            "failed_steal", "workstealing", w,
                            float(clocks[w]), victim=victim)
                    # An idle worker with nothing to steal waits until
                    # someone is ahead of it in virtual time.
                    ahead = clocks[clocks > clocks[w]]
                    if len(ahead):
                        clocks[w] = max(clocks[w], float(ahead.min()))

        record_steal_stats(steals, failed,
                           scope="intra" if P == 1 else "cross")
        return StealStats(
            makespan=float(clocks.max()),
            total_work=total,
            per_worker_busy=busy,
            steals=steals,
            failed_steals=failed,
            inter_steals=inter,
        )

    def makespan(self, task_costs: Sequence[float]) -> float:
        """Convenience: just the virtual completion time."""
        return self.run(task_costs).makespan


def static_block_makespan(task_costs: Sequence[float], workers: int
                          ) -> float:
    """Makespan of a *static* contiguous block partition (no stealing).

    The ablation baseline for dynamic intra-node balancing: tasks are
    split into ``workers`` contiguous blocks of equal task *count* and
    each worker runs one block; the makespan is the largest block sum.
    """
    costs = np.asarray(task_costs, dtype=np.float64)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(costs) == 0:
        return 0.0
    blocks = np.array_split(costs, workers)
    return float(max(b.sum() for b in blocks))
