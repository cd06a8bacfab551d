"""repro.serve — batched multi-tenant solve service with artifact cache.

The ROADMAP's production framing made concrete: instead of one-shot
CLI runs that rebuild surfaces, octrees and Born radii from scratch,
a :class:`SolveService` admits :class:`SolveRequest`\\ s into a bounded
priority queue, coalesces duplicates in flight, executes through the
guard layer on a worker pool, and keys every phase artifact by content
fingerprint in a two-tier :class:`ArtifactCache` — so a warm repeat
solve skips straight to (or past) the energy pass and returns the
bitwise-identical energy.

Resilience (:mod:`repro.serve.resilience`) is opt-in and
pay-for-what-you-use: deterministic fault injection via
:class:`~repro.faults.plan.ServeFaultPlan`, worker supervision,
deadline-aware retry/hedging (:class:`RetryPolicy`), a disk-tier
:class:`CircuitBreaker` and admission-control load shedding
(:class:`AdmissionController`), exercised end-to-end by
``repro chaos --serve`` (:mod:`repro.faults.chaos`).

See ``docs/SERVING.md`` for the architecture, cache-key layering,
backpressure semantics and the metrics reference; ``repro serve`` is
the CLI surface.
"""

from repro.serve.cache import (
    ArtifactCache,
    CachedArrays,
    CacheStats,
    DEFAULT_CACHE_BYTES,
    born_key,
    epol_key,
    surface_key,
    trees_key,
)
from repro.serve.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.queueing import BoundedPriorityQueue
from repro.serve.request import CACHE_LEVELS, STATUSES, SolveRequest, SolveResult
from repro.serve.resilience import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    DelayTimer,
    RetryPolicy,
)
from repro.serve.service import (
    LATENCY_BOUNDS_SECONDS,
    ServeStats,
    SolveService,
    Ticket,
)
from repro.serve.workload import load_workload, synthetic_workload

__all__ = [
    "ArtifactCache",
    "CachedArrays",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "surface_key",
    "trees_key",
    "born_key",
    "epol_key",
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "BoundedPriorityQueue",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "AdmissionPolicy",
    "AdmissionController",
    "DelayTimer",
    "SolveRequest",
    "SolveResult",
    "STATUSES",
    "CACHE_LEVELS",
    "SolveService",
    "ServeStats",
    "Ticket",
    "LATENCY_BOUNDS_SECONDS",
    "synthetic_workload",
    "load_workload",
]
