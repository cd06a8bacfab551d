"""Request/response model of the solve service.

A :class:`SolveRequest` is everything one tenant asks for — molecule,
approximation parameters, traversal method, priority, an optional
deadline and an optional idempotency key.  The key defaults to a
content fingerprint of the inputs (see
:func:`repro.core.fingerprint.arrays_fingerprint`), which is what lets
the service coalesce duplicate in-flight requests: two tenants asking
for the same molecule at the same ε share one computation and receive
the same :class:`SolveResult`.

A :class:`SolveResult` always comes back — failures, expired deadlines
and degraded (guard-ladder) runs are *statuses*, never silent drops —
and carries the cache level that served it plus queue-wait and service
timings so callers can see exactly what they paid for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.fingerprint import arrays_fingerprint
from repro.core.solver import METHODS
from repro.guard.solver import GuardEvent
from repro.molecules.molecule import Molecule

__all__ = ["SolveRequest", "SolveResult", "STATUSES", "CACHE_LEVELS"]

#: Terminal request statuses (every submitted request reaches one).
STATUSES = ("ok", "degraded", "expired", "failed")

#: Deepest artifact a solve reused, best to worst: a full-result hit,
#: warm Born radii, warm octrees only, nothing.
CACHE_LEVELS = ("epol", "born", "trees", "cold")


@dataclass(frozen=True)
class SolveRequest:
    """One tenant's solve order.

    Parameters
    ----------
    molecule:
        The molecule to solve (a surface is attached by the service —
        and cached — when absent).
    params:
        Approximation parameters (the ε knobs).
    method:
        Traversal method, as in :class:`repro.core.PolarizationSolver`.
    priority:
        Lower pops first; equal priorities are FIFO.
    deadline_s:
        Optional wall-clock budget in seconds, measured from submit.
        A request whose deadline passes while still queued is *not*
        executed; its result has ``status="expired"``.
    idempotency_key:
        Coalescing key; empty → derived from the request content, so
        identical requests coalesce automatically.
    tau:
        Dielectric prefactor (see :data:`repro.constants.TAU_WATER`).
    tenant:
        Which tenant submitted the request (the HTTP edge fills this
        from the bearer token; workload files may script it).  Pure
        attribution: it is deliberately *not* part of the content
        fingerprint, so two tenants asking the same question still
        coalesce into one computation.
    """

    molecule: Molecule
    params: ApproxParams = ApproxParams()
    method: str = "octree"
    priority: int = 0
    deadline_s: Optional[float] = None
    idempotency_key: str = ""
    tau: float = TAU_WATER
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")

    def key(self) -> str:
        """Idempotency key: explicit, else a content fingerprint."""
        if self.idempotency_key:
            return self.idempotency_key
        return self.route_key()

    def route_key(self) -> str:
        """Content fingerprint of the inputs, ignoring the idempotency
        key.  The fleet router hashes this onto its ring so that
        repeats of the same molecule land on the same shard (memory-
        tier cache affinity) even when tenants attach distinct
        idempotency keys.

        Hashed once per request (the router and a process shard both
        ask): a request is a snapshot, so its molecule must not change
        while the request is in use.
        """
        key = self.__dict__.get("_route_key")
        if key is None:
            mol, surf = self.molecule, self.molecule.surface
            key = "req-" + arrays_fingerprint(
                mol.positions, mol.charges, mol.radii,
                surf.points if surf is not None else None,
                surf.normals if surf is not None else None,
                surf.weights if surf is not None else None,
                extra=f"{self.params!r},{self.method},tau={self.tau!r}")
            # Frozen: the memo goes round the blocked __setattr__.
            object.__setattr__(self, "_route_key", key)
        return key


@dataclass
class SolveResult:
    """What one request produced (also delivered to coalesced callers).

    ``status`` is one of :data:`STATUSES`; ``ok`` and ``degraded``
    both carry a trustworthy energy (a degraded run finished on a
    lower guard-ladder rung — inspect ``rung``/``guard_events``).
    ``cache`` names the deepest artifact level reused
    (:data:`CACHE_LEVELS`).
    """

    key: str
    status: str
    energy: Optional[float] = None
    born_radii: Optional[np.ndarray] = None
    method: str = ""
    rung: str = ""
    degradations: int = 0
    guard_events: List[GuardEvent] = field(default_factory=list)
    cache: str = "cold"
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    worker: int = -1
    error: str = ""
    #: Which delivery attempt produced this result (1 = first try;
    #: higher after retries, hedges or a crash requeue).
    attempt: int = 1
    #: Fleet shard that produced the result (-1 = not fleet-served).
    shard: int = -1

    @property
    def ok(self) -> bool:
        """True when the result carries a usable energy."""
        return self.status in ("ok", "degraded")
