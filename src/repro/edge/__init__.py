"""repro.edge — the multi-tenant HTTP front-end of the serve tier.

The ROADMAP's "network front-end" item made concrete: a stdlib-only
HTTP API (``http.server``; no new dependencies) in front of
:class:`~repro.serve.service.SolveService` and
:class:`~repro.fleet.fleet.ShardedFleet`, so the batched, resilient,
sharded solve stack of PRs 5–9 is reachable as a *service* rather
than a library call.

Layers, outermost first:

* :mod:`repro.edge.server` — :class:`EdgeServer`, the threaded
  socket transport (one thread per connection, bounded reads);
* :mod:`repro.edge.app` — :class:`EdgeApp`, transport-independent
  routing + middleware: bearer-token tenancy (:mod:`~.auth`),
  per-tenant token-bucket rate limits (:mod:`~.ratelimit`), body-size
  limits, typed JSON errors (:mod:`~.errors`), security headers,
  structured redacted request logging (:mod:`~.reqlog`,
  :mod:`~.redaction`) and background jobs (:mod:`~.jobs`);
* the serve/fleet backend — untouched: the edge submits the same
  :class:`~repro.serve.request.SolveRequest` objects the in-process
  path does, so coalescing, caching and energies are bitwise
  identical across the wire.

Determinism is a feature of the surface: clocks are injectable,
request/job ids are seeded, and logged fields never read the wall
clock — the whole middleware stack is unit-testable byte-for-byte.
``repro serve --http`` is the CLI surface; see ``docs/HTTP.md``.
"""

from repro.edge.app import (
    EdgeApp,
    EdgeResponse,
    SECURITY_HEADERS,
    result_to_json,
)
from repro.edge.auth import (
    DEFAULT_MAX_BODY_BYTES,
    TenantConfig,
    TenantRegistry,
)
from repro.edge.errors import (
    BadRequestError,
    EdgeError,
    JobsFullError,
    MethodNotAllowedError,
    NotFoundError,
    OverloadedError,
    PayloadTooLargeError,
    RateLimitedError,
    SolveTimeoutError,
    UnauthorizedError,
    UpstreamQueueFullError,
    from_backpressure,
)
from repro.edge.jobs import JobRecord, JobTable
from repro.edge.ratelimit import RateLimiter
from repro.edge.redaction import (
    REDACTED,
    SENSITIVE_HEADERS,
    body_digest,
    redact_headers,
    redact_token,
)
from repro.edge.reqlog import RequestLog
from repro.edge.server import EdgeServer

__all__ = [
    "EdgeApp",
    "EdgeResponse",
    "SECURITY_HEADERS",
    "result_to_json",
    "TenantConfig",
    "TenantRegistry",
    "DEFAULT_MAX_BODY_BYTES",
    "EdgeError",
    "BadRequestError",
    "UnauthorizedError",
    "NotFoundError",
    "MethodNotAllowedError",
    "PayloadTooLargeError",
    "RateLimitedError",
    "OverloadedError",
    "UpstreamQueueFullError",
    "JobsFullError",
    "SolveTimeoutError",
    "from_backpressure",
    "JobRecord",
    "JobTable",
    "RateLimiter",
    "REDACTED",
    "SENSITIVE_HEADERS",
    "body_digest",
    "redact_headers",
    "redact_token",
    "RequestLog",
    "EdgeServer",
]
