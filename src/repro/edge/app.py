"""The edge application: routing + middleware over a serve backend.

:class:`EdgeApp` is transport-independent: :meth:`EdgeApp.handle` maps
``(method, path, headers, body)`` to a complete
:class:`EdgeResponse`, so every middleware behavior — auth, rate
limits, size limits, typed errors, redacted logging — is unit-testable
with an injected clock and no sockets.  The HTTP transport
(:mod:`repro.edge.server`) is a thin adapter over this method.

Routes
------
* ``POST /v1/solve`` — synchronous, deadline-bounded solve;
* ``POST /v1/jobs`` / ``GET /v1/jobs/<ticket>`` — background solve +
  ticket polling (:mod:`repro.edge.jobs`);
* ``GET /healthz`` — queue/breaker/fleet/job summary (unauthenticated);
* ``GET /metrics`` — the obs registry's Prometheus text exposition
  (unauthenticated).

The backend is either a :class:`~repro.serve.service.SolveService` or
a :class:`~repro.fleet.fleet.ShardedFleet`; both share the submit/
ticket surface, so one app serves both ``--shards 1`` and a fleet.

Solve bodies are *recipes* (``atoms``/``seed``/``capsid`` plus ε
knobs), not coordinate arrays, decoded by the same
:func:`~repro.serve.workload.recipe_request` that reads workload
files: the molecule is rebuilt seeded on the server, so an HTTP
request's content fingerprint — and therefore its cache key,
coalescing and bitwise energy — is identical to the same request
submitted in-process.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, Optional, Tuple, Union

from repro import obs
from repro.edge.auth import TenantConfig, TenantRegistry
from repro.edge.errors import (
    BadRequestError,
    EdgeError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    SolveTimeoutError,
    from_backpressure,
)
from repro.edge.jobs import JobTable
from repro.edge.ratelimit import RateLimiter
from repro.edge.redaction import body_digest
from repro.edge.reqlog import RequestLog
from repro.fleet.fleet import ShardedFleet
from repro.serve.errors import QueueFullError, ServiceOverloadedError
from repro.serve.request import SolveRequest, SolveResult
from repro.serve.service import LATENCY_BOUNDS_SECONDS, SolveService
from repro.serve.workload import RecipeBook, recipe_request

__all__ = ["EdgeApp", "EdgeResponse", "SECURITY_HEADERS",
           "result_to_json"]

#: Hardening headers attached to every response.
SECURITY_HEADERS = {
    "X-Content-Type-Options": "nosniff",
    "X-Frame-Options": "DENY",
    "Content-Security-Policy": "default-src 'none'",
    "Referrer-Policy": "no-referrer",
    "Cache-Control": "no-store",
}

#: Distinct molecule recipes kept in memory (FIFO; a re-request after
#: eviction rebuilds the seeded molecule bit-identically).
MAX_RECIPES = 32


@dataclass
class EdgeResponse:
    """One complete HTTP response, transport-agnostic."""

    status: int
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def json(self) -> object:
        """Decode the body (tests/clients convenience)."""
        return json.loads(self.body.decode("utf-8"))


def result_to_json(result: SolveResult) -> Dict[str, object]:
    """The wire form of a :class:`SolveResult`.

    ``energy_hex`` is ``float.hex()`` of the energy — the bitwise
    acceptance channel (two runs agree iff these strings match).
    """
    energy = result.energy
    return {
        "key": result.key,
        "status": result.status,
        "energy": energy,
        "energy_hex": float(energy).hex() if energy is not None else None,
        "method": result.method,
        "rung": result.rung,
        "degradations": result.degradations,
        "cache": result.cache,
        "wait_seconds": result.wait_seconds,
        "service_seconds": result.service_seconds,
        "worker": result.worker,
        "attempt": result.attempt,
        "shard": result.shard,
        "error": result.error,
    }


class EdgeApp:
    """Routing + middleware over one serve/fleet backend."""

    def __init__(self, backend: Union[SolveService, ShardedFleet],
                 tenants: TenantRegistry, *,
                 clock: Callable[[], float] = time.monotonic,
                 seed: int = 0,
                 limiter: Optional[RateLimiter] = None,
                 log_stream: Optional[IO[str]] = None,
                 sync_timeout_s: float = 60.0,
                 job_capacity: int = 256) -> None:
        if sync_timeout_s <= 0:
            raise ValueError("sync_timeout_s must be positive")
        self.backend = backend
        self.tenants = tenants
        self.sync_timeout_s = float(sync_timeout_s)
        self.limiter = limiter or RateLimiter(clock=clock)
        self.log = RequestLog(seed=seed, clock=clock,
                              stream=log_stream)
        self.jobs = JobTable(capacity=job_capacity)
        self._recipes = RecipeBook(capacity=MAX_RECIPES)

    # -- transport surface ------------------------------------------------

    @property
    def read_cap_bytes(self) -> int:
        """Most bytes a transport needs to read to judge any tenant's
        limit (one byte over the largest limit proves oversize)."""
        return self.tenants.max_body_bytes + 1

    def handle(self, method: str, path: str,
               headers: Optional[Dict[str, str]] = None,
               body: bytes = b"",
               declared_length: Optional[int] = None) -> EdgeResponse:
        """One request through the full middleware stack."""
        headers = headers or {}
        t0 = self.log.now()
        request_id = self.log.next_id("req")
        box: Dict[str, str] = {"tenant": "-"}
        error_code = ""
        try:
            resp = self._route(method, path, headers, body,
                               declared_length, box)
        except EdgeError as exc:
            error_code = exc.code
            resp = self._error_response(exc)
        except (ServiceOverloadedError, QueueFullError) as exc:
            edge_exc = from_backpressure(exc)
            error_code = edge_exc.code
            resp = self._error_response(edge_exc)
        # Deliberate boundary: whatever breaks, the edge answers with a
        # typed 500 instead of a dropped connection; the failure is
        # counted as edge.errors.internal.
        except Exception:  # lint: ignore[RPR003]
            error_code = "internal"
            resp = self._error_response(EdgeError(
                "internal edge error",
                hint="see the server log; the request was not charged "
                     "against your quota"))
        duration = self.log.now() - t0
        self.log.record(
            request_id=request_id, tenant=box["tenant"], method=method,
            path=path, status=resp.status, t_s=t0,
            duration_s=duration, bytes_in=len(body),
            body_sha256=body_digest(body), error_code=error_code)
        self._observe(method, box["tenant"], resp.status, duration)
        resp.headers.setdefault("X-Request-Id", request_id)
        return resp

    # -- routing ----------------------------------------------------------

    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes, declared_length: Optional[int],
               box: Dict[str, str]) -> EdgeResponse:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require(method, ("GET",))
            return self._healthz()
        if path == "/metrics":
            self._require(method, ("GET",))
            return self._metrics()
        if path == "/v1/solve":
            self._require(method, ("POST",))
            tenant = self._admit(headers, body, declared_length, box)
            return self._solve_sync(tenant, body)
        if path == "/v1/jobs":
            self._require(method, ("POST",))
            tenant = self._admit(headers, body, declared_length, box)
            return self._job_create(tenant, body)
        if path.startswith("/v1/jobs/"):
            self._require(method, ("GET",))
            tenant = self._admit(headers, body, declared_length, box)
            return self._job_poll(tenant, path[len("/v1/jobs/"):])
        raise NotFoundError(
            f"no route for {path!r}",
            hint="see docs/HTTP.md for the endpoint list")

    @staticmethod
    def _require(method: str, allowed: Tuple[str, ...]) -> None:
        if method not in allowed:
            raise MethodNotAllowedError(method, allowed)

    def _admit(self, headers: Dict[str, str], body: bytes,
               declared_length: Optional[int],
               box: Dict[str, str]) -> TenantConfig:
        """Auth → size limit → rate limit, in that order."""
        authorization = next(
            (v for k, v in headers.items()
             if k.lower() == "authorization"), None)
        try:
            tenant = self.tenants.authenticate(authorization)
        except EdgeError:
            if obs.is_enabled():
                obs.registry.counter(
                    "edge.auth.failures",
                    "requests with missing/unknown bearer "
                    "tokens").inc()
            raise
        box["tenant"] = tenant.name
        size = len(body) if declared_length is None \
            else max(len(body), int(declared_length))
        if size > tenant.max_body_bytes:
            if obs.is_enabled():
                obs.registry.counter(
                    "edge.rejected.oversize",
                    "requests over the tenant body-size limit").inc()
            raise PayloadTooLargeError(size, tenant.max_body_bytes)
        self.limiter.check(tenant)
        return tenant

    # -- endpoints --------------------------------------------------------

    def _solve_sync(self, tenant: TenantConfig,
                    body: bytes) -> EdgeResponse:
        request = self._parse_solve(tenant, body)
        ticket = self.backend.submit(request)
        budget = request.deadline_s if request.deadline_s is not None \
            else self.sync_timeout_s
        try:
            result = ticket.result(timeout=budget)
        except TimeoutError as exc:
            raise SolveTimeoutError(budget) from exc
        if obs.is_enabled():
            obs.registry.counter(
                "edge.solve.sync",
                "synchronous solves served via POST /v1/solve").inc()
        status = {"ok": 200, "degraded": 200,
                  "expired": 504}.get(result.status, 502)
        return self._json(status, {"result": result_to_json(result)})

    def _job_create(self, tenant: TenantConfig,
                    body: bytes) -> EdgeResponse:
        request = self._parse_solve(tenant, body)
        job_id = self.log.next_id("job")
        # Claim table capacity before the backend sees the request: a
        # full table must answer 503 *without* admitting a solve whose
        # ticket nobody could ever poll.
        self.jobs.reserve()
        try:
            ticket = self.backend.submit(request)
        # Deliberate boundary: whatever submit raises (including the
        # backpressure types handled upstream), the reserved slot must
        # go back before the error propagates.
        except BaseException:  # lint: ignore[RPR003]
            self.jobs.release()
            raise
        rec = self.jobs.create(job_id, tenant.name, ticket.key, ticket,
                               created_t=self.log.now(), reserved=True)
        return self._json(202, {
            "ticket": rec.job_id,
            "key": rec.key,
            "done": False,
            "status_url": f"/v1/jobs/{rec.job_id}",
        })

    def _job_poll(self, tenant: TenantConfig,
                  job_id: str) -> EdgeResponse:
        rec = self.jobs.get(job_id, tenant.name)
        if obs.is_enabled():
            obs.registry.counter(
                "edge.jobs.polls",
                "GET /v1/jobs/<ticket> polls").inc()
        doc: Dict[str, object] = {
            "ticket": rec.job_id, "key": rec.key, "done": rec.done,
            "result": None,
        }
        if rec.done:
            doc["result"] = result_to_json(rec.ticket.result(timeout=0))
        return self._json(200, doc)

    def _healthz(self) -> EdgeResponse:
        doc: Dict[str, object] = {
            "status": "ok",
            "jobs": self.jobs.counts(),
            # Count only: /healthz is unauthenticated, and tenant
            # names are customer identity — never disclosed here.
            "tenants": len(self.tenants.tenants),
        }
        backend = self.backend
        if isinstance(backend, ShardedFleet):
            fstats = backend.stats()
            doc["backend"] = "fleet"
            doc["fleet"] = {
                "shards_live": fstats.shards_live,
                "shards_dead": fstats.shards_dead,
                "queue_depth": sum(fstats.queue_depth.values()),
                "outstanding": backend.router.outstanding,
                "submitted": fstats.submitted,
                "completed": fstats.completed,
                "shed": fstats.shed,
                "rerouted": fstats.rerouted,
            }
            if fstats.shards_live == 0:
                doc["status"] = "unavailable"
        else:
            doc["backend"] = "service"
            doc["service"] = {
                "queue_depth": backend.queue_depth,
                "pending": backend.pending,
                "breaker": (backend.cache.breaker.state
                            if backend.cache.breaker is not None
                            else "absent"),
                "cache_entries": backend.cache.stats().entries,
            }
        return self._json(200, doc)

    def _metrics(self) -> EdgeResponse:
        text = obs.metrics_to_prometheus(obs.registry)
        return EdgeResponse(
            status=200, body=text.encode("utf-8"),
            headers=self._headers(
                "text/plain; version=0.0.4; charset=utf-8"))

    # -- parsing ----------------------------------------------------------

    def _parse_solve(self, tenant: TenantConfig,
                     body: bytes) -> SolveRequest:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequestError(
                f"malformed JSON body: {exc}",
                hint="POST a JSON object; see docs/HTTP.md for the "
                     "solve schema") from exc
        if not isinstance(doc, dict):
            raise BadRequestError(
                "solve body must be a JSON object",
                hint="see docs/HTTP.md for the solve schema")
        body_tenant = doc.get("tenant")
        if body_tenant is not None and body_tenant != tenant.name:
            raise BadRequestError(
                f"body names tenant {body_tenant!r} but the bearer "
                f"token belongs to {tenant.name!r}",
                hint="drop the body field or use the matching token")
        try:
            return recipe_request(doc, self._recipes, tenant.name)
        except ValueError as exc:
            raise BadRequestError(
                str(exc),
                hint="see docs/HTTP.md for the solve schema") from exc

    # -- responses --------------------------------------------------------

    @staticmethod
    def _headers(content_type: str) -> Dict[str, str]:
        headers = dict(SECURITY_HEADERS)
        headers["Content-Type"] = content_type
        return headers

    def _json(self, status: int,
              doc: Dict[str, object]) -> EdgeResponse:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        return EdgeResponse(
            status=status, body=body,
            headers=self._headers("application/json; charset=utf-8"))

    def _error_response(self, exc: EdgeError) -> EdgeResponse:
        resp = self._json(exc.status, exc.to_body())
        if exc.retry_after_s is not None:
            # RFC 9110 Retry-After is integer delta-seconds; the exact
            # float is in the JSON body as retry_after_s.
            resp.headers["Retry-After"] = str(
                max(1, math.ceil(exc.retry_after_s)))
        if exc.status == 405 and isinstance(exc, MethodNotAllowedError):
            resp.headers["Allow"] = ", ".join(exc.allowed)
        return resp

    # -- instrumentation --------------------------------------------------

    @staticmethod
    def _observe(method: str, tenant: str, status: int,
                 duration_s: float) -> None:
        if not obs.is_enabled():
            return
        obs.registry.counter(
            "edge.requests", "HTTP requests handled by the edge").inc()
        obs.registry.counter(
            f"edge.responses.{status // 100}xx",
            "edge responses by status class").inc()
        if tenant != "-":
            obs.registry.counter(
                f"edge.tenant.requests.{tenant}",
                "edge requests per tenant").inc()
        obs.registry.histogram(
            "edge.request_seconds",
            "edge request handling time",
            bounds=LATENCY_BOUNDS_SECONDS).observe(duration_s)
