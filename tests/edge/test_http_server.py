"""The edge over real sockets: concurrency, wire semantics, parity.

The headline acceptance check lives here: an energy served over HTTP
is bitwise identical (``float.hex()``) to the same request submitted
in-process — for a single service backend *and* a multi-shard fleet.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.edge import EdgeApp, EdgeServer, TenantConfig, TenantRegistry
from repro.fleet import ShardedFleet
from repro.molecules.generator import synthetic_protein
from repro.serve import SolveRequest, SolveService

ATOMS = 60
TOKEN = "wire-secret"


def registry(max_body: int = 4096) -> TenantRegistry:
    return TenantRegistry([TenantConfig(
        name="wire", token=TOKEN, rate_per_s=500.0, burst=200,
        max_body_bytes=max_body)])


def call(url, path, doc=None, method=None, token=TOKEN, timeout=60):
    """urllib round-trip → (status, parsed JSON body)."""
    data = None if doc is None else json.dumps(doc).encode()
    req = urllib.request.Request(
        url + path, data=data, method=method,
        headers={"Authorization": f"Bearer {token}",
                 "Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def in_process_energy_hex(atoms: int, seed: int) -> str:
    """The same recipe through the library path, no HTTP anywhere."""
    svc = SolveService(workers=1, queue_capacity=16)
    try:
        mol = synthetic_protein(atoms, seed=seed)
        ticket = svc.submit(SolveRequest(molecule=mol))
        result = ticket.result(timeout=120)
        assert result.ok
        return float(result.energy).hex()
    finally:
        svc.close()


@pytest.fixture()
def service_server():
    svc = SolveService(workers=2, queue_capacity=32)
    app = EdgeApp(svc, registry(), seed=3)
    with EdgeServer(app) as server:
        yield server
    svc.close()


def test_http_energy_bitwise_matches_in_process(service_server):
    status, doc = call(service_server.url, "/v1/solve",
                       {"atoms": ATOMS, "seed": 5})
    assert status == 200
    assert doc["result"]["energy_hex"] == \
        in_process_energy_hex(ATOMS, seed=5)


def test_http_energy_bitwise_matches_across_fleet_shards():
    fleet = ShardedFleet(shards=3, backend="thread",
                         workers_per_shard=1, queue_capacity=32)
    app = EdgeApp(fleet, registry(), seed=3)
    expected = in_process_energy_hex(ATOMS, seed=5)
    try:
        with EdgeServer(app) as server:
            status, health = call(server.url, "/healthz")
            assert status == 200
            assert health["backend"] == "fleet"
            assert health["fleet"]["shards_live"] == 3
            assert set(health["fleet"]) == {
                "shards_live", "shards_dead", "queue_depth",
                "outstanding", "submitted", "completed", "shed",
                "rerouted"}
            # Distinct idempotency keys defeat coalescing/caching of
            # the *edge* answer, so every shard the router picks must
            # reproduce the energy from scratch-or-cache identically.
            for i in range(3):
                status, doc = call(
                    server.url, "/v1/solve",
                    {"atoms": ATOMS, "seed": 5,
                     "idempotency_key": f"probe-{i}"})
                assert status == 200
                assert doc["result"]["energy_hex"] == expected
    finally:
        fleet.close()


def test_concurrent_clients_all_served(service_server):
    url = service_server.url

    def one(i):
        return call(url, "/v1/solve",
                    {"atoms": ATOMS, "seed": i % 3})

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(one, range(24)))
    assert all(status == 200 for status, _ in outcomes)
    # Same recipe → same bits, regardless of which thread asked.
    by_seed = {}
    for (_, doc), i in zip(outcomes, range(24)):
        by_seed.setdefault(i % 3, set()).add(
            doc["result"]["energy_hex"])
    assert all(len(hexes) == 1 for hexes in by_seed.values())


def test_oversize_body_gets_413_over_the_wire():
    svc = SolveService(workers=1, queue_capacity=8)
    app = EdgeApp(svc, registry(max_body=1024), seed=3)
    try:
        with EdgeServer(app) as server:
            big = {"atoms": ATOMS, "idempotency_key": "x" * 4096}
            status, doc = call(server.url, "/v1/solve", big)
            assert status == 413
            assert doc["error"]["code"] == "payload_too_large"
            # The unread body would desync keep-alive framing, so the
            # server answers and then closes the connection itself.
            body = json.dumps(big).encode()
            with socket.create_connection(server.address,
                                          timeout=30) as sock:
                sock.sendall(b"POST /v1/solve HTTP/1.1\r\nHost: edge\r\n"
                             b"Authorization: Bearer " + TOKEN.encode() +
                             b"\r\nContent-Length: " +
                             str(len(body)).encode() + b"\r\n\r\n" + body)
                raw = b""
                try:
                    while chunk := sock.recv(65536):
                        raw += chunk
                except ConnectionResetError:
                    pass    # unread request bytes may turn FIN into RST
            head = raw.split(b"\r\n\r\n", 1)[0].lower()
            assert head.startswith(b"http/1.1 413")
            assert b"connection: close" in head
    finally:
        svc.close()


def test_stalled_upload_is_dropped_not_pinned(service_server,
                                              monkeypatch):
    """A client that declares Content-Length and then stalls must be
    disconnected by the handler's socket timeout — not pin a handler
    thread forever (slowloris)."""
    import socket

    from repro.edge.server import _EdgeHandler

    monkeypatch.setattr(_EdgeHandler, "timeout", 0.5)
    host, port = service_server.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"POST /v1/solve HTTP/1.1\r\n"
                     b"Host: edge\r\n"
                     b"Authorization: Bearer " + TOKEN.encode() +
                     b"\r\nContent-Length: 64\r\n\r\n")  # body withheld
        sock.settimeout(30)
        # The server must close the connection once its read times
        # out; recv unblocking with b"" is that remote close.  If the
        # thread were pinned, recv would sit until our 30 s guard.
        while sock.recv(1024):
            pass
    url = service_server.url
    status, doc = call(url, "/v1/jobs", {"atoms": ATOMS, "seed": 2})
    assert status == 202
    status_url = doc["status_url"]
    deadline = time.monotonic() + 120
    while True:
        status, doc = call(url, status_url)
        assert status == 200
        if doc["done"]:
            break
        assert time.monotonic() < deadline, "job never completed"
        time.sleep(0.05)
    result = doc["result"]
    assert result["status"] in ("ok", "degraded")
    assert result["energy_hex"] == float(result["energy"]).hex()


def test_metrics_and_healthz_over_the_wire(service_server):
    from repro import obs

    url = service_server.url
    status, doc = call(url, "/healthz", token="not-checked")
    assert status == 200 and doc["backend"] == "service"
    obs.enable(reset=True)
    try:
        call(url, "/v1/solve", {"atoms": ATOMS, "seed": 1})
        req = urllib.request.Request(url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
    finally:
        obs.disable()
    assert "repro_edge_requests" in text
    assert "repro_serve_requests" in text
    # Exposition format: every non-blank line is a comment or sample.
    for line in text.splitlines():
        assert line.startswith(("#", "repro_")) or not line


def test_auth_failure_over_the_wire(service_server):
    status, doc = call(service_server.url, "/v1/solve",
                       {"atoms": ATOMS}, token="wrong")
    assert status == 401
    assert doc["error"]["code"] == "unauthorized"


# -- transport: one keep-alive connection, no delayed-ACK stall --------

#: Median round trip a keep-alive request must beat.  A response split
#: over two sends waits for the client's delayed ACK (~40 ms on Linux),
#: so the gap to a healthy sub-millisecond answer is 40x or more.
KEEPALIVE_MEDIAN_S = 0.010


def keepalive_times(server, requests):
    """Time each ``(method, path, body, headers)`` on one connection;
    returns ``(seconds, [(status, body bytes)])``."""
    conn = http.client.HTTPConnection(*server.address, timeout=60)
    seconds, answers = [], []
    try:
        for method, path, body, headers in requests:
            t0 = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            seconds.append(time.perf_counter() - t0)
            answers.append((resp.status, data))
            assert not resp.will_close
    finally:
        conn.close()
    return seconds, answers


def keepalive_median(server, requests, batches=3):
    """Lowest median of up to ``batches`` runs of ``requests``, each on
    a fresh keep-alive connection, and the first run's answers.

    The delayed-ACK stall is a floor under every run; a loaded shared
    host slowed one whole 10-request run past 10 ms in about 35, so
    one slow run alone does not fail the check.
    """
    best, first = float("inf"), None
    for _ in range(batches):
        seconds, answers = keepalive_times(server, requests)
        first = first or answers
        best = min(best, statistics.median(seconds))
        if best < KEEPALIVE_MEDIAN_S:
            break
    return best, first


def test_keepalive_healthz_is_not_stalled(service_server):
    median, answers = keepalive_median(
        service_server, [("GET", "/healthz", None, {})] * 20)
    assert all(status == 200 for status, _ in answers)
    assert median < KEEPALIVE_MEDIAN_S


class _StubApp:
    """Answers every request with a fixed body (transport-only probe)."""

    read_cap_bytes = 1024

    def __init__(self, size):
        self.body = b"x" * size

    def handle(self, method, path, headers, body, declared_length=0):
        return SimpleNamespace(status=200, body=self.body,
                               headers={"Content-Type": "text/plain"})


def test_keepalive_body_past_the_write_buffer_is_not_stalled():
    """A 20 KiB body outgrows the 8 KiB write buffer and leaves in two
    sends; without TCP_NODELAY the second waits for the delayed ACK."""
    with EdgeServer(_StubApp(20 * 1024)) as server:
        median, answers = keepalive_median(
            server, [("GET", "/blob", None, {})] * 20)
    assert all(status == 200 and len(data) == 20 * 1024
               for status, data in answers)
    assert median < KEEPALIVE_MEDIAN_S


def test_keepalive_warm_solves_are_not_stalled(service_server):
    headers = {"Authorization": f"Bearer {TOKEN}",
               "Content-Type": "application/json"}
    requests = [("POST", "/v1/solve",
                 json.dumps({"atoms": ATOMS, "seed": 6,
                             "idempotency_key": f"warm-{i}"}).encode(),
                 headers) for i in range(10)]
    median, answers = keepalive_median(service_server, requests)
    assert all(status == 200 for status, _ in answers)
    results = [json.loads(data)["result"] for _, data in answers]
    assert len({r["energy_hex"] for r in results}) == 1
    assert all(r["cache"] == "epol" for r in results[1:])
    assert median < KEEPALIVE_MEDIAN_S
