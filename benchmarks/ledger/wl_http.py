"""``http_warm``: the deployed HTTP path, answered from the cache.

The target is a subprocess running ``python -m repro serve --http
--port 0 --shards 2 --shard-backend process`` with one tenant whose
rate limit is too high to bind.  The 24 recipes (200–775 atoms) are
primed untimed; after that every timed ``POST /v1/solve`` carries a
distinct idempotency key and is answered from the epol cache.  Two
client threads, each on one keep-alive ``http.client`` connection, run
a closed loop.  So this workload times transport, then auth/size/rate,
then the router, then the process-shard pipe, then a cache hit, with no
solver work: solver changes must not move it.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from http.client import HTTPConnection
from typing import Dict, List, Tuple

import spec
from spec import median, metric, percentile
import repro.obs as obs
from wl_serve import serve_layer_metrics

TOKEN = "ledger-token"
HEADERS = {"Authorization": f"Bearer {TOKEN}",
           "Content-Type": "application/json"}
RECIPE_ATOMS = tuple(200 + 25 * i for i in range(24))
CLIENTS = 2
SLO_MS = 10.0
HEALTHZ_PROBES = 40
#: Server arguments, shared with the in-process twin of the traced run.
SHARDS, WORKERS_PER_SHARD = 2, 2
#: The server exits on its own this long after the run should have
#: ended, so a crashed benchmark cannot leave it behind.
SERVER_GRACE_S = 300.0

Recipe = Tuple[int, int]


def recipes(seed: int) -> List[Recipe]:
    return [(atoms, seed * 100 + i) for i, atoms in enumerate(RECIPE_ATOMS)]


def body(recipe: Recipe, key: str = "") -> str:
    doc = {"atoms": recipe[0], "seed": recipe[1]}
    if key:
        doc["idempotency_key"] = key
    return json.dumps(doc)


def check_response(status: int, doc: dict, expected_hex: str) -> List[str]:
    """Problems with one warm answer: it must be a 200 epol-cache hit
    whose energy equals the library energy of its recipe, bit for bit."""
    result = doc.get("result") or {}
    problems = []
    if status != 200 or result.get("status") != "ok":
        problems.append(f"HTTP {status}: {doc}")
    elif result.get("cache") != "epol":
        problems.append(f"cache level {result.get('cache')!r}, not epol")
    elif result.get("energy_hex") != expected_hex:
        problems.append(f"energy {result.get('energy_hex')} differs from "
                        f"the library's {expected_hex}")
    return problems


class Server:
    """``repro serve --http`` in a subprocess (context manager)."""

    def __init__(self, alive_s: float) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--http",
               "--port", "0", "--shards", str(SHARDS),
               "--shard-backend", "process",
               "--workers", str(WORKERS_PER_SHARD),
               "--http-token", f"ledger:{TOKEN}",
               "--http-rate", "1e9", "--http-burst", "1000000000",
               "--http-duration", str(alive_s)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True, env=spec.child_env(),
                                     cwd=spec.ROOT)
        line = self.proc.stdout.readline()
        found = re.search(r"http://([0-9.]+):(\d+)", line)
        if not found:
            self.close()
            raise RuntimeError(f"http_warm: server did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=60)

    def peak_rss_mib(self) -> float:
        """Summed ``VmHWM`` of the server and its shard processes."""
        pids = [self.proc.pid] + spec.child_pids(self.proc.pid)
        return sum(spec.vm_hwm_mib(pid) for pid in pids)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _post(conn: HTTPConnection, payload: str) -> Tuple[int, dict]:
    conn.request("POST", "/v1/solve", payload, HEADERS)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _prime(server: Server, recs: List[Recipe]) -> None:
    """Cold-solve every recipe once, over ``CLIENTS`` connections."""
    errors: List[str] = []

    def work(part: List[Recipe]) -> None:
        conn = server.connect()
        try:
            for rec in part:
                status, doc = _post(conn, body(rec))
                if status != 200:
                    errors.append(f"priming {rec}: HTTP {status}: {doc}")
        finally:
            conn.close()

    threads = [threading.Thread(target=work, args=(recs[c::CLIENTS],))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError("; ".join(errors))


def _closed_loop(server: Server, recs: List[Recipe], expected: Dict,
                 seconds: float, trace_after: float) -> List[tuple]:
    """``CLIENTS`` keep-alive clients, each sending its next request
    when the last one returns.  Rows are ``(t_start, latency_s,
    problems, result)``; tracing turns on ``trace_after`` seconds in."""
    rows: List[List[tuple]] = [[] for _ in range(CLIENTS)]
    t_zero = time.perf_counter()
    t_end = t_zero + seconds

    def client(c: int) -> None:
        conn = server.connect()
        k = 0
        try:
            while time.perf_counter() < t_end:
                if (c == 0 and not obs.is_enabled()
                        and time.perf_counter() - t_zero >= trace_after):
                    obs.enable()
                rec = recs[(c + CLIENTS * k) % len(recs)]
                payload = body(rec, f"warm-{c}-{k}")
                t0 = time.perf_counter()
                with obs.span("bench.edge.http", cat="bench"):
                    status, doc = _post(conn, payload)
                dt = time.perf_counter() - t0
                rows[c].append((t0 - t_zero, dt,
                                check_response(status, doc, expected[rec]),
                                doc.get("result") or {}))
                k += 1
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    obs.disable()
    return sorted((row for per_client in rows for row in per_client),
                  key=lambda row: row[0])


def _library(recs: List[Recipe]) -> Tuple[Dict[Recipe, str], float]:
    """Library energies of every recipe, and the seconds spent building
    the recipe molecules (what the edge pays per new recipe)."""
    from repro.guard.solver import GuardedSolver
    from repro.molecules.generator import synthetic_protein
    energies: Dict[Recipe, str] = {}
    build = 0.0
    for atoms, seed in recs:
        t0 = time.perf_counter()
        mol = synthetic_protein(atoms, seed=seed)
        build += time.perf_counter() - t0
        energies[(atoms, seed)] = GuardedSolver(mol).report().energy.hex()
    return energies, build


def run(seed: int, seconds: float, trace: bool,
        trace_dir: str = "") -> Dict[str, object]:
    recs = recipes(seed)
    expected, recipe_build_s = _library(recs)
    alive = seconds + SERVER_GRACE_S
    setups = []
    server = None
    try:
        for _ in range(3):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            server = Server(alive)
            _prime(server, recs)
            setups.append(time.perf_counter() - t0)
        if trace:
            obs.enable(reset=True)
            obs.disable()
        rows = _closed_loop(server, recs, expected, seconds,
                            seconds / 2 if trace else float("inf"))
        if trace:
            healthz = _healthz_ms(server)
        peak = server.peak_rss_mib()
    finally:
        if server is not None:
            server.close()
    problems = [p for row in rows for p in row[2]]
    failed = sum(bool(row[2]) for row in rows)
    lat_ms = [row[1] * 1e3 for row in rows]
    if not trace:
        elapsed = max(row[0] + row[1] for row in rows)
        return {
            "attempted": len(rows), "failed": failed,
            "problems": problems,
            "metrics": {
                "setup_s": metric(median(setups), "s"),
                "lat_p90_ms": metric(percentile(lat_ms, 90), "ms"),
                "lat_mean_ms": metric(sum(lat_ms) / len(lat_ms), "ms"),
                "rps": metric(len(rows) / elapsed, "1/s"),
                "peak_rss_mb": metric(peak, "MiB"),
            },
        }

    plain = [x for row, x in zip(rows, lat_ms) if row[0] < seconds / 2]
    traced = lat_ms[len(plain):]
    handle_ms, handle_problems = _in_process_handle_ms(recs, expected, seed)
    problems += handle_problems
    if trace_dir:
        spec.write_trace(trace_dir, "http_warm")
    results = [row[3] for row in rows]
    shards = Counter(r.get("shard", -1) for r in results)
    m = serve_layer_metrics(
        [(r.get("cache", ""), r.get("wait_seconds", 0.0),
          r.get("service_seconds", 0.0)) for r in results])
    m.update({
        "edge.http.healthz_ms_p50": metric(healthz, "ms"),
        "edge.handle_ms_p50": metric(handle_ms, "ms"),
        "edge.transport_ms_p50": metric(median(plain) - handle_ms, "ms"),
        "edge.recipe_build_s": metric(recipe_build_s, "s"),
        "fleet.shard_share_max": metric(
            max(shards.values()) / len(results), "fraction"),
        "slo_attain": metric(
            sum(x <= SLO_MS and not row[2]
                for row, x in zip(rows, lat_ms)) / len(rows), "fraction"),
        "trace.overhead_frac": metric(
            median(traced) / median(plain) - 1.0,
            "fraction"),
    })
    return {"attempted": len(rows), "failed": failed, "problems": problems,
            "metrics": m}


def _healthz_ms(server: Server) -> float:
    """Median keep-alive ``GET /healthz``: the transport floor."""
    conn = server.connect()
    times = []
    try:
        for _ in range(HEALTHZ_PROBES):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        conn.close()
    return median(times)


def _in_process_handle_ms(recs: List[Recipe], expected: Dict, seed: int
                          ) -> Tuple[float, List[str]]:
    """Median ``EdgeApp.handle`` time for the same warm bodies, over a
    fleet built like the server's, with no transport in between; and
    the problems with its answers."""
    from repro.edge import EdgeApp, TenantConfig, TenantRegistry
    from repro.fleet import ShardedFleet
    tenants = TenantRegistry([TenantConfig(
        name="ledger", token=TOKEN, rate_per_s=1e9, burst=10**9)])
    times: List[float] = []
    problems: List[str] = []
    with ShardedFleet(shards=SHARDS, backend="process",
                      workers_per_shard=WORKERS_PER_SHARD,
                      supervise=True) as fleet:
        app = EdgeApp(fleet, tenants, seed=seed)
        for rec in recs:
            app.handle("POST", "/v1/solve", HEADERS, body(rec).encode())
        obs.enable()
        for k in range(10 * len(recs)):
            rec = recs[k % len(recs)]
            payload = body(rec, f"handle-{k}").encode()
            t0 = time.perf_counter()
            with obs.span("bench.edge.handle", cat="bench"):
                resp = app.handle("POST", "/v1/solve", HEADERS, payload)
            times.append((time.perf_counter() - t0) * 1e3)
            problems += check_response(resp.status, resp.json,
                                       expected[rec])
        obs.disable()
    return median(times), problems
