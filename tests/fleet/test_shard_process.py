"""ProcessShard: the multiprocessing backend keeps the shard contract
(bitwise energies, cancellation, death detection) across a real OS
process boundary."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.fleet import ProcessShard, ShardedFleet, ThreadShard
from repro.molecules import synthetic_protein
from repro.serve import SolveRequest

ATOMS = 60


def _req(i, key=None):
    return SolveRequest(molecule=synthetic_protein(ATOMS, seed=40 + i),
                        idempotency_key=key or f"proc-{i}")


def test_process_shard_energy_matches_thread_shard_bitwise():
    ts, ps = ThreadShard(0), ProcessShard(1)
    try:
        want = ts.submit(_req(0, key="a")).result(timeout=120.0)
        got = ps.submit(_req(0, key="a")).result(timeout=120.0)
        assert want.status == "ok" and got.status == "ok"
        assert float(want.energy).hex() == float(got.energy).hex()
        assert got.shard == 1
    finally:
        ts.close()
        ps.close()


def test_process_shard_ping_stats_and_pending():
    shard = ProcessShard(0)
    try:
        assert shard.ping()
        t = shard.submit(_req(1))
        assert t.result(timeout=120.0).status == "ok"
        assert shard.pending == 0   # on_done pruned the ticket map
        stats = shard.stats()
        assert stats.submitted == 1 and stats.completed == 1
    finally:
        shard.close()


def test_killed_process_shard_fails_fast_and_pings_dead():
    shard = ProcessShard(0)
    try:
        assert shard.submit(_req(2)).result(timeout=120.0).status == "ok"
        shard.kill()
        assert not shard.ping()
        # a request fed to the dead child is failed by the feeder, not
        # stranded
        res = shard.submit(_req(3)).result(timeout=30.0)
        assert res.status == "failed"
        assert "died" in res.error
    finally:
        shard.close()


def test_process_shard_death_reroutes_inflight_request():
    """Regression: a child dying with a request on the wire used to
    fail the fleet ticket terminally.  The router now treats the
    feeder's died-mid-request result as a shard crash — fail-over plus
    re-route to the ring successor — so every ticket still lands ok."""
    reqs = [_req(30 + i) for i in range(3)]
    with ShardedFleet(shards=2, backend="process") as fleet:
        target = fleet.router.assignment(reqs[0])
        victim = fleet.router.shard(target)
        tickets = [fleet.submit(r) for r in reqs]
        victim._proc.terminate()            # hard child death, no kill()
        assert fleet.drain(timeout=120.0)
        results = [t.result(timeout=0.0) for t in tickets]
        assert all(r.status == "ok" for r in results), results
        assert target in fleet.stats().dead


def test_concurrent_same_route_submits_keep_child_alive():
    """Regression: the _sent_routes test-and-set raced concurrent
    submits of one route, so a payload-less message could reach the
    child before the payload-bearing one — KeyError in the RPC loop,
    dead shard.  The test-and-set and the enqueue now share the shard
    lock, making the payload message strictly first for its route."""
    import threading

    shard = ProcessShard(0)
    mol = synthetic_protein(ATOMS, seed=99)
    try:
        tickets = [None] * 8

        def go(i):
            tickets[i] = shard.submit(SolveRequest(
                molecule=mol, idempotency_key=f"race-{i}"))

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [t.result(timeout=120.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        assert shard.ping()
    finally:
        shard.close()


def test_unknown_route_is_typed_failure_not_shard_death():
    """The child answers a payload-less message for a route it never
    received with a typed failure instead of dying on KeyError."""
    shard = ProcessShard(0)
    try:
        req = _req(5)
        with shard._lock:                   # withhold the payload
            shard._sent_routes[req.route_key()] = True
        res = shard.submit(req).result(timeout=120.0)
        assert res.status == "failed"
        assert "unknown route" in res.error
        assert shard.ping()                 # the shard survived
        with shard._lock:
            shard._sent_routes.pop(req.route_key())
        ok = shard.submit(_req(5, key="retry")).result(timeout=120.0)
        assert ok.status == "ok"
    finally:
        shard.close()


def test_fleet_process_backend_end_to_end():
    reqs = [_req(10 + i) for i in range(4)]
    with ShardedFleet(shards=2, backend="process") as fleet:
        tickets = [fleet.submit(r) for r in reqs]
        assert fleet.drain(timeout=120.0)
        results = [t.result(timeout=0.0) for t in tickets]
        assert all(r.status == "ok" for r in results)
        assert {r.shard for r in results} <= {0, 1}


def _running(pid):
    """True while ``pid`` exists and is not a zombie (an orphan that
    exited may wait unreaped under a container's init)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
def test_process_shards_exit_when_their_parent_dies():
    """Regression: each forked child held a copy of its own parent-side
    pipe end (and every earlier shard's), so its recv() never saw EOF
    when the parent died — orphaned shards outlived a killed server
    and kept its stdout pipe open."""
    script = textwrap.dedent("""
        import time
        from repro.fleet import ShardedFleet
        fleet = ShardedFleet(shards=2, backend="process")
        print(*(s._proc.pid for s in fleet.shards), flush=True)
        time.sleep(120)
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        children = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(children) == 2
        parent.send_signal(signal.SIGTERM)
        parent.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while (any(_running(pid) for pid in children)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        survivors = [pid for pid in children if _running(pid)]
        for pid in survivors:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert not survivors, f"shards outlived their parent: {survivors}"
    finally:
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
