"""ProcessShard: the multiprocessing backend keeps the shard contract
(bitwise energies, cancellation, death detection) across a real OS
process boundary."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
import repro.fleet.shard as shard_mod
from repro.cli import main as repro_main
from repro.edge.app import MAX_RECIPES
from repro.fleet import ProcessShard, ShardedFleet, ThreadShard
from repro.fleet.shard import PROC_DIED_ERROR
from repro.molecules import synthetic_protein
from repro.serve import QueueFullError, SolveRequest

ATOMS = 60

#: A cold solve of about half a second: it holds a one-worker shard
#: while the contract tests queue requests behind it.
HOLD_ATOMS = 3000

BACKENDS = pytest.mark.parametrize("backend", [ThreadShard, ProcessShard],
                                   ids=["thread", "process"])


def _req(i, key=None):
    return SolveRequest(molecule=synthetic_protein(ATOMS, seed=40 + i),
                        idempotency_key=key or f"proc-{i}")


def _hold():
    return SolveRequest(molecule=synthetic_protein(HOLD_ATOMS, seed=1),
                        idempotency_key="hold")


def _small(seed, **kw):
    return SolveRequest(molecule=synthetic_protein(200, seed=seed),
                        idempotency_key=f"small-{seed}", **kw)


def _wait_running(shard):
    """Block until the shard's one worker has taken the hold off the
    queue."""
    deadline = time.monotonic() + 30.0
    while shard.queue_depth and time.monotonic() < deadline:
        time.sleep(0.005)
    assert shard.queue_depth == 0


@BACKENDS
def test_queued_request_reports_its_wait(backend):
    shard = backend(0, workers=1, batch_size=1)
    try:
        hold = shard.submit(_hold())
        queued = shard.submit(_small(2))
        first = hold.result(timeout=120.0)
        second = queued.result(timeout=120.0)
        assert first.status == "ok" and second.status == "ok"
        assert first.service_seconds > 0.05
        assert second.wait_seconds >= 0.5 * first.service_seconds
    finally:
        shard.close()


@BACKENDS
def test_full_queue_rejects_at_submit(backend):
    shard = backend(0, workers=1, batch_size=1, queue_capacity=1)
    try:
        hold = shard.submit(_hold())
        _wait_running(shard)
        queued = shard.submit(_small(2))
        with pytest.raises(QueueFullError):
            shard.submit(_small(3))
        assert hold.result(timeout=120.0).status == "ok"
        assert queued.result(timeout=120.0).status == "ok"
    finally:
        shard.close()


@BACKENDS
def test_lower_priority_value_runs_first(backend):
    shard = backend(0, workers=1, batch_size=1)
    try:
        order = []
        hold = shard.submit(_hold())
        _wait_running(shard)
        late = shard.submit(_small(2, priority=5))
        early = shard.submit(_small(3, priority=0))
        for name, ticket in (("late", late), ("early", early)):
            ticket.on_done(lambda _t, n=name: order.append(n))
        results = [t.result(timeout=120.0) for t in (hold, late, early)]
        assert all(r.status == "ok" for r in results)
        assert order == ["early", "late"]
    finally:
        shard.close()


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
        # a call after the kill fails at once, never stranded
        res = shard.submit(_req(3)).result(timeout=30.0)
        assert res.status == "failed"
        assert res.error == PROC_DIED_ERROR
    finally:
        shard.close()


def test_process_shard_death_reroutes_inflight_request():
    """Regression: a child dying with a request on the wire used to
    fail the fleet ticket terminally.  The router now treats the
    shard's died-mid-request result as a shard crash — fail-over plus
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
        shard._routes[req.route_key()] = None  # withhold the payload
        res = shard.submit(req).result(timeout=120.0)
        assert res.status == "failed"
        assert "unknown route" in res.error
        assert shard.ping()                 # the shard survived
        del shard._routes[req.route_key()]
        ok = shard.submit(_req(5, key="retry")).result(timeout=120.0)
        assert ok.status == "ok"
    finally:
        shard.close()


def test_route_memo_is_bounded_and_evicts_in_step(monkeypatch):
    """Regression: the child's molecule memo and the parent's route
    table each gained one entry per distinct route for the server's
    whole life.  Both now keep the latest ROUTE_MEMO routes and evict
    the oldest together, so an evicted route's next call carries its
    molecule again."""
    assert shard_mod.ROUTE_MEMO >= MAX_RECIPES  # a warm edge never evicts
    monkeypatch.setattr(shard_mod, "ROUTE_MEMO", 3)  # before the fork
    shard = ProcessShard(0)
    try:
        energies = []
        for i in range(5):
            res = shard.submit(_req(60 + i)).result(timeout=120.0)
            assert res.status == "ok", res.error
            assert len(shard._routes) <= 3
            energies.append(float(res.energy).hex())
        again = shard.submit(_req(60, key="evicted")).result(timeout=120.0)
        assert again.status == "ok", again.error
        assert float(again.energy).hex() == energies[0]
        assert len(shard._routes) <= 3
    finally:
        shard.close()


def test_deadline_counts_match_thread_shards(tmp_path):
    """Regression: the process wire dropped ``deadline_s`` and the
    outbox ran no clock, so requests queued behind a long solve never
    expired on process shards (4 ok / 0 expired against 1 ok / 3
    expired on thread shards)."""
    workload = tmp_path / "deadline.json"
    workload.write_text(json.dumps({"requests": [
        {"atoms": 3000, "seed": 1},
        *({"atoms": 400, "seed": s, "deadline_s": 0.001}
          for s in (2, 3, 4))]}))
    counts = {}
    for backend in ("thread", "process"):
        out = tmp_path / f"{backend}.json"
        code = repro_main(["serve", "--workload", str(workload),
                           "--shards", "1", "--workers", "1",
                           "--batch-size", "1", "--shard-backend",
                           backend, "--json", str(out)])
        doc = json.loads(out.read_text())
        counts[backend] = (code, doc["ok"], doc["expired"], doc["failed"])
    assert counts["thread"] == (1, 1, 3, 0)
    assert counts["process"] == counts["thread"]


def test_outbox_expiries_count_in_shard_stats():
    """A request expired in a process shard's queue counts as
    submitted and expired, as it does on a thread shard."""
    reqs = [SolveRequest(molecule=synthetic_protein(3000, seed=1)),
            *(SolveRequest(molecule=synthetic_protein(400, seed=s),
                           deadline_s=0.001) for s in (2, 3))]
    seen = {}
    for backend in ("thread", "process"):
        with ShardedFleet(shards=1, backend=backend, workers_per_shard=1,
                          batch_size=1) as fleet:
            tickets = [fleet.submit(r) for r in reqs]
            assert fleet.drain(timeout=120.0)
            st = fleet.shard_stats()[0]
            seen[backend] = ([t.result(timeout=0.0).status
                              for t in tickets],
                             st.submitted, st.completed, st.expired)
    assert seen["thread"] == (["ok", "expired", "expired"], 3, 1, 2)
    assert seen["process"] == seen["thread"]


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
