"""Fleet chaos harness: the quick matrix CI gates on, plus the
byte-determinism contract of the JSON report."""

import json

import pytest

import repro.faults.chaos as chaos
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.fleet import ShardedFleet


@pytest.fixture(scope="module")
def report():
    return run_chaos("fleet", seed=0, quick=True)


class TestFleetMatrix:
    def test_quick_matrix_all_pass(self, report):
        assert report.all_passed
        assert [r.name for r in report.results] == list(SCENARIOS["fleet"])
        for res in report.results:
            assert res.passed, f"{res.name}: {res.notes}"
            assert res.stranded == 0
            assert res.pending == 0
            assert res.parity
            assert res.deterministic

    def test_fault_scenarios_actually_faulted(self, report):
        by_name = {r.name: r for r in report.results}
        assert by_name["clean"].summary["fleet"]["rerouted"] == 0
        kill = by_name["kill-shard-mid-batch"].summary["fleet"]
        assert len(kill["dead"]) == 1 and kill["rerouted"] >= 1
        kill2 = by_name["kill-two"].summary["fleet"]
        assert len(kill2["dead"]) == 2
        stall = by_name["stall-failover"].summary
        assert stall["fleet"]["degraded"] and not stall["fleet"]["dead"]
        assert stall["stalled_alive"] is True
        reb = by_name["rebalance-under-load"].summary
        assert reb["moves"] >= 1
        assert by_name["overload-shed"].summary["fleet"]["shed"] >= 1

    def test_rerouted_results_keep_bitwise_energy(self, report):
        kill = next(r for r in report.results
                    if r.name == "kill-shard-mid-batch")
        energies = [row["energy_hex"]
                    for row in kill.summary["results"].values()]
        assert energies and all(e is not None for e in energies)

    def test_json_round_trips_and_has_no_wall_clock(self, report):
        doc = json.loads(report.to_json())
        assert doc["all_passed"] is True
        assert len(doc["scenarios"]) == len(SCENARIOS["fleet"])
        text = report.to_json()
        for banned in ("wait_seconds", "service_seconds", "wall",
                       "timestamp", "elapsed"):
            assert banned not in text

    def test_json_is_byte_deterministic_across_runs(self, report):
        again = run_chaos("fleet", seed=0, quick=True)
        assert again.to_json() == report.to_json()


class _ProcessFleet(ShardedFleet):
    """A fleet whose shards default to the process backend."""

    def __init__(self, *args, backend="process", **kwargs):
        super().__init__(*args, backend=backend, **kwargs)


def test_matrix_on_process_shards_matches_thread_report(report,
                                                        monkeypatch):
    """The same six scenarios pass on process shards, with the thread
    report's bytes: stalls, cancels and deadlines act in the parent's
    service on both backends.  The header still says thread: the
    harness has no backend switch."""
    monkeypatch.setattr(chaos, "ShardedFleet", _ProcessFleet)
    on_procs = run_chaos("fleet", seed=0, quick=True)
    for res in on_procs.results:
        assert res.passed, f"{res.name}: {res.notes}"
    assert on_procs.to_json() == report.to_json()
