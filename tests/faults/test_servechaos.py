"""Serve chaos harness: the quick matrix CI gates on, plus the
byte-determinism contract of the JSON report."""

import json

import pytest

from repro.faults.chaos import SCENARIOS, run_chaos


@pytest.fixture(scope="module")
def report():
    return run_chaos("serve", seed=0, quick=True)


class TestServeMatrix:
    def test_quick_matrix_all_pass(self, report):
        assert report.all_passed
        assert [r.name for r in report.results] == list(SCENARIOS["serve"])
        for res in report.results:
            assert res.passed, f"{res.name}: {res.notes}"
            assert res.stranded == 0
            assert res.pending == 0
            assert res.parity
            assert res.deterministic

    def test_fault_scenarios_actually_faulted(self, report):
        by_name = {r.name: r for r in report.results}
        assert by_name["crash-mid-batch"].summary["counters"][
            "worker_crashes"] == 1
        assert by_name["crash-double"].summary["counters"][
            "worker_crashes"] == 2
        assert by_name["straggler-hedge"].summary["counters"][
            "hedge_wins"] == 1
        assert by_name["disk-storm"].summary["counters"][
            "breaker_opens"] == 1
        assert by_name["overload-shed"].summary["counters"]["shed"] == 5
        poisoned = by_name["cache-poison"].summary["results"]
        assert poisoned["poison-b"]["status"] == "degraded"

    def test_requeued_results_keep_bitwise_energy(self, report):
        # Parity with the fault-free twin is asserted per scenario;
        # spot-check that the crash scenario actually carried energies.
        crash = next(r for r in report.results
                     if r.name == "crash-mid-batch")
        energies = [row["energy_hex"]
                    for row in crash.summary["results"].values()]
        assert energies and all(e is not None for e in energies)

    def test_json_round_trips_and_has_no_wall_clock(self, report):
        doc = json.loads(report.to_json())
        assert doc["all_passed"] is True
        assert len(doc["scenarios"]) == len(SCENARIOS["serve"])
        text = report.to_json()
        # Wall-clock leakage would break byte-determinism between
        # same-seed runs; the report bans timing fields outright.
        for banned in ("wait_seconds", "service_seconds", "wall",
                       "timestamp", "elapsed"):
            assert banned not in text

    def test_json_is_byte_deterministic_across_runs(self, report):
        again = run_chaos("serve", seed=0, quick=True)
        assert again.to_json() == report.to_json()
