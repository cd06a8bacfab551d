"""Tests of the layer ledger itself, at tiny sizes.

    pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json

import pytest

import spec
import coldpath
import compare
import run as ledger
import wl_http
import wl_serve
import wl_solve

#: The program's modules, plus the ledger's own generator and tracer.
MODULES = {"molecules", "octree", "core", "guard", "serve", "fleet",
           "edge", "ledger"}
UNIT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_/%.-")


@pytest.fixture(scope="module")
def bench():
    return spec.load_benchmark()


def test_names_and_units_follow_the_contract(bench):
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(names) == len(set(names))
    assert all(spec.NAME_RE.match(n) for n in names), names
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert set(m["unit"]) <= UNIT_CHARS and len(m["unit"]) <= 16
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert {w["name"] for w in bench["workloads"]} == {
        "solve_large", "solve_small", "serve_dock", "http_warm"}


def test_ledger_metadata_names_exist(bench):
    with open(spec.ROOT / "benchmarks" / "ledger" / "ledger.json",
              encoding="utf-8") as fh:
        meta = json.load(fh)
    layer = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(meta["layer_metrics"]) == layer
    for name, entry in meta["layer_metrics"].items():
        assert entry["module"] in MODULES, name
        assert set(entry["moves"]) <= workloads, name
        assert all(set(ms) <= e2e for ms in entry["moves"].values()), name
    for workload, metrics in meta["baseline"]["workloads"].items():
        assert workload in workloads
        assert set(metrics) <= e2e


@pytest.mark.parametrize("atoms,seed", [(250, 0), (1500, 1)])
def test_replay_reproduces_guarded_energy_bitwise(atoms, seed):
    guarded = coldpath.cold_solve(atoms, seed)
    replayed = coldpath.replay(atoms, seed)
    assert guarded.rung == "primary"
    assert replayed.energy.hex() == guarded.energy.hex()
    assert set(replayed.seconds) >= set(coldpath.KERNEL_LAYERS)


def test_http_parity_check_rejects_a_wrong_energy():
    good = {"result": {"status": "ok", "cache": "epol",
                       "energy_hex": (-1.5).hex()}}
    assert wl_http.check_response(200, good, (-1.5).hex()) == []
    assert wl_http.check_response(200, good, (-1.25).hex())
    cold = {"result": dict(good["result"], cache="cold")}
    assert wl_http.check_response(200, cold, (-1.5).hex())
    assert wl_http.check_response(429, {"error": "rate"}, (-1.5).hex())


def _ledger_file(tmp_path, name, values):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"workloads": {"solve_small": {"metrics": {
        "lat_mean_ms": {"value": values[0], "unit": "ms"},
        "rps": {"value": values[1], "unit": "1/s"}}}}}))
    return str(path)


def _verdicts(tmp_path, parent, change):
    rows = compare.compare(
        [_ledger_file(tmp_path, f"p{i}", v) for i, v in enumerate(parent)],
        [_ledger_file(tmp_path, f"c{i}", v) for i, v in enumerate(change)])
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_verdicts(tmp_path):
    steady = [(100.0 + i % 3, 10.0 + i % 2 * 0.1) for i in range(10)]
    assert _verdicts(tmp_path, steady, steady) == {
        "lat_mean_ms": "within bound", "rps": "within bound"}
    slower = [(150.0 + i % 3, 6.0 + i % 2 * 0.1) for i in range(10)]
    assert _verdicts(tmp_path, steady, slower) == {
        "lat_mean_ms": "regressed", "rps": "regressed"}
    faster = [(90.0 + i % 3, 11.0 + i % 2 * 0.1) for i in range(10)]
    assert _verdicts(tmp_path, steady, faster) == {
        "lat_mean_ms": "improved", "rps": "improved"}
    # Nine pairs are too few to claim a gain, however clear.
    assert _verdicts(tmp_path, steady[:9], faster[:9]) == {
        "lat_mean_ms": "within bound", "rps": "within bound"}
    noisy = [(50.0 + 100.0 * (i % 2), 10.0) for i in range(10)]
    assert _verdicts(tmp_path, noisy, steady)["lat_mean_ms"] == "unresolved"


def test_compare_main_exit_status(tmp_path):
    parent = [_ledger_file(tmp_path, "p", (100.0, 10.0))]
    change = [_ledger_file(tmp_path, "c", (200.0, 10.0))]
    assert compare.main(parent + ["--"] + parent) == 0
    assert compare.main(parent + ["--"] + change) == 1
    assert compare.main(parent) == 2


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_solve_run_reports_its_metrics(monkeypatch, trace):
    monkeypatch.setitem(wl_solve.SIZES, "solve_small", (60, 2))
    monkeypatch.setattr(wl_solve, "WARMUP_ATOMS", 60)
    res = ledger.run_workload("solve_small", 3, 0.0, trace, "")
    assert res["correct"], res
    assert res["attempted"] >= 2
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_serve_run_is_bitwise_consistent(monkeypatch):
    monkeypatch.setattr(wl_serve, "BASE_ATOMS", (60, 90, 120))
    res = ledger.run_workload("serve_dock", 2, 1.0, False, "")
    assert res["correct"], res
    assert res["attempted"] == round(wl_serve.RATE * 1.0)


def test_tiny_http_run_answers_from_the_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(wl_http, "RECIPE_ATOMS", (60, 90))
    monkeypatch.setattr(wl_http, "HEALTHZ_PROBES", 3)
    res = ledger.run_workload("http_warm", 1, 0.5, True, str(tmp_path))
    assert res["correct"], res
    assert res["metrics"]["serve.share.epol"]["value"] == 1.0
    assert (tmp_path / "http_warm.trace.json").exists()
