"""Workload loading: one recipe decoder, tenant attribution survives
every expansion."""

from __future__ import annotations

import json

import pytest

from repro.constants import TAU_WATER
from repro.serve import load_workload

TRACE = {
    "requests": [
        {"atoms": 80, "seed": 1, "tenant": "acme", "repeat": 3,
         "eps_epol": 0.5},
        {"atoms": 90, "seed": 2},                      # default tenant
        {"atoms": 80, "seed": 1, "tenant": "zed", "repeat": 2,
         "priority": 1},
    ],
}


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(TRACE), encoding="utf-8")
    return path


def test_tenant_round_trips_through_repeat_expansion(trace_file):
    requests = load_workload(trace_file)
    assert [r.tenant for r in requests] == \
        ["acme"] * 3 + ["default"] + ["zed"] * 2
    # Repeat-expanded copies are the *same* request object — one
    # molecule build, identical fingerprints, so they coalesce.
    assert requests[0] is requests[1] is requests[2]
    # Tenant is attribution only: acme's and zed's entries share the
    # (atoms=80, seed=1) recipe, so they share one molecule build —
    # cross-tenant coalescing stays content-based.
    assert requests[0].molecule is requests[5].molecule
    assert requests[0].tenant != requests[5].tenant


def _write(tmp_path, entries):
    path = tmp_path / "wl.json"
    path.write_text(json.dumps({"requests": entries}), encoding="utf-8")
    return path


@pytest.mark.parametrize("bad", [{"atoms": 80, "bogus": 1},
                                 {"atoms": 0},
                                 {"atoms": "many"}])
def test_bad_entry_names_its_index(tmp_path, bad):
    path = _write(tmp_path, [{"atoms": 80}, bad])
    with pytest.raises(ValueError, match="entry 1"):
        load_workload(path)


def test_idempotency_key_is_tenant_namespaced_and_tau_arrives(tmp_path):
    path = _write(tmp_path, [
        {"atoms": 80, "idempotency_key": "k", "tenant": "acme",
         "tau": 0.5},
        {"atoms": 80, "idempotency_key": "k"},
        {"atoms": 80},
    ])
    acme, default, plain = load_workload(path)
    assert acme.key() == "acme:k" and default.key() == "default:k"
    assert acme.tau == 0.5 and plain.tau == TAU_WATER


def test_bad_workload_files_are_rejected(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_workload(empty)
    noatoms = tmp_path / "noatoms.json"
    noatoms.write_text('[{"seed": 1}]', encoding="utf-8")
    with pytest.raises(ValueError):
        load_workload(noatoms)
