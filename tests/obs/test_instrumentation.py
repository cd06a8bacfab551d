"""End-to-end: the solver/cluster instrumentation feeds obs correctly."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.config import ApproxParams
from repro.core.solver import PolarizationSolver
from repro.molecules import synthetic_protein
from repro.obs.export import solver_phase_times
from repro.obs.tracer import VIRTUAL_PID
from repro.parallel import (
    WorkProfile,
    run_fig4_simmpi,
    simulate_fig4,
)


@pytest.fixture
def observed():
    """Enable obs from a clean slate; always leave it off afterwards."""
    obs.enable(reset=True)
    yield obs
    obs.disable()
    obs.get_tracer().reset()
    obs.registry.reset()


PARAMS = ApproxParams(eps_born=0.9, eps_epol=0.9)


def test_solver_records_all_five_phases(observed):
    mol = synthetic_protein(300, seed=3)     # surface sampled while on
    PolarizationSolver(mol, PARAMS).energy()
    times = solver_phase_times(obs.get_tracer())
    assert list(times) == ["sample_surface", "octree_build", "born",
                           "push", "epol"]
    assert all(t > 0.0 for t in times.values())


def test_traversals_split_into_far_and_near_spans(observed):
    PolarizationSolver(synthetic_protein(300, seed=3), PARAMS).energy()
    spans = {ev["args"]["span_id"]: ev for ev in obs.get_tracer().events()
             if ev["ph"] == "X"}
    for parent in ("born.approx_integrals", "epol.traversal"):
        for part in ("far", "near"):
            subs = [ev for ev in spans.values()
                    if ev["name"] == f"{parent}.{part}"]
            assert subs, f"no {parent}.{part} span"
            assert all(spans[ev["args"]["parent_id"]]["name"] == parent
                       for ev in subs)


def test_traversal_metrics_populated(observed, protein_small):
    PolarizationSolver(protein_small, PARAMS).energy()
    snap = obs.registry.collect()
    for name in ("born.mac_accepts", "born.exact_interactions",
                 "epol.exact_interactions", "epol.frontier_visits"):
        assert snap[name]["value"] > 0, name
    assert snap["epol.nbuckets"]["value"] >= 1
    assert snap["born.leaf_visits"]["count"] > 0
    assert snap["epol.bucket_occupancy"]["count"] > 0


def test_metrics_capture_is_off_by_default(protein_small):
    obs.disable()
    obs.registry.reset()
    PolarizationSolver(protein_small, PARAMS).energy()
    assert obs.registry.names() == []
    assert obs.get_tracer().events() == []


def test_simmpi_collectives_carry_payload_bytes(observed, protein_small):
    run_fig4_simmpi(protein_small, PARAMS, processes=3)
    events = obs.get_tracer().events()
    comm = [ev for ev in events if ev.get("pid") == VIRTUAL_PID
            and ev.get("cat") == "comm"]
    assert {ev["name"] for ev in comm} >= {"allreduce", "allgather"}
    allreduce = [ev for ev in comm if ev["name"] == "allreduce"]
    assert {ev["tid"] for ev in allreduce} == {0, 1, 2}
    assert all(ev["args"]["payload_bytes"] > 0 for ev in allreduce)


def test_simulate_fig4_timeline_and_tracks(observed, protein_small):
    profile = WorkProfile.from_molecule(protein_small, PARAMS)
    stats = simulate_fig4(profile, 4, 6, seed=1)
    assert stats.timeline
    assert {s.rank for s in stats.timeline} == {0, 1, 2, 3}
    kinds = {s.kind for s in stats.timeline}
    assert kinds <= {"comp", "comm", "idle"} and "comm" in kinds
    comm_bytes = [s.payload_bytes for s in stats.timeline
                  if s.kind == "comm"]
    assert max(comm_bytes) > 0
    # Timeline converts into one Chrome track per rank.
    events = obs.runstats_events(stats)
    assert {ev["tid"] for ev in events if ev["ph"] == "X"} == {0, 1, 2, 3}
    # Steal events from the intra-rank schedulers landed on the tracer.
    steals = [ev for ev in obs.get_tracer().events()
              if ev["name"] == "steal"]
    assert len(steals) == stats.steals()


def test_runstats_summary_reports_idle_and_steals(observed,
                                                 protein_small):
    profile = WorkProfile.from_molecule(protein_small, PARAMS)
    stats = simulate_fig4(profile, 4, 6, seed=1)
    text = stats.summary()
    assert "idle=" in text and "steals=" in text
    assert stats.steals() == sum(r.steals for r in stats.ranks)
    assert stats.idle_seconds() >= 0.0


def test_workprofile_from_solver_matches_from_molecule(protein_small):
    solver = PolarizationSolver(protein_small, PARAMS)
    prof = WorkProfile.from_solver(solver)
    ref = WorkProfile.from_molecule(protein_small, PARAMS)
    assert prof.natoms == ref.natoms
    assert prof.nbuckets == ref.nbuckets
    assert prof.energy == pytest.approx(ref.energy)
    assert np.allclose(prof.born_radii, ref.born_radii)
    assert prof.data_bytes == ref.data_bytes
    with pytest.raises(ValueError):
        WorkProfile.from_solver(
            PolarizationSolver(protein_small, method="naive"))


def test_dualtree_also_records_metrics(observed, protein_small):
    PolarizationSolver(protein_small, PARAMS, method="dualtree").energy()
    snap = obs.registry.collect()
    assert snap["born.frontier_visits"]["value"] > 0
    assert snap["epol.bucket_occupancy"]["count"] > 0
