"""Checkpoint/recovery: shrink semantics and the fault-tolerant solver."""

import numpy as np
import pytest

from repro.cluster.simmpi import SimCluster
from repro.config import ApproxParams
from repro.faults import (
    CollectiveAbortedError,
    FaultPlan,
    RankCrash,
    Straggler,
)
from repro.molecules.generator import synthetic_protein
from repro.parallel.distributed import (
    _Checkpoint,
    _contiguous_runs,
    _reassign_lost,
    run_fig4_simmpi,
)

PARAMS = ApproxParams()


@pytest.fixture(scope="module")
def molecule():
    return synthetic_protein(160, seed=11)


@pytest.fixture(scope="module")
def reference(molecule):
    return run_fig4_simmpi(molecule, PARAMS, processes=4)


@pytest.fixture(scope="module")
def atom_reference(molecule):
    return run_fig4_simmpi(molecule, PARAMS, processes=4,
                           work_division="atom")


class TestHelpers:
    def test_checkpoint_first_write_wins_and_copies(self):
        ckpt = _Checkpoint()
        arr = np.arange(4, dtype=np.float64)
        ckpt.put("integrals", arr)
        ckpt.put("integrals", np.zeros(4))     # ignored: already set
        arr[0] = -1.0                           # caller mutation is private
        got = ckpt.get("integrals")
        assert np.array_equal(got, [0.0, 1.0, 2.0, 3.0])
        got[1] = 99.0                           # reader mutation is private
        assert ckpt.get("integrals")[1] == 1.0
        assert ckpt.get("missing") is None
        assert ckpt.names() == ["integrals"]

    def test_reassign_lost_splits_dead_work_evenly(self):
        owner = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
        _reassign_lost(owner, newly_dead=(1, 3), alive=(0, 2))
        # Dead ranks' four blocks split 2/2 between the survivors,
        # in index order — deterministic on every rank.
        assert owner.tolist() == [0, 0, 0, 0, 2, 2, 2, 2]
        assert not set(owner.tolist()) & {1, 3}

    def test_reassign_lost_noop_when_nothing_lost(self):
        owner = np.zeros(5, dtype=np.int64)
        _reassign_lost(owner, newly_dead=(3,), alive=(0,))
        assert owner.tolist() == [0] * 5

    def test_contiguous_runs(self):
        mask = np.array([1, 1, 0, 1, 0, 0, 1], dtype=bool)
        assert _contiguous_runs(mask) == [(0, 2), (3, 4), (6, 7)]
        assert _contiguous_runs(np.zeros(3, dtype=bool)) == []
        assert _contiguous_runs(np.ones(3, dtype=bool)) == [(0, 3)]


class TestShrink:
    def test_shrink_reports_newly_dead_and_new_group(self):
        plan = FaultPlan([RankCrash(rank=2, phase="work")])
        cluster = SimCluster(4, fault_plan=plan, timeout=10.0)

        def fn(comm):
            comm.compute(0.5, label="work")
            try:
                comm.allreduce(1.0)
            except CollectiveAbortedError as exc:
                info = comm.shrink()
                assert exc.dead == info.newly_dead
                # The shrunken group works.
                total = comm.allreduce(1.0)
                return info.epoch, info.alive, info.newly_dead, total
            raise AssertionError("collective should have aborted")

        results, stats = cluster.run(fn)
        assert results[2] is None
        for r in (0, 1, 3):
            epoch, alive, newly_dead, total = results[r]
            assert epoch == 1
            assert alive == (0, 1, 3)
            assert newly_dead == (2,)
            assert total == pytest.approx(3.0)
        assert stats.recoveries == 1


class TestFaultTolerantSolve:
    @pytest.mark.parametrize("phase", ["born", "push", "epol"])
    def test_recovers_from_crash_in_each_phase(self, molecule, reference,
                                               phase):
        plan = FaultPlan([RankCrash(rank=2, phase=phase)])
        out = run_fig4_simmpi(molecule, PARAMS, processes=4,
                              fault_plan=plan)
        assert out.energy == pytest.approx(reference.energy, rel=1e-12)
        assert np.allclose(out.born_radii, reference.born_radii,
                           rtol=1e-12, atol=0.0)
        assert out.stats.faults == 1
        assert out.stats.recoveries == 1
        assert "recoveries=1" in out.stats.summary()
        if phase == "born":
            # Guaranteed re-execution: the first collective can never
            # complete without the dead rank, so its Q-leaves are
            # always recomputed as recovery work.  For later phases
            # survivors may instead detect the death while draining
            # the *previous* phase's collective, recover its result
            # from the dead rank's checkpoint, and absorb the lost
            # blocks as primary work on the shrunken group — a valid
            # schedule in which nothing is re-executed.
            assert out.stats.recovery_seconds() > 0.0

    def test_recovers_when_rank_zero_dies(self, molecule, reference):
        """The master itself is expendable: the effective root moves."""
        plan = FaultPlan([RankCrash(rank=0, phase="epol")])
        out = run_fig4_simmpi(molecule, PARAMS, processes=4,
                              fault_plan=plan)
        assert out.energy == pytest.approx(reference.energy, rel=1e-12)

    def test_recovers_from_double_crash(self, molecule, reference):
        plan = FaultPlan([RankCrash(rank=1, phase="born"),
                          RankCrash(rank=3, phase="epol")])
        out = run_fig4_simmpi(molecule, PARAMS, processes=4,
                              fault_plan=plan)
        assert out.energy == pytest.approx(reference.energy, rel=1e-12)
        assert out.stats.faults == 2
        assert out.stats.recoveries == 2

    def test_straggler_changes_time_not_energy(self, molecule, reference):
        plan = FaultPlan([Straggler(rank=1, factor=3.0)])
        out = run_fig4_simmpi(molecule, PARAMS, processes=4,
                              fault_plan=plan)
        assert reference.stats.faults == 0
        assert reference.stats.recoveries == 0
        assert out.energy == reference.energy
        assert out.stats.wall_seconds > reference.stats.wall_seconds

    def test_recovery_is_deterministic(self, molecule):
        """Results are bit-reproducible run over run.  (Virtual *time*
        is not part of the contract under crashes: where the death is
        detected — this phase's collective or the tail of the previous
        one — depends on thread scheduling and shifts the cost
        breakdown, but never the numbers.)"""
        plan = FaultPlan([RankCrash(rank=2, phase="push")])
        a = run_fig4_simmpi(molecule, PARAMS, processes=4, fault_plan=plan)
        b = run_fig4_simmpi(molecule, PARAMS, processes=4, fault_plan=plan)
        assert a.energy == b.energy                  # bitwise
        assert np.array_equal(a.born_radii, b.born_radii)
        assert a.stats.faults == b.stats.faults
        assert a.stats.recoveries == b.stats.recoveries

    @pytest.mark.parametrize("phase, rel", [("born", 0.02),
                                            ("push", 1e-12),
                                            ("epol", 1e-12)],
                             ids=["born", "push", "epol"])
    def test_atom_division_recovers_from_crash_in_each_phase(
            self, molecule, atom_reference, phase, rel):
        """Atom division recovers bit-reproducibly.  A Born-phase
        recovery re-cuts the dead rank's atom range, which moves the
        far-field deposits, so that phase is held to the envelope atom
        division already has across P; a later crash sees the
        fault-free integrals and changes only the summation order."""
        plan = FaultPlan([RankCrash(rank=2, phase=phase)])
        a, b = (run_fig4_simmpi(molecule, PARAMS, processes=4,
                                work_division="atom", fault_plan=plan)
                for _ in range(2))
        assert a.energy == b.energy                  # bitwise
        assert np.array_equal(a.born_radii, b.born_radii)
        assert a.stats.faults == 1
        assert a.stats.recoveries == 1
        assert a.energy == pytest.approx(atom_reference.energy, rel=rel)
