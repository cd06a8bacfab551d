"""Data-distributed solver tests (paper's future-work extension)."""

import threading

import numpy as np
import pytest

import repro.core.frontier as frontier
import repro.parallel.datadist as datadist
from repro.config import ApproxParams
from repro.core import PolarizationSolver, gb
from repro.core.born_naive import born_radii_naive_r6
from repro.core.energy_naive import epol_naive
from repro.octree.build import build_octree
from repro.parallel import run_fig4_simmpi
from repro.parallel.datadist import run_data_distributed


@pytest.fixture(scope="module")
def reference(protein_medium):
    R = born_radii_naive_r6(protein_medium)
    return R, epol_naive(protein_medium, R)


class TestAccuracy:
    @pytest.mark.parametrize("P", [2, 4])
    def test_energy_within_epsilon_envelope(self, protein_medium,
                                            reference, P):
        _, e_naive = reference
        out = run_data_distributed(protein_medium, ApproxParams(),
                                   processes=P)
        assert abs(out.energy - e_naive) / abs(e_naive) < 0.02

    def test_tight_eps_matches_naive_closely(self, protein_small):
        R = born_radii_naive_r6(protein_small)
        e_naive = epol_naive(protein_small, R)
        out = run_data_distributed(protein_small,
                                   ApproxParams(eps_born=0.05,
                                                eps_epol=0.05),
                                   processes=3)
        assert abs(out.energy - e_naive) / abs(e_naive) < 1e-3
        assert np.mean(np.abs(out.born_radii - R) / R) < 1e-3

    def test_single_process_equals_serial_octree(self, protein_small):
        """P = 1 degenerates to the ordinary serial solver."""
        serial = PolarizationSolver(protein_small, ApproxParams())
        out = run_data_distributed(protein_small, ApproxParams(),
                                   processes=1)
        assert out.energy == pytest.approx(serial.energy(), rel=1e-10)
        assert np.allclose(out.born_radii, serial.born_radii())

    def test_radii_complete_and_positive(self, protein_medium):
        out = run_data_distributed(protein_medium, ApproxParams(),
                                   processes=4)
        assert len(out.born_radii) == protein_medium.natoms
        assert np.all(out.born_radii >= protein_medium.radii - 1e-12)


class TestMemoryScaling:
    def test_per_rank_memory_shrinks_with_p(self, protein_medium):
        """The whole point: memory/rank ∝ M/P + summaries + ghosts,
        whereas work-division replicates everything."""
        m2 = run_data_distributed(protein_medium, ApproxParams(),
                                  processes=2)
        m6 = run_data_distributed(protein_medium, ApproxParams(),
                                  processes=6)
        assert max(m6.rank_bytes) < max(m2.rank_bytes)

    def test_beats_work_division_memory(self, protein_medium):
        dd = run_data_distributed(protein_medium, ApproxParams(),
                                  processes=6)
        wd = run_fig4_simmpi(protein_medium, ApproxParams(), processes=6)
        assert max(dd.rank_bytes) < wd.stats.memory_per_process()


class TestGhostTraffic:
    def test_ghosts_bounded(self, protein_medium):
        """Ghost traffic must stay a fraction of the full data — else
        the scheme degenerates to replication."""
        out = run_data_distributed(protein_medium, ApproxParams(),
                                   processes=4)
        # Across 4 ranks, fetched ghosts stay below 4 full copies.
        assert out.ghost_qpoints < 3 * protein_medium.nqpoints
        assert out.ghost_atoms < 3 * protein_medium.natoms
        assert out.ghost_qpoints > 0   # near-boundary work exists

    def test_stats_accounted(self, protein_small):
        out = run_data_distributed(protein_small, ApproxParams(),
                                   processes=3)
        assert out.stats.wall_seconds > 0
        assert all(b > 0 for b in out.rank_bytes)


def _per_pair_ghosts(near_u, near_v, u, v, approx_math, total=0.0):
    """The ghost-atom pass before grouping: one kernel call per (remote
    leaf, local V-leaf) pair, in descent order."""
    for a, b in zip(near_u, near_v):
        x = u.cols[:, u.start[a]:u.end[a]]
        y = v.cols[:, v.start[b]:v.end[b]]
        total += gb.pair_energy_matrix(y[:3].T, y[3], y[4], x[:3].T, x[3],
                                       x[4], approx_math=approx_math)
    return total, (u.end - u.start)[near_u] * (v.end - v.start)[near_v]


class TestGhostAtoms:
    def test_one_kernel_call_per_peer_and_v_leaf(self, protein_small,
                                                 monkeypatch):
        """Each rank groups its ghost blocks by local V-leaf, so it calls
        the energy kernel at most once per (peer, V-leaf)."""
        trees, ghost_calls = {}, []
        in_local = threading.local()
        local_epol = datadist.approx_epol_for_leaves

        def local_pass(atoms_tree, *args, **kwargs):
            trees[threading.get_ident()] = atoms_tree
            in_local.on = True
            try:
                return local_epol(atoms_tree, *args, **kwargs)
            finally:
                in_local.on = False

        def counting(pos_i, q_i, R_i, pos_j, q_j, R_j, approx_math=False):
            if not getattr(in_local, "on", False):
                ghost_calls.append((threading.get_ident(),
                                    pos_i[0].tobytes(), pos_j[0].tobytes()))
            return gb.pair_energy_matrix(pos_i, q_i, R_i, pos_j, q_j, R_j,
                                         approx_math)

        monkeypatch.setattr(datadist, "approx_epol_for_leaves", local_pass)
        for module in (datadist, frontier):
            monkeypatch.setattr(module, "pair_energy_matrix", counting,
                                raising=False)
        run_data_distributed(protein_small, ApproxParams(), processes=4)

        owner = {}     # atom position -> (rank thread, local leaf)
        for tid, tree in trees.items():
            for leaf in tree.leaves:
                for p in tree.points[tree.slice_of(leaf)]:
                    owner[p.tobytes()] = (tid, int(leaf))
        keys = []
        for tid, first_i, first_j in ghost_calls:
            sides = (owner[first_i], owner[first_j])
            (v_leaf,) = [leaf for t, leaf in sides if t == tid]
            (peer,) = [t for t, _ in sides if t != tid]
            keys.append((tid, peer, v_leaf))
        assert keys
        assert len(keys) == len(set(keys))

    def test_ghost_table_places_rows_at_peer_offsets(self):
        rng = np.random.default_rng(5)
        tree = build_octree(rng.normal(size=(300, 3)), leaf_size=16)
        wn = rng.normal(size=(300, 3))
        peer = datadist.QLeafSummaries.from_tree(tree, wn)
        payload = {int(r): (tree.points[peer.start[r]:peer.end[r]],
                            wn[peer.start[r]:peer.end[r]])
                   for r in (len(peer) - 1, 0, 3)}
        table = datadist._ghost_table(payload, peer, 6)
        for row, (p, w) in payload.items():
            np.testing.assert_array_equal(table.gather(np.array([row])),
                                          np.column_stack([p, w]).T)

    @pytest.mark.parametrize("presort", ["central", "sample"])
    def test_matches_per_pair_ghost_reference(self, protein_small,
                                              monkeypatch, presort):
        got = run_data_distributed(protein_small, ApproxParams(),
                                   processes=4, presort=presort)
        monkeypatch.setattr(datadist, "epol_near_field", _per_pair_ghosts)
        want = run_data_distributed(protein_small, ApproxParams(),
                                    processes=4, presort=presort)
        assert got.energy == pytest.approx(want.energy, rel=1e-12)
        assert np.array_equal(got.born_radii, want.born_radii)
        assert got.stats.wall_seconds == want.stats.wall_seconds


class TestPresort:
    def test_sample_sort_presort_same_envelope(self, protein_small):
        """Sample-sort slabs are splitter-balanced (approximately even),
        so block boundaries — and hence the ε-level approximation
        pattern — may differ from the central even split; the energies
        must still agree within the envelope and the radii atom-wise."""
        central = run_data_distributed(protein_small, ApproxParams(),
                                       processes=3, presort="central")
        sampled = run_data_distributed(protein_small, ApproxParams(),
                                       processes=3, presort="sample")
        assert sampled.energy == pytest.approx(central.energy, rel=5e-3)
        assert np.allclose(sampled.born_radii, central.born_radii,
                           rtol=0.05)

    def test_sample_presort_covers_all_atoms(self, protein_small):
        """Every atom lands in exactly one slab."""
        from repro.cluster.costmodel import CostModel
        from repro.cluster.machine import lonestar4
        from repro.parallel.datadist import _make_blocks
        mach = lonestar4()
        blocks = _make_blocks(protein_small,
                              protein_small.require_surface(), 3,
                              "sample", mach, CostModel(machine=mach))
        ids = np.concatenate([b["atom_ids"] for b in blocks])
        assert np.array_equal(np.sort(ids),
                              np.arange(protein_small.natoms))

    def test_presort_validation(self, protein_small):
        with pytest.raises(ValueError):
            run_data_distributed(protein_small, processes=2,
                                 presort="bogo")
