"""Octree E_pol solver: bucket algebra, leaf partitioning, convergence."""

import numpy as np
import pytest

from repro.config import ApproxParams
from repro.core.born_naive import born_radii_naive_r6
from repro.core.born_octree import PerSourceCounts, TraversalCounts
from repro.core.energy_naive import epol_naive
from repro.core.energy_octree import (
    approx_epol_for_leaves,
    build_charge_buckets,
    epol_octree,
)
from repro.core.gb import energy_prefactor, inv_fgb_still
from repro.molecules import synthetic_protein
from repro.octree.build import NO_CHILD, build_octree


@pytest.fixture(scope="module")
def prepared(protein_small):
    params = ApproxParams()
    tree = build_octree(protein_small.positions, params.leaf_size)
    R = born_radii_naive_r6(protein_small)
    q_sorted = protein_small.charges[tree.perm]
    R_sorted = R[tree.perm]
    buckets = build_charge_buckets(tree, q_sorted, R_sorted,
                                   params.eps_epol)
    return protein_small, params, tree, R, q_sorted, R_sorted, buckets


class TestChargeBuckets:
    def test_bucket_sums_equal_node_charges(self, prepared):
        _, _, tree, _, q_sorted, _, buckets = prepared
        node_q = buckets.table.sum(axis=1)
        for node in range(0, tree.nnodes, 5):
            sl = tree.slice_of(node)
            assert node_q[node] == pytest.approx(q_sorted[sl].sum(),
                                                 abs=1e-10)

    def test_bucket_geometry(self, prepared):
        _, params, _, _, _, R_sorted, buckets = prepared
        assert buckets.r_min == pytest.approx(R_sorted.min())
        assert buckets.r_max == pytest.approx(R_sorted.max())
        # Products matrix is R_min²(1+ε)^(i+j).
        m = buckets.nbuckets
        want = buckets.r_min ** 2 * (1 + params.eps_epol) ** (
            np.add.outer(np.arange(m), np.arange(m)))
        assert np.allclose(buckets.products, want)

    def test_uniform_radii_single_bucket(self):
        tree = build_octree(np.random.default_rng(0).normal(size=(50, 3)))
        q = np.ones(50)
        R = np.full(50, 2.0)
        b = build_charge_buckets(tree, q, R, 0.9)
        assert b.nbuckets == 1

    def test_rejects_nonpositive_radii(self):
        tree = build_octree(np.zeros((2, 3)) + [[0], [1]])
        with pytest.raises(ValueError):
            build_charge_buckets(tree, np.ones(2), np.array([1.0, 0.0]),
                                 0.9)


class TestLeafPartition:
    def test_leaf_subsets_sum_to_total(self, prepared):
        mol, params, tree, R, q_sorted, R_sorted, buckets = prepared
        full, counts, _ = approx_epol_for_leaves(
            tree, q_sorted, R_sorted, buckets, params)
        nleaves = len(tree.leaves)
        acc = 0.0
        for lo, hi in ((0, nleaves // 4), (nleaves // 4, nleaves // 2),
                       (nleaves // 2, nleaves)):
            part, _, _ = approx_epol_for_leaves(
                tree, q_sorted, R_sorted, buckets, params,
                v_leaf_subset=np.arange(lo, hi))
            acc += part
        assert acc == pytest.approx(full, rel=1e-12)

    def test_empty_subset_is_zero(self, prepared):
        _, params, tree, _, q_sorted, R_sorted, buckets = prepared
        val, counts, _ = approx_epol_for_leaves(
            tree, q_sorted, R_sorted, buckets, params,
            v_leaf_subset=np.empty(0, dtype=int))
        assert val == 0.0 and counts.frontier_visits == 0

    def test_per_source_counts_sum(self, prepared):
        _, params, tree, _, q_sorted, R_sorted, buckets = prepared
        _, counts, ps = approx_epol_for_leaves(
            tree, q_sorted, R_sorted, buckets, params)
        assert ps.exact_interactions.sum() == counts.exact_interactions
        assert ps.visits.sum() == counts.frontier_visits


class TestAccuracy:
    def test_tight_eps_matches_naive(self, protein_small, tight_params):
        R = born_radii_naive_r6(protein_small)
        ref = epol_naive(protein_small, R)
        got = epol_octree(protein_small, R, tight_params).energy
        assert got == pytest.approx(ref, rel=1e-9)

    def test_default_eps_under_one_percent(self, protein_medium):
        R = born_radii_naive_r6(protein_medium)
        ref = epol_naive(protein_medium, R)
        got = epol_octree(protein_medium, R, ApproxParams()).energy
        assert abs(got - ref) / abs(ref) < 0.01

    def test_single_atom_self_energy(self, single_atom):
        R = np.array([2.0])
        got = epol_octree(single_atom, R).energy
        assert got == pytest.approx(epol_naive(single_atom, R))

    def test_far_pairs_actually_approximate(self):
        """Two well-separated clusters must trigger the far-field
        bucket kernel, and still be accurate."""
        from repro.molecules.generator import synthetic_protein
        a = synthetic_protein(250, seed=1, with_surface=False)
        b = synthetic_protein(250, seed=2, with_surface=False)
        from repro.molecules.molecule import Molecule
        mol = Molecule(
            np.vstack([a.positions, b.positions + 120.0]),
            np.concatenate([a.charges, b.charges]),
            np.concatenate([a.radii, b.radii]))
        R = np.random.default_rng(0).uniform(1.5, 4.0, mol.natoms)
        res = epol_octree(mol, R, ApproxParams(eps_epol=0.9))
        assert res.counts.far_evaluations > 0
        ref = epol_naive(mol, R)
        assert abs(res.energy - ref) / abs(ref) < 0.01


def _ordered_pair_reference(tree, q, R, buckets, params, v_leaf_subset=None):
    """Fig. 3 with every exact block evaluated in both orders: the
    per-V-leaf loop the mutual-block rule replaced."""
    counts = TraversalCounts()
    leaf_ids = tree.leaves if v_leaf_subset is None else \
        tree.leaves[v_leaf_subset]
    nv = len(leaf_ids)
    per = PerSourceCounts(np.zeros(nv, np.int64), np.zeros(nv, np.int64),
                          np.zeros(nv, np.int64))
    mac = 1.0 + 2.0 / params.eps_epol
    u_front, v_front = np.zeros(nv, np.int64), np.arange(nv)
    total = 0.0
    exact = []
    while len(u_front):
        counts.frontier_visits += len(u_front)
        per.visits += np.bincount(v_front, minlength=nv)
        leaf = tree.is_leaf[u_front]
        exact += list(zip(u_front[leaf], v_front[leaf]))
        u, v = u_front[~leaf], v_front[~leaf]
        dv = tree.center[leaf_ids[v]] - tree.center[u]
        r2 = np.einsum("ij,ij->i", dv, dv)
        far = np.sqrt(r2) > (tree.radius[u] + tree.radius[leaf_ids[v]]) * mac
        k = inv_fgb_still(r2[far][:, None, None], buckets.products[None],
                          approx_math=params.approx_math)
        total += float(np.einsum("ki,kij,kj->", buckets.table[u[far]], k,
                                 buckets.table[leaf_ids[v[far]]]))
        counts.far_evaluations += int(far.sum())
        per.far += np.bincount(v[far], minlength=nv)
        ch = tree.children[u[~far]]
        u_front = ch[ch != NO_CHILD]
        v_front = np.repeat(v[~far], (ch != NO_CHILD).sum(axis=1))
    for u, vrow in exact:
        us, vs = tree.slice_of(int(u)), tree.slice_of(int(leaf_ids[vrow]))
        diff = tree.points[us][:, None, :] - tree.points[vs][None, :, :]
        inv = inv_fgb_still(np.einsum("uvk,uvk->uv", diff, diff),
                            R[us][:, None] * R[vs][None, :],
                            approx_math=params.approx_math)
        total += float(q[us] @ inv @ q[vs])
        counts.near_pair_blocks += 1
        counts.exact_interactions += inv.size
        per.exact_interactions[vrow] += inv.size
    return total, counts, per


@pytest.fixture(scope="module", params=[(300, 4), (900, 5), (2000, 6)],
                ids=lambda p: f"{p[0]}atoms")
def mutual_case(request):
    atoms, seed = request.param
    mol = synthetic_protein(atoms, seed=seed, with_surface=False)
    tree = build_octree(mol.positions, ApproxParams().leaf_size)
    R = np.random.default_rng(seed).uniform(1.2, 6.0, mol.natoms)[tree.perm]
    return tree, mol.charges[tree.perm], R


class TestMutualBlocks:
    """Each mutual exact block runs once with doubled charges; the sum
    and every ordered-pair count stay those of the ordered-pair loop."""

    @pytest.mark.parametrize("approx_math", [False, True])
    @pytest.mark.parametrize("half", [None, 0, 1])
    def test_matches_ordered_pair_reference(self, mutual_case, approx_math,
                                            half):
        tree, q, R = mutual_case
        params = ApproxParams(approx_math=approx_math)
        buckets = build_charge_buckets(tree, q, R, params.eps_epol)
        nl = len(tree.leaves)
        subset = (None if half is None
                  else np.arange(nl)[:nl // 2] if half == 0
                  else np.arange(nl)[nl // 2:])
        got, counts, per = approx_epol_for_leaves(
            tree, q, R, buckets, params, v_leaf_subset=subset)
        want, want_counts, want_per = _ordered_pair_reference(
            tree, q, R, buckets, params, subset)
        assert got == pytest.approx(want, rel=1e-12)
        assert vars(counts) == vars(want_counts)
        for field in ("visits", "far", "exact_interactions"):
            assert np.array_equal(getattr(per, field),
                                  getattr(want_per, field)), field

    def test_halves_sum_to_whole(self, mutual_case):
        tree, q, R = mutual_case
        params = ApproxParams()
        buckets = build_charge_buckets(tree, q, R, params.eps_epol)
        nl = len(tree.leaves)
        parts = [approx_epol_for_leaves(tree, q, R, buckets, params,
                                        v_leaf_subset=s)[0]
                 for s in (np.arange(nl // 2), np.arange(nl // 2, nl))]
        whole = approx_epol_for_leaves(tree, q, R, buckets, params)[0]
        assert sum(parts) == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize("approx_math", [False, True])
def test_naive_matches_ordered_all_pairs(protein_small, approx_math):
    pos, q = protein_small.positions, protein_small.charges
    R = np.random.default_rng(7).uniform(1.2, 6.0, protein_small.natoms)
    diff = pos[:, None, :] - pos[None, :, :]
    inv = inv_fgb_still(np.einsum("ijk,ijk->ij", diff, diff),
                        R[:, None] * R[None, :], approx_math=approx_math)
    want = energy_prefactor() * float(q @ inv @ q)
    got = epol_naive(protein_small, R, approx_math=approx_math, block=96)
    assert got == pytest.approx(want, rel=1e-12)
