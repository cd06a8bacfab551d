"""Dual-tree (prior-work OCT_CILK) solver tests."""

import numpy as np
import pytest

from repro.config import ApproxParams
from repro.core.born_naive import born_radii_naive_r6
from repro.core.dualtree import (
    born_radii_dualtree,
    epol_dualtree,
    node_aggregates,
)
from repro.core.energy_naive import epol_naive
from repro.octree.build import build_octree


class TestNodeAggregates:
    def test_match_slices(self):
        pts = np.random.default_rng(0).normal(size=(150, 3))
        tree = build_octree(pts, leaf_size=8)
        vals = np.random.default_rng(1).normal(size=(150, 3))
        agg = node_aggregates(tree, vals[tree.perm])
        for node in range(0, tree.nnodes, 7):
            sl = tree.slice_of(node)
            assert np.allclose(agg[node], vals[tree.perm][sl].sum(axis=0))

    def test_scalar_values(self):
        pts = np.random.default_rng(2).normal(size=(60, 3))
        tree = build_octree(pts, leaf_size=4)
        vals = np.arange(60, dtype=float)
        agg = node_aggregates(tree, vals[tree.perm])
        assert agg[0] == pytest.approx(vals.sum())


class TestBornDualtree:
    def test_tight_eps_matches_naive(self, protein_small, tight_params):
        ref = born_radii_naive_r6(protein_small)
        got = born_radii_dualtree(protein_small, tight_params).radii
        assert np.allclose(got, ref, rtol=1e-10)

    def test_default_eps_close(self, protein_medium):
        ref = born_radii_naive_r6(protein_medium)
        got = born_radii_dualtree(protein_medium).radii
        assert np.mean(np.abs(got - ref) / ref) < 0.02

    def test_sphere_invariant(self, single_atom):
        assert born_radii_dualtree(single_atom).radii[0] == \
            pytest.approx(2.0, rel=1e-6)

    def test_per_leaf_costs_cover_totals(self, protein_small):
        res = born_radii_dualtree(protein_small)
        ps = res.per_source
        assert ps.exact_interactions.sum() == pytest.approx(
            res.counts.exact_interactions)
        assert ps.far.sum() == pytest.approx(res.counts.far_evaluations,
                                             rel=1e-9)
        assert ps.visits.sum() == pytest.approx(res.counts.frontier_visits,
                                                rel=1e-9)
        assert (ps.visits > 0).all()


class TestEpolDualtree:
    def test_matches_naive_tight(self, protein_small, tight_params):
        # Unlike the single-tree scheme, the dual-tree MAC may still
        # collapse *singleton* leaf pairs (radius 0 ⟹ exact distance,
        # only the (1+ε) Born-radius bucketing remains), so agreement
        # is ε-tight rather than exact.
        R = born_radii_naive_r6(protein_small)
        ref = epol_naive(protein_small, R)
        got = epol_dualtree(protein_small, R, tight_params).energy
        assert got == pytest.approx(ref, rel=1e-5)

    def test_ordered_pair_coverage(self, protein_small):
        """At ε→0 every ordered pair is covered exactly once: exact
        terms + pairs under far-field collapses account for M²."""
        R = born_radii_naive_r6(protein_small)
        res = epol_dualtree(protein_small, R,
                            ApproxParams(eps_epol=0.01))
        m = protein_small.natoms
        assert res.counts.exact_interactions <= m * m
        # Nearly everything is exact at this ε; what's missing went
        # through the far-field kernel, not nowhere.
        assert res.counts.exact_interactions > 0.99 * m * m
        assert res.counts.far_evaluations >= 0
        ref = epol_naive(protein_small, R)
        assert abs(res.energy - ref) / abs(ref) < 1e-4

    def test_per_leaf_costs_cover_totals(self, protein_small):
        R = born_radii_naive_r6(protein_small)
        res = epol_dualtree(protein_small, R)
        ps = res.per_source
        assert ps.exact_interactions.sum() == pytest.approx(
            res.counts.exact_interactions)
        assert ps.far.sum() == pytest.approx(res.counts.far_evaluations,
                                             rel=1e-9)
        assert ps.visits.sum() == pytest.approx(res.counts.frontier_visits,
                                                rel=1e-9)
        assert (ps.visits > 0).all()

    def test_default_eps_close(self, protein_medium):
        R = born_radii_naive_r6(protein_medium)
        ref = epol_naive(protein_medium, R)
        got = epol_dualtree(protein_medium, R).energy
        assert abs(got - ref) / abs(ref) < 0.02
