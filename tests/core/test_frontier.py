"""Property tests of the shared frontier traversal (repro.core.frontier).

The solver tests check the descent only through energies and radii;
these check its contract directly on random point clouds and source
spheres: every tree point is settled exactly once per source, the
point-range restriction settles exactly the points in the range, and
the per-source counts add up to what the callbacks saw.  The near-field
helpers are checked against one kernel call per pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import (NearTable, born_near_field, descend,
                                 epol_near_field)
from repro.core.gb import born_integral_block, pair_energy_matrix
from repro.octree.build import build_octree


@st.composite
def walks(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 600))
    start = draw(st.integers(0, n))
    return dict(seed=seed, n=n,
                leaf_size=draw(st.integers(1, 32)),
                eps=draw(st.floats(0.05, 2.0)),
                nsrc=draw(st.integers(1, 12)),
                # Fig. 3's rule (every leaf is near) or Fig. 2's (the
                # MAC is tested at leaves too).
                leaves_near=draw(st.booleans()),
                point_range=(start, draw(st.integers(start, n))))


def _run(case, point_range=None):
    rng = np.random.default_rng(case["seed"])
    tree = build_octree(rng.uniform(-10.0, 10.0, (case["n"], 3)),
                        leaf_size=case["leaf_size"])
    centers = rng.uniform(-25.0, 25.0, (case["nsrc"], 3))
    radii = rng.uniform(0.0, 4.0, case["nsrc"])
    mac = 1.0 + 2.0 / case["eps"]
    seen = {"accepted": 0, "far": []}

    def accept(nodes, r, rsum):
        seen["accepted"] += len(nodes)
        far = r > rsum * mac
        return far & ~tree.is_leaf[nodes] if case["leaves_near"] else far

    def far_step(nodes, src, d, r2):
        assert np.array_equal(d, centers[src] - tree.center[nodes])
        assert np.array_equal(r2, np.einsum("ij,ij->i", d, d))
        seen["far"].append((nodes, src))

    walk = descend(tree, centers, radii, accept, far_step, point_range)
    return tree, walk, seen


def _coverage(tree, nsrc, pairs, lo, hi):
    """``cover[s, p]``: how many settled (node, source s) pairs hold
    point ``p``, counting each node's points clipped to ``[lo, hi)``."""
    diff = np.zeros((nsrc, tree.npoints + 1), dtype=np.int64)
    for nodes, src in pairs:
        a = np.clip(tree.start[nodes], lo, hi)
        b = np.clip(tree.end[nodes], lo, hi)
        keep = a < b
        np.add.at(diff, (src[keep], a[keep]), 1)
        np.add.at(diff, (src[keep], b[keep]), -1)
    return np.cumsum(diff, axis=1)[:, :-1]


class TestDescend:
    @given(walks())
    @settings(max_examples=60, deadline=None)
    def test_settles_every_point_once_per_source(self, case):
        tree, walk, seen = _run(case)
        assert tree.is_leaf[walk.near_nodes].all()
        pairs = seen["far"] + [(walk.near_nodes, walk.near_src)]
        cover = _coverage(tree, case["nsrc"], pairs, 0, tree.npoints)
        assert (cover == 1).all()

    @given(walks())
    @settings(max_examples=60, deadline=None)
    def test_point_range_settles_exactly_the_range(self, case):
        s, e = case["point_range"]
        tree, walk, seen = _run(case, (s, e))
        for nodes, _ in seen["far"]:
            assert (tree.start[nodes] >= s).all()
            assert (tree.end[nodes] <= e).all()
        pairs = seen["far"] + [(walk.near_nodes, walk.near_src)]
        cover = _coverage(tree, case["nsrc"], pairs, s, e)
        want = np.zeros(tree.npoints, dtype=np.int64)
        want[s:e] = 1
        assert (cover == want).all()

    @given(walks(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_per_source_counts_sum_to_totals(self, case, ranged):
        tree, walk, seen = _run(case,
                                case["point_range"] if ranged else None)
        nsrc = case["nsrc"]
        assert walk.visits.shape == walk.far.shape == (nsrc,)
        assert walk.visits.sum() == seen["accepted"]
        far_src = [src for _, src in seen["far"]]
        assert walk.far.sum() == sum(len(src) for src in far_src)
        want = sum((np.bincount(src, minlength=nsrc) for src in far_src),
                   np.zeros(nsrc, dtype=np.int64))
        assert np.array_equal(walk.far, want)
        assert (walk.far <= walk.visits).all()
        if not ranged:
            assert (walk.visits >= 1).all()     # every source meets the root


@st.composite
def near_cases(draw):
    n = draw(st.integers(1, 300))
    start = draw(st.integers(0, n))
    return dict(seed=draw(st.integers(0, 2**32 - 1)), n=n,
                leaf_size=draw(st.integers(1, 24)),
                npairs=draw(st.integers(0, 60)),
                atom_range=draw(st.none() | st.just(
                    (start, draw(st.integers(start, n))))))


def _random_pairs(rng, a_ids, b_ids, k):
    """``k`` distinct (a, b) pairs, at most every pair once."""
    flat = rng.choice(len(a_ids) * len(b_ids),
                      size=min(k, len(a_ids) * len(b_ids)), replace=False)
    return a_ids[flat // len(b_ids)], b_ids[flat % len(b_ids)]


class TestBornNearField:
    @given(near_cases())
    @settings(max_examples=40, deadline=None)
    def test_equals_per_pair_blocks(self, case):
        rng = np.random.default_rng(case["seed"])
        atoms = build_octree(rng.uniform(-1.0, 1.0, (case["n"], 3)),
                             leaf_size=case["leaf_size"])
        # Points on a sphere around the atoms with outward normals, so
        # every r⁶ term is positive and a relative bound is meaningful.
        dirs = rng.normal(size=(int(rng.integers(1, 400)), 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        q_tree = build_octree(6.0 * dirs, leaf_size=case["leaf_size"])
        wn = (dirs * rng.uniform(0.1, 1.0, (len(dirs), 1)))[q_tree.perm]
        a_start, a_end = atoms.start, atoms.end
        if case["atom_range"] is not None:
            a_start = np.clip(a_start, *case["atom_range"])
            a_end = np.clip(a_end, *case["atom_range"])
        na, nq = _random_pairs(rng, atoms.leaves, q_tree.leaves,
                               case["npairs"])

        got = np.zeros(atoms.npoints)
        pairs = born_near_field(na, nq, NearTable(atoms.points.T, a_start,
                                                  a_end),
                                NearTable.of(q_tree, wn), got, False)
        want = np.zeros(atoms.npoints)
        want_pairs = []
        for a, q in zip(na, nq):
            sl, ql = slice(a_start[a], a_end[a]), q_tree.slice_of(q)
            want[sl] += born_integral_block(atoms.points[sl],
                                            q_tree.points[ql], wn[ql])
            want_pairs.append((sl.stop - sl.start) * (ql.stop - ql.start))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert pairs.tolist() == want_pairs


def _atoms_table(rng, n, leaf_size):
    tree = build_octree(rng.uniform(-8.0, 8.0, (n, 3)), leaf_size=leaf_size)
    # Positive charges: no cancellation, so rel=1e-12 holds per term.
    return tree, NearTable.of(tree, rng.uniform(0.1, 1.0, n),
                              rng.uniform(1.0, 4.0, n))


def _per_pair_energy(near_u, near_v, u, v):
    total = 0.0
    for a, b in zip(near_u, near_v):
        x = u.cols[:, u.start[a]:u.end[a]]
        y = v.cols[:, v.start[b]:v.end[b]]
        total += pair_energy_matrix(x[:3].T, x[3], x[4], y[:3].T, y[3], y[4])
    return total


class TestEpolNearField:
    @given(near_cases())
    @settings(max_examples=40, deadline=None)
    def test_one_table_equals_every_ordered_block(self, case):
        rng = np.random.default_rng(case["seed"])
        tree, tbl = _atoms_table(rng, case["n"], case["leaf_size"])
        nu, nv = _random_pairs(rng, tree.leaves, tree.leaves,
                               case["npairs"])
        # Add the mirrors of half the pairs, so some blocks are mutual.
        half = slice(0, len(nu) // 2)
        nu, nv = np.concatenate([nu, nv[half]]), np.concatenate([nv, nu[half]])
        keep = np.unique(nu * tree.nnodes + nv, return_index=True)[1]
        nu, nv = nu[np.sort(keep)], nv[np.sort(keep)]

        got, pairs = epol_near_field(nu, nv, tbl, tbl, False, 1.5)
        want = 1.5 + _per_pair_energy(nu, nv, tbl, tbl)
        assert got == pytest.approx(want, rel=1e-12)
        sizes = tree.end - tree.start
        assert np.array_equal(pairs, sizes[nu] * sizes[nv])

    @given(near_cases())
    @settings(max_examples=40, deadline=None)
    def test_two_tables_equal_per_pair_kernels(self, case):
        rng = np.random.default_rng(case["seed"])
        u_tree, u = _atoms_table(rng, case["n"], case["leaf_size"])
        v_tree, v = _atoms_table(rng, int(rng.integers(1, 200)),
                                 case["leaf_size"])
        nu, nv = _random_pairs(rng, np.arange(u_tree.nnodes), v_tree.leaves,
                               case["npairs"])

        got, pairs = epol_near_field(nu, nv, u, v, False)
        assert got == pytest.approx(_per_pair_energy(nu, nv, u, v),
                                    rel=1e-12)
        ordered = sum((u_tree.end[a] - u_tree.start[a])
                      * (v_tree.end[b] - v_tree.start[b])
                      for a, b in zip(nu, nv))
        assert pairs.sum() == ordered
