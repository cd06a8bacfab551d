"""Property tests of the shared frontier traversal (repro.core.frontier).

The solver tests check the descent only through energies and radii;
these check its contract directly on random point clouds and source
spheres: every tree point is settled exactly once per source, the
point-range restriction settles exactly the points in the range, and
the per-source counts add up to what the callbacks saw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import descend
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
