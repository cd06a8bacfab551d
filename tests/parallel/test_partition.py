"""Work-division tests (paper §IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree.build import build_octree
from repro.parallel.partition import (
    atom_segments,
    leaf_segments,
    segment_bounds,
    weighted_bounds,
)


class TestSegmentBounds:
    def test_even_split(self):
        assert np.array_equal(segment_bounds(12, 4), [0, 3, 6, 9, 12])

    def test_remainder_goes_first(self):
        assert np.array_equal(segment_bounds(10, 4), [0, 3, 6, 8, 10])

    def test_more_parts_than_items(self):
        b = segment_bounds(2, 5)
        assert b[0] == 0 and b[-1] == 2
        assert np.all(np.diff(b) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_bounds(5, 0)
        with pytest.raises(ValueError):
            segment_bounds(-1, 2)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, parts):
        b = segment_bounds(n, parts)
        assert len(b) == parts + 1
        assert b[0] == 0 and b[-1] == n
        sizes = np.diff(b)
        assert np.all(sizes >= 0)
        assert sizes.max() - sizes.min() <= 1  # even to within one item


class TestLeafAndAtomSegments:
    def test_leaf_segments_tile(self):
        tree = build_octree(
            np.random.default_rng(0).normal(size=(300, 3)), leaf_size=8)
        segs = leaf_segments(tree, 5)
        joined = np.concatenate(segs)
        assert np.array_equal(joined, np.arange(len(tree.leaves)))

    def test_atom_segments_tile(self):
        segs = atom_segments(100, 3)
        assert segs[0][0] == 0 and segs[-1][1] == 100
        for (a, b), (c, d) in zip(segs[:-1], segs[1:]):
            assert b == c


class TestWeightedSegments:
    def test_balances_skewed_weights(self):
        w = np.ones(200)
        w[:20] = 50.0  # heavy head
        b = weighted_bounds(w, 4)
        assert len(b) == 5 and b[0] == 0 and b[-1] == len(w)
        assert np.all(np.diff(b) >= 0)
        loads = [w[b[i]:b[i + 1]].sum() for i in range(4)]
        assert max(loads) < 2.0 * (w.sum() / 4)

    def test_more_parts_than_leaves(self):
        b = weighted_bounds(np.ones(7), 10)
        assert len(b) == 11 and b[-1] == 7
        assert np.array_equal(b, segment_bounds(7, 10))

    def test_parts_validation(self):
        with pytest.raises(ValueError):
            weighted_bounds(np.ones(5), 0)
