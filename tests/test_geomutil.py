"""Unit + property tests for the shared geometric utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geomutil import (
    enclosing_ball_radius,
    icosphere,
    ranges_to_indices,
    unit_icosahedron,
)


class TestRangesToIndices:
    def test_simple(self):
        out = ranges_to_indices(np.array([0, 5, 9]), np.array([3, 7, 9]))
        assert np.array_equal(out, [0, 1, 2, 5, 6])

    def test_empty(self):
        assert len(ranges_to_indices(np.array([4]), np.array([4]))) == 0
        assert len(ranges_to_indices(np.array([], dtype=int),
                                     np.array([], dtype=int))) == 0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            ranges_to_indices(np.array([5]), np.array([3]))

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 30)),
                    max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_matches_concatenated_aranges(self, spans):
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = starts + np.array([w for _, w in spans], dtype=np.int64)
        want = (np.concatenate([np.arange(s, e)
                                for s, e in zip(starts, ends)])
                if len(spans) else np.empty(0, dtype=np.int64))
        got = ranges_to_indices(starts, ends)
        assert np.array_equal(got, want)


class TestIcosphere:
    def test_icosahedron_euler(self):
        v, f = unit_icosahedron()
        assert len(v) == 12 and len(f) == 20
        edges = set()
        for a, b, c in f:
            for e in ((a, b), (b, c), (c, a)):
                edges.add(tuple(sorted(e)))
        assert len(v) - len(edges) + len(f) == 2  # Euler characteristic

    @pytest.mark.parametrize("sub,faces", [(0, 20), (1, 80), (2, 320)])
    def test_subdivision_counts(self, sub, faces):
        v, f = icosphere(sub)
        assert len(f) == faces
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0)

    def test_outward_orientation(self):
        v, f = icosphere(1)
        tri = v[f]
        centroid = tri.mean(axis=1)
        normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        assert np.all(np.einsum("ij,ij->i", centroid, normal) > 0)

    def test_negative_subdivision_rejected(self):
        with pytest.raises(ValueError):
            icosphere(-1)


def test_enclosing_ball_radius():
    pts = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, -3.0]])
    assert enclosing_ball_radius(pts, np.zeros(3)) == pytest.approx(3.0)
    assert enclosing_ball_radius(np.empty((0, 3)), np.zeros(3)) == 0.0
