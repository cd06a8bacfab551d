"""Small geometric utilities shared across subpackages: the
``ranges_to_indices`` gather primitive of the octree leaf kernels and
the surface culling, enclosing-ball radii, and the icosphere the surface
sampler triangulates each atom sphere with.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def ranges_to_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]`` without
    per-range Python calls (the classic cumsum trick).

    Empty ranges are allowed.  This is the hot gather primitive of the
    octree leaf kernels.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lens = ends - starts
    if np.any(lens < 0):
        raise ValueError("ranges must have ends >= starts")
    keep = lens > 0
    starts, lens = starts[keep], lens[keep]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    firsts = np.cumsum(lens)[:-1]
    out[firsts] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def enclosing_ball_radius(points: np.ndarray, center: np.ndarray) -> float:
    """Radius of the smallest ``center``-centred ball containing ``points``."""
    if len(points) == 0:
        return 0.0
    return float(np.sqrt(np.max(np.sum((points - center) ** 2, axis=1))))


def unit_icosahedron() -> Tuple[np.ndarray, np.ndarray]:
    """Vertices ``(12, 3)`` on the unit sphere and faces ``(20, 3)``."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return v, f


def icosphere(subdivisions: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Subdivided icosahedron on the unit sphere.

    Returns ``(vertices, faces)``; each subdivision splits every triangle
    into four, so the face count is ``20 · 4^subdivisions``.  Faces are
    oriented with outward normals.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts, faces = unit_icosahedron()
    for _ in range(subdivisions):
        edge_mid: dict = {}
        verts_list = list(verts)

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in edge_mid:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return verts, faces
