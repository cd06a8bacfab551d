"""The sorted-cell burial culling keeps exactly the samples an all-pairs
search keeps, bit for bit (the surface feeds the cache fingerprints)."""

import numpy as np
import pytest

from repro.molecules import synthetic_protein
from repro.molecules.surface import _unit_sphere_samples, sample_surface

TOLERANCE = 1e-9


def _all_pairs_surface(mol, subdivisions, probe_radius):
    """Reference culling: every atom against every other overlapping one."""
    unit_pts, unit_w = _unit_sphere_samples(subdivisions, 1)
    k = len(unit_pts)
    centers = mol.positions
    radii = mol.radii + probe_radius
    m = len(centers)
    pts = centers[:, None, :] + radii[:, None, None] * unit_pts[None, :, :]
    keep = np.ones((m, k), dtype=bool)
    for i in range(m):
        d = np.linalg.norm(centers - centers[i], axis=1)
        close = d < radii + radii[i]
        close[i] = False
        d2 = np.sum((pts[i][None, :, :] - centers[close][:, None, :]) ** 2,
                    axis=2)
        keep[i] = ~np.any(d2 < (radii[close][:, None] - TOLERANCE) ** 2,
                          axis=0)
    weights = radii[:, None] ** 2 * unit_w[None, :]
    normals = np.broadcast_to(unit_pts, (m, k, 3))
    return pts[keep], normals[keep], weights[keep]


@pytest.mark.parametrize("probe_radius", [0.0, 1.4])
@pytest.mark.parametrize("subdivisions", [0, 1])
@pytest.mark.parametrize("atoms", [13, 30, 250])
def test_matches_all_pairs_reference_bitwise(atoms, subdivisions,
                                             probe_radius):
    mol = synthetic_protein(atoms, seed=atoms, with_surface=False)
    surf = sample_surface(mol, subdivisions=subdivisions,
                          probe_radius=probe_radius,
                          cull_tolerance=TOLERANCE).surface
    points, normals, weights = _all_pairs_surface(mol, subdivisions,
                                                  probe_radius)
    assert 0 < len(points) < mol.natoms * len(
        _unit_sphere_samples(subdivisions, 1)[0])
    assert np.array_equal(surf.points, points)
    assert np.array_equal(surf.normals, normals)
    assert np.array_equal(surf.weights, weights)
