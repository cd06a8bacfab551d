"""Molecular-surface sampling with Gaussian quadrature points.

The paper's r⁶ Born-radius integral (Eq. 4) is a surface integral
evaluated at Gaussian quadrature points of a triangulated molecular
surface, each carrying a weight ``w_k`` and an outward unit normal
``n_k``.  We build the surface as the boundary of the union of atom
spheres (the van der Waals / solvent-excluded surface for probe radius
0): every atom sphere is triangulated by an icosphere, Dunavant
quadrature points are placed on each spherical triangle, and points
buried inside any other atom are culled together with their weights.
Overlapping spheres are found by a sorted-cell search (see
docs/ALGORITHMS.md §9).

For a closed sphere the weights sum to ``4πr²`` by construction, which
gives the library its sharpest correctness test: a single isolated atom
of radius R must come back from the r⁶ solver with Born radius exactly R
(up to quadrature error).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

import numpy as np

from repro.geomutil import icosphere, ranges_to_indices
from repro.obs import traced
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.molecules.quadrature import dunavant_rule


#: The cell itself and 13 of its 26 neighbours, one of each opposite
#: pair: every unordered pair of adjacent cells lies along one offset.
_HALF_SPACE = np.array([o for o in itertools.product((-1, 0, 1), repeat=3)
                        if o >= (0, 0, 0)], dtype=np.int64)

_PAIR_CHUNK = 16384  # candidate atom pairs per culling pass (memory)


def _cell_pairs(centers: np.ndarray, cell: float
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(i, j)`` chunks of the atom pairs that share a grid cell of
    edge ``cell`` or sit in adjacent cells, each pair once: atoms sorted
    by cell id, partner cells found by ``searchsorted``."""
    # Cell coordinates from 1, so a neighbour offset never wraps a row.
    ijk = np.floor((centers - centers.min(axis=0)) / cell).astype(np.int64) + 1
    dims = ijk.max(axis=0) + 2
    flat = (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]
    order = np.argsort(flat, kind="stable")
    cells = flat[order]
    steps = (_HALF_SPACE[:, 0] * dims[1] + _HALF_SPACE[:, 1]) * dims[2] \
        + _HALF_SPACE[:, 2]
    lo = np.searchsorted(cells, cells[:, None] + steps, side="left")
    hi = np.searchsorted(cells, cells[:, None] + steps, side="right")
    lo[:, 0] = np.arange(1, len(cells) + 1)  # own cell: later atoms only
    per_atom = (hi - lo).sum(axis=1)
    cum = np.cumsum(per_atom)
    cuts = np.searchsorted(cum, np.arange(_PAIR_CHUNK, cum[-1], _PAIR_CHUNK))
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(cells)]):
        if a < b:
            i = np.repeat(order[a:b], per_atom[a:b])
            yield i, order[ranges_to_indices(lo[a:b].ravel(),
                                             hi[a:b].ravel())]


def _sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances between coordinate rows ``x`` and ``y``, summed
    x, y, z left to right: ``np.sum``'s order, so culling stays bitwise."""
    return (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 + (x[2] - y[2]) ** 2


def _unit_sphere_samples(subdivisions: int, degree: int):
    """Quadrature points/normals/weights on the unit sphere.

    Points are projected from planar triangle quadrature onto the sphere;
    weights are uniformly rescaled so they sum to exactly ``4π`` (the
    sphere's area), removing the planar-faceting area deficit.
    """
    verts, faces = icosphere(subdivisions)
    tri = verts[faces]                       # (t, 3, 3)
    bary, w = dunavant_rule(degree)
    pts = np.einsum("nk,tkx->tnx", bary, tri)            # (t, n, 3)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    weights = (area[:, None] * w[None, :]).reshape(-1)
    pts = pts.reshape(-1, 3)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / norms                        # project to sphere surface
    weights = weights * (4.0 * np.pi / weights.sum())
    return pts, weights


@traced("solve.sample_surface")
def sample_surface(molecule: Molecule,
                   subdivisions: int = 1,
                   degree: int = 1,
                   probe_radius: float = 0.0,
                   cull_tolerance: float = 1e-9) -> Molecule:
    """Attach surface quadrature samples to ``molecule``.

    Parameters
    ----------
    molecule:
        Input molecule (its existing surface, if any, is replaced).
    subdivisions:
        Icosphere subdivision level per atom: 20·4^s triangles.
    degree:
        Dunavant quadrature degree per triangle (1 → 1 point, 2 → 3, …).
    probe_radius:
        Solvent probe radius added to every atom radius before sampling
        and culling (0 → van der Waals surface, 1.4 → water SAS).
    cull_tolerance:
        A sample survives only if it lies at least this far outside every
        *other* inflated atom sphere.

    Returns
    -------
    Molecule
        A copy of ``molecule`` carrying :class:`SurfaceSamples` whose
        normals point outward (radially from their parent atom).
    """
    unit_pts, unit_w = _unit_sphere_samples(subdivisions, degree)
    k = len(unit_pts)
    centers = molecule.positions
    radii = molecule.radii + probe_radius
    m = molecule.natoms

    # Candidate sample s of atom a, as (3, m, k) coordinate rows.
    pts = centers.T[:, :, None] + radii[:, None] * unit_pts.T[:, None, :]
    keep = np.ones((m, k), dtype=bool)
    if m > 1:
        cutoff = 2.0 * float(radii.max())
        for ii, jj in _cell_pairs(centers, max(cutoff, 1e-6)):
            # Only overlapping sphere pairs can bury each other's samples.
            d2 = _sq_dist(centers[ii].T, centers[jj].T)
            close = (d2 <= cutoff * cutoff) & (np.sqrt(d2)
                                               < radii[ii] + radii[jj])
            a = np.concatenate([ii[close], jj[close]])
            b = np.concatenate([jj[close], ii[close]])
            # Cull samples of atoms `a` that fall inside spheres `b`,
            # one vectorised (npairs, k) block.
            d2 = _sq_dist(pts[:, a], centers[b].T[:, :, None])
            hit, sample = np.nonzero(
                d2 < (radii[b][:, None] - cull_tolerance) ** 2)
            keep[a[hit], sample] = False

    if not keep.any():
        from repro.guard.errors import DegenerateGeometryError
        raise DegenerateGeometryError(
            f"molecule {molecule.name!r}: every surface sample was buried; "
            "geometry is degenerate (all atoms mutually contained)",
            phase="sample_surface",
            hint="run repro doctor — atoms likely coincide or nest")

    atom, sample = np.nonzero(keep)
    surface = SurfaceSamples(np.ascontiguousarray(pts[:, atom, sample].T),
                             unit_pts[sample],
                             radii[atom] ** 2 * unit_w[sample])
    out = molecule.with_surface(surface)
    return out


def exposed_fraction(molecule: Molecule) -> float:
    """Fraction of the total sphere area that survived burial culling.

    Requires surface samples; useful as a packing-density diagnostic for
    the synthetic generators (folded proteins expose ~25–40 % of their
    total van der Waals sphere area).
    """
    surf = molecule.require_surface()
    full = 4.0 * np.pi * float(np.sum(molecule.radii ** 2))
    return surf.total_area() / full
