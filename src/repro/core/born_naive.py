"""Naive (exact-quadrature) Born radii — paper Eq. 3 and Eq. 4.

These O(M·N) reference implementations define "the naive exact
algorithm" every accuracy claim in the paper is measured against.  They
are blocked so memory stays bounded at ``block × N`` temporaries while
the inner loops remain pure vector code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import FOUR_PI, RGBMAX
from repro.core.gb import born_integral_block
from repro.molecules.molecule import Molecule


def surface_integrals(molecule: Molecule, power: int = 6, block: int = 256,
                      atoms: Optional[np.ndarray] = None,
                      phase: str = "born") -> np.ndarray:
    """``s_i = Σ_k w_k (r_k − x_i)·n_k / |r_k − x_i|^power`` for the atoms
    ``atoms`` (default: all), ``block`` atoms per kernel call.

    Raises :class:`~repro.guard.errors.DegenerateGeometryError` (tagged
    ``phase``) when an atom centre coincides with a quadrature point.
    """
    surf = molecule.require_surface()
    idx = np.arange(molecule.natoms) if atoms is None else np.asarray(atoms)
    s = np.empty(len(idx), dtype=np.float64)
    singular = np.zeros(len(idx), dtype=bool)
    for lo in range(0, len(idx), block):
        sl = slice(lo, lo + block)
        s[sl] = born_integral_block(
            molecule.positions[idx[sl]], surf.points, surf.weighted_normals,
            power=power, coincident=singular[sl])
    if singular.any():
        from repro.guard.errors import DegenerateGeometryError
        raise DegenerateGeometryError(
            "a quadrature point coincides with an atom centre; "
            "the surface integrand is singular there",
            phase=phase, indices=idx[singular],
            hint="run repro doctor on this molecule")
    return s


def integral_to_radius_r6(s: np.ndarray, intrinsic: np.ndarray) -> np.ndarray:
    """Map accumulated r⁶ integrals to Born radii (paper Fig. 2):
    ``R = max{ r_a , (s / 4π)^(−1/3) }``, capped at :data:`RGBMAX`.

    Nonpositive integrals (possible for pathological geometry or very
    aggressive approximation) denote "infinitely buried" atoms and get
    the cap.  A *fixed* cap — the ``rgbmax`` of real GB codes — keeps
    serial, work-division and data-distributed solvers consistent: a
    data-dependent fallback would differ between global and per-rank
    views of the same molecule.
    """
    s = np.asarray(s, dtype=np.float64)
    R = np.full_like(s, RGBMAX)
    ok = s > 0.0
    R[ok] = np.minimum((s[ok] / FOUR_PI) ** (-1.0 / 3.0), RGBMAX)
    return np.maximum(R, intrinsic)


def integral_to_radius_r4(s: np.ndarray, intrinsic: np.ndarray) -> np.ndarray:
    """r⁴ analogue (paper Eq. 3): ``R = max{ r_a, (s / 4π)^(−1) }``,
    capped at :data:`RGBMAX` like the r⁶ map."""
    s = np.asarray(s, dtype=np.float64)
    R = np.full_like(s, RGBMAX)
    ok = s > 0.0
    R[ok] = np.minimum(FOUR_PI / s[ok], RGBMAX)
    return np.maximum(R, intrinsic)


def born_radii_naive_r6(molecule: Molecule, block: int = 256) -> np.ndarray:
    """Exact surface-based r⁶ Born radii (Eq. 4), O(M·N)."""
    s = surface_integrals(molecule, power=6, block=block)
    return integral_to_radius_r6(s, molecule.radii)


def born_radii_naive_r4(molecule: Molecule, block: int = 256) -> np.ndarray:
    """Exact surface-based r⁴ Born radii (Eq. 3), O(M·N).

    Provided for completeness; the paper (after Grycuk) prefers r⁶ for
    protein-like solutes.
    """
    s = surface_integrals(molecule, power=4, block=block)
    return integral_to_radius_r4(s, molecule.radii)
