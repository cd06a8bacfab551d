"""Naive exact GB polarization energy — paper Eq. 2, O(M²).

The reference against which all octree energies are scored.  Each row
panel ``[lo, hi)`` runs the shared kernel once on its diagonal block and
once against the columns ``j ≥ hi`` with doubled charges: every
unordered pair once, like the octree's near field.  Temporaries stay at
``block × M``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import TAU_WATER
from repro.core.gb import energy_prefactor, pair_energy_matrix
from repro.molecules.molecule import Molecule


def epol_naive(molecule: Molecule,
               born_radii: np.ndarray,
               tau: float = TAU_WATER,
               approx_math: bool = False,
               block: int = 512) -> float:
    """Exact ``E_pol`` in kcal/mol over all ordered atom pairs (incl. self).

    Parameters
    ----------
    molecule:
        Atom positions and charges.
    born_radii:
        ``(m,)`` effective Born radii (from any Born solver).
    tau:
        Dielectric prefactor ``1 − 1/ε_solv``.
    approx_math:
        Use the low-precision kernels of :mod:`repro.core.gb`.
    """
    R = np.asarray(born_radii, dtype=np.float64)
    pos, q = molecule.positions, molecule.charges
    m = len(pos)
    if len(R) != m:
        from repro.guard.errors import MoleculeFormatError
        raise MoleculeFormatError(
            "born_radii length must match atom count", field="born_radii")
    if np.any(R <= 0):
        from repro.guard.errors import NumericalGuardError
        raise NumericalGuardError(
            "Born radii must be positive", phase="epol",
            indices=np.flatnonzero(~(born_radii > 0)))
    total = 0.0
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        panel = pos[lo:hi], q[lo:hi], R[lo:hi]
        total += pair_energy_matrix(*panel, *panel, approx_math=approx_math)
        total += pair_energy_matrix(pos[lo:hi], 2.0 * q[lo:hi], R[lo:hi],
                                    pos[hi:], q[hi:], R[hi:],
                                    approx_math=approx_math)
    return energy_prefactor(tau) * total
