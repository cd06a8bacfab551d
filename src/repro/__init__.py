"""repro — octree-based hybrid-parallel GB polarization energy.

Reproduction of Tithi & Chowdhury, *"Polarization Energy on a Cluster
of Multicores"* (SC 2012): a hierarchical O(M log M) solver for the
surface-based r⁶ Generalized-Born polarization energy, its distributed
(``OCT_MPI``) and hybrid (``OCT_MPI+CILK``) parallelisations on a
simulated cluster of multicores, and emulators of the five MD packages
the paper compares against.

Quick start::

    from repro import PolarizationSolver, ApproxParams
    from repro.molecules import synthetic_protein

    mol = synthetic_protein(5000, seed=1)
    solver = PolarizationSolver(mol, ApproxParams())
    print(solver.energy())           # kcal/mol
"""

from repro.config import ApproxParams
from repro.constants import COULOMB_KCAL, EPSILON_SOLVENT, TAU_WATER, tau
from repro.core.solver import PolarizationSolver, SolverReport
from repro.molecules.molecule import Molecule, SurfaceSamples

__version__ = "1.0.0"

__all__ = [
    "ApproxParams",
    "PolarizationSolver",
    "SolverReport",
    "Molecule",
    "SurfaceSamples",
    "COULOMB_KCAL",
    "EPSILON_SOLVENT",
    "TAU_WATER",
    "tau",
    "__version__",
]
