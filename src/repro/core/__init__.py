"""Core algorithms: GB kernels, naive references, octree solvers."""

from repro.core.fingerprint import arrays_fingerprint, molecule_fingerprint
from repro.core.gb import fgb_still, pair_energy_matrix, fast_exp, fast_rsqrt
from repro.core.born_naive import born_radii_naive_r6, born_radii_naive_r4
from repro.core.energy_naive import epol_naive
from repro.core.born_octree import born_radii_octree, BornResult
from repro.core.energy_octree import epol_octree, EpolResult
from repro.core.dualtree import born_radii_dualtree
from repro.core.solver import PolarizationSolver, SolverReport

__all__ = [
    "arrays_fingerprint",
    "molecule_fingerprint",
    "fgb_still",
    "pair_energy_matrix",
    "fast_exp",
    "fast_rsqrt",
    "born_radii_naive_r6",
    "born_radii_naive_r4",
    "epol_naive",
    "born_radii_octree",
    "BornResult",
    "epol_octree",
    "EpolResult",
    "born_radii_dualtree",
    "PolarizationSolver",
    "SolverReport",
]
