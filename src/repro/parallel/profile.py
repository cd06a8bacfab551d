"""Work profiles: one real traversal, many simulated schedules.

Scalability experiments sweep dozens of (P, p, seed) configurations
over the *same* molecule.  The numerics are identical across the sweep
— node-based division composes the same partial sums in every layout —
so the expensive traversal runs once, captured in a
:class:`WorkProfile`, and each configuration replays scheduling and
communication over the recorded per-leaf costs.  This mirrors how the
paper treats octree construction (a reusable preprocessing artefact),
extended one level up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ApproxParams
from repro.core.born_octree import PerSourceCounts
from repro.core.solver import PolarizationSolver
from repro.molecules.molecule import Molecule
from repro.obs import span


@dataclass
class WorkProfile:
    """Everything a scheduling simulation needs about one solve."""

    name: str
    natoms: int
    nqpoints: int
    params: ApproxParams
    method: str
    #: Per-source-leaf counts for the Born pass (Q-leaves for the
    #: single-tree method, atoms leaves for the dual-tree method).
    born_per_source: PerSourceCounts
    #: Per-V-leaf counts for the energy pass.
    epol_per_source: PerSourceCounts
    #: Bucket count M_ε of the energy far-field kernel.
    nbuckets: int
    #: Total nodes of the atoms / q-points octrees.
    atoms_nodes: int
    qpoints_nodes: int
    #: Replicated per-process data footprint in bytes (molecule + both
    #: octrees + working arrays) — the paper's memory argument input.
    data_bytes: int
    #: Ground-truth results of the (serial) run this profile recorded.
    energy: float
    born_radii: np.ndarray

    @classmethod
    def from_molecule(cls, molecule: Molecule,
                      params: ApproxParams = ApproxParams(),
                      method: str = "octree") -> "WorkProfile":
        """Run the solver once and capture per-leaf work. ``method`` is
        ``"octree"`` (single-tree, Figs. 2–3) or ``"dualtree"``
        (prior-work OCT_CILK algorithm)."""
        with span("profile.from_molecule", method=method,
                  natoms=molecule.natoms):
            return cls.from_solver(
                PolarizationSolver(molecule, params, method=method))

    @classmethod
    def from_solver(cls, solver: PolarizationSolver) -> "WorkProfile":
        """Capture a profile from an already-run PolarizationSolver.

        Reuses the solver's cached traversal results instead of paying
        a second traversal (``repro solve --trace`` uses this to attach
        a simulated schedule to a solve it just traced).  Requires an
        octree/dualtree solver; the naive method records no per-leaf
        counts.
        """
        if solver.method not in ("octree", "dualtree"):
            raise ValueError("naive solves record no per-leaf work")
        energy = solver.energy()   # ensures both passes have run
        born = solver.born_result
        epol = solver.epol_result
        atoms_tree = solver.atoms_tree
        q_tree = solver.qpoints_tree
        molecule = solver.molecule
        working = 8 * (atoms_tree.nnodes + 2 * atoms_tree.npoints)
        data_bytes = (molecule.nbytes() + atoms_tree.nbytes()
                      + q_tree.nbytes() + working)
        return cls(
            name=molecule.name,
            natoms=molecule.natoms,
            nqpoints=molecule.nqpoints,
            params=solver.params,
            method=solver.method,
            born_per_source=born.per_source,
            epol_per_source=epol.per_source,
            nbuckets=epol.buckets.nbuckets,
            atoms_nodes=atoms_tree.nnodes,
            qpoints_nodes=q_tree.nnodes,
            data_bytes=int(data_bytes),
            energy=energy,
            born_radii=solver.born_radii(),
        )

    @property
    def born_leaf_count(self) -> int:
        return len(self.born_per_source.visits)

    @property
    def epol_leaf_count(self) -> int:
        return len(self.epol_per_source.visits)
