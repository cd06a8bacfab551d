"""The cold solve path, replayed one public call at a time.

``repro solve`` and a cold serve request both run
``synthetic_protein(n, seed)`` and then ``GuardedSolver(mol).report()``.
:func:`replay` makes the same calls on the primary rung of the guard
ladder, in the same order and with the same arguments, but times each
one from outside and opens a ``bench.<layer>`` span around it.  The
program's own spans nest under those when tracing is on, and nothing
inside ``src/`` changes.  Because the calls are the same, the replayed
energy equals ``GuardedSolver``'s bit for bit (``test_ledger.py``
checks this).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

import numpy as np

import spec  # noqa: F401  (puts the checkout's src/ on sys.path)
import repro.obs as obs
from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import approx_integrals, push_integrals_to_atoms
from repro.core.energy_octree import (
    approx_epol_for_leaves,
    build_charge_buckets,
)
from repro.core.gb import energy_prefactor
from repro.core.solver import PolarizationSolver
from repro.guard.checks import check_born_radii, check_finite, preflight
from repro.guard.solver import GuardedSolver, GuardPolicy
from repro.guard.watchdog import check_born_subset
from repro.molecules.generator import synthetic_protein
from repro.molecules.molecule import Molecule
from repro.molecules.surface import sample_surface
from repro.octree.build import build_octree

#: Layers whose seconds make up an octree solve (the speedup's base).
KERNEL_LAYERS = ("octree.build_s", "core.born.traversal_s",
                 "core.born.push_s", "core.epol.buckets_s",
                 "core.epol.traversal_s")


@dataclass
class Replay:
    """Seconds and counts per layer of one replayed cold solve."""

    energy: float
    radii: np.ndarray
    molecule: Molecule
    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def kernel_seconds(self) -> float:
        return sum(self.seconds[k] for k in KERNEL_LAYERS)


@contextmanager
def _layer(seconds: Dict[str, float], name: str) -> Iterator[None]:
    """Time one layer call into ``seconds[name]`` under a bench span."""
    with obs.span("bench." + name[:-2], cat="bench"):
        t0 = time.perf_counter()
        yield
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0


def cold_solve(n_atoms: int, seed: int):
    """The default cold path: recipe → molecule → guarded energy."""
    return GuardedSolver(synthetic_protein(n_atoms, seed=seed)).report()


def replay(n_atoms: int, seed: int,
           params: ApproxParams = ApproxParams()) -> Replay:
    """:func:`cold_solve` split into its layers (primary rung only)."""
    sec: Dict[str, float] = {}
    policy = GuardPolicy()
    with _layer(sec, "molecules.generate_s"):
        mol = synthetic_protein(n_atoms, seed=seed, with_surface=False)
    with _layer(sec, "molecules.surface_s"):
        mol = sample_surface(mol, subdivisions=0, degree=1)
    with _layer(sec, "guard.preflight_s"):
        preflight(mol, params)
    surf = mol.require_surface()
    with _layer(sec, "octree.build_s"):
        atoms_tree = build_octree(mol.positions, params.leaf_size,
                                  params.max_depth)
        q_tree = build_octree(surf.points, params.leaf_size,
                              params.max_depth)
    with _layer(sec, "core.born.traversal_s"):
        wn_sorted = surf.weighted_normals[q_tree.perm]
        s_node, s_atom, born_counts, _ = approx_integrals(
            atoms_tree, q_tree, wn_sorted, params)
    with _layer(sec, "core.born.push_s"):
        radii_sorted = push_integrals_to_atoms(
            atoms_tree, s_node, s_atom, mol.radii[atoms_tree.perm])
        radii = atoms_tree.scatter_to_original(radii_sorted)
    with _layer(sec, "guard.watchdog_s"):
        check_born_radii("born", radii, intrinsic=mol.radii)
        check_born_subset(mol, radii, params, seed=policy.watchdog_seed,
                          samples=policy.watchdog_samples,
                          tolerance=policy.watchdog_tolerance)
    radii = np.asarray(radii, dtype=np.float64)
    with _layer(sec, "core.epol.buckets_s"):
        q_sorted = mol.charges[atoms_tree.perm]
        r_sorted = radii[atoms_tree.perm]
        buckets = build_charge_buckets(atoms_tree, q_sorted, r_sorted,
                                       params.eps_epol)
    with _layer(sec, "core.epol.traversal_s"):
        raw, epol_counts, _ = approx_epol_for_leaves(
            atoms_tree, q_sorted, r_sorted, buckets, params)
    energy = float(energy_prefactor(TAU_WATER) * raw)
    check_finite("epol", "E_pol", np.asarray(energy))
    counts = {
        "molecules.surface_points": mol.nqpoints,
        "octree.nodes": atoms_tree.nnodes + q_tree.nnodes,
        "core.born.far_evals": born_counts.far_evaluations,
        "core.born.near_blocks": born_counts.near_pair_blocks,
        "core.born.exact_pairs": born_counts.exact_interactions,
        "core.epol.far_evals": epol_counts.far_evaluations,
        "core.epol.near_blocks": epol_counts.near_pair_blocks,
        "core.epol.exact_pairs": epol_counts.exact_interactions,
    }
    return Replay(energy=energy, radii=radii, molecule=mol, seconds=sec,
                  counts=counts)


def naive_reference(mol: Molecule):
    """Exact (naive) Born radii and energy of a surfaced molecule, and
    the seconds they took."""
    t0 = time.perf_counter()
    solver = PolarizationSolver(mol, method="naive")
    energy = solver.energy()
    return solver.born_radii(), energy, time.perf_counter() - t0
