"""Octree GB polarization energy — the paper's Fig. 3 algorithm.

``APPROX-EPOL(U, V)`` evaluates the interaction of a *leaf* ``V`` of the
atoms octree with the whole tree: starting from the root,

1. a leaf ``U`` is evaluated exactly (all near ancestors descended);
2. a far internal node (``r_UV > (r_U + r_V)(1 + 2/ε)``) is collapsed to
   its Born-radius *charge buckets*: atoms are binned by Born radius on
   a ``(1+ε)``-geometric grid ``[R_min(1+ε)^k, R_min(1+ε)^{k+1})`` and
   only bucket totals interact —
   ``Σ_{i,j} q_U[i] q_V[j] / f_GB(r_UV, R_min²(1+ε)^{i+j})``;
3. otherwise recursion descends ``U``'s children.

Driving every tree leaf ``V`` against the root covers each *ordered*
atom pair exactly once, which is precisely Eq. 2's double sum (self
pairs included via the ``U == V`` exact block).  Eq. 2 is symmetric, so
an exact block whose mirror is exact too is evaluated once, with
doubled charges.

As in :mod:`repro.core.born_octree`, the recursion is
:func:`repro.core.frontier.descend`, a vectorised frontier of
``(U, V)`` index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import PerSourceCounts, TraversalCounts
from repro.core.frontier import NearTable, descend, epol_near_field
from repro.core.gb import bucket_far_energy, energy_prefactor
from repro.obs import (
    record_bucket_metrics,
    record_traversal_metrics,
    span,
    traced,
)
from repro.molecules.molecule import Molecule
from repro.octree.build import Octree, build_octree

#: Sentinel cap on the (1+ε) bucket grid.  Legitimate radii are capped
#: at RGBMAX (30 Å) and floored near 1 Å, so even ε = 0.01 needs only
#: ~350 buckets; blowing past this means a corrupted radius stretched
#: the span and almost every bucket would sit empty.
MAX_BUCKETS = 512


@dataclass
class ChargeBuckets:
    """Per-node charge totals binned by Born radius (paper Fig. 3).

    Attributes
    ----------
    table:
        ``(nnodes, M_ε)`` bucket sums ``q_U[k]``.
    r_min, r_max:
        Global Born-radius extremes.
    base:
        Geometric bucket ratio ``1 + ε``.
    products:
        ``(M_ε, M_ε)`` matrix ``R_min²(1+ε)^{i+j}`` — the Born-radius
        product proxy used by the far-field kernel.
    """

    table: np.ndarray
    r_min: float
    r_max: float
    base: float
    products: np.ndarray

    @property
    def nbuckets(self) -> int:
        return self.table.shape[1]


@traced("epol.buckets")
def build_charge_buckets(tree: Octree,
                         charges_sorted: np.ndarray,
                         born_sorted: np.ndarray,
                         eps: float, *,
                         r_min: Optional[float] = None,
                         r_max: Optional[float] = None) -> ChargeBuckets:
    """Bucket every node's charge by Born radius on the (1+ε) grid.

    The grid spans ``[r_min, r_max]``, by default the extremes of
    ``born_sorted``; a rank holding part of the atoms passes the global
    extremes so every rank's tables share one grid.
    """
    from repro.guard.errors import NumericalGuardError
    R = np.asarray(born_sorted, dtype=np.float64)
    # NaN compares False against <= 0, so non-finite entries need their
    # own sentinel or they silently poison every bucket downstream.
    bad = np.flatnonzero(~np.isfinite(R))
    if len(bad):
        raise NumericalGuardError(
            "non-finite Born radii entering the energy pass",
            phase="epol", indices=bad)
    if np.any(R <= 0):
        raise NumericalGuardError(
            "Born radii must be positive", phase="epol",
            indices=np.flatnonzero(R <= 0))
    r_min = float(R.min()) if r_min is None else r_min
    r_max = float(R.max()) if r_max is None else r_max
    base = 1.0 + eps
    if r_max > r_min:
        m_eps = int(np.floor(np.log(r_max / r_min) / np.log(base))) + 1
    else:
        m_eps = 1
    if m_eps > MAX_BUCKETS:
        # A (1+ε) grid this wide means a corrupted radius stretched
        # r_max/r_min absurdly; the per-node bucket tables would
        # dominate memory with almost every bucket empty.
        raise NumericalGuardError(
            f"charge-bucket grid exploded to {m_eps} buckets "
            f"(cap {MAX_BUCKETS}); Born radii span "
            f"[{r_min:.3g}, {r_max:.3g}] Å", phase="epol",
            hint="a corrupted radius usually causes this — or raise "
                 "eps_epol")
    bucket = np.zeros(len(R), dtype=np.int64)
    if m_eps > 1:
        bucket = np.clip((np.log(R / r_min) / np.log(base)).astype(np.int64),
                         0, m_eps - 1)

    # A node's bucket table is the sum of its points' (bucket, charge)
    # pairs; compute all nodes in one pass with a cumulative table over
    # the sorted atom order, then slice-differences per node.
    onehot_cum = np.zeros((tree.npoints + 1, m_eps), dtype=np.float64)
    np.add.at(onehot_cum, (np.arange(tree.npoints) + 1, bucket),
              charges_sorted)
    onehot_cum = np.cumsum(onehot_cum, axis=0)
    table = onehot_cum[tree.end] - onehot_cum[tree.start]

    powers = r_min * base ** np.arange(m_eps)
    products = np.outer(powers, powers)
    return ChargeBuckets(table=table, r_min=r_min, r_max=r_max,
                         base=base, products=products)


@traced("epol.traversal")
def approx_epol_for_leaves(atoms_tree: Octree,
                           charges_sorted: np.ndarray,
                           born_sorted: np.ndarray,
                           buckets: ChargeBuckets,
                           params: ApproxParams,
                           v_leaf_subset: Optional[np.ndarray] = None
                           ) -> Tuple[float, TraversalCounts,
                                      PerSourceCounts]:
    """Raw double sum ``Σ q q / f_GB`` for a segment of V-leaves.

    ``v_leaf_subset`` holds positions into ``atoms_tree.leaves`` (the
    per-rank segment of the distributed algorithm); ``None`` means all
    leaves.  Multiply the result by
    :func:`repro.core.gb.energy_prefactor` for kcal/mol.
    """
    leaf_ids = atoms_tree.leaves
    if v_leaf_subset is not None:
        leaf_ids = leaf_ids[np.asarray(v_leaf_subset)]
    mac = 1.0 + 2.0 / params.eps_epol
    is_leaf = atoms_tree.is_leaf
    total = 0.0

    def far_step(u, v, d, r2):
        nonlocal total
        total = bucket_far_energy(r2, buckets.table, u, buckets.table,
                                  leaf_ids[v], buckets.products,
                                  params.approx_math, total)

    # Fig. 3 sends every leaf U to the exact blocks, far or not.
    with span("epol.traversal.far"):
        walk = descend(atoms_tree, atoms_tree.center[leaf_ids],
                       atoms_tree.radius[leaf_ids],
                       lambda u, r, rsum: ~is_leaf[u] & (r > rsum * mac),
                       far_step)
    with span("epol.traversal.near"):
        atoms = NearTable.of(atoms_tree, charges_sorted, born_sorted)
        total, pairs = epol_near_field(
            walk.near_nodes, leaf_ids[walk.near_src], atoms, atoms,
            params.approx_math, total)
    counts = TraversalCounts(int(walk.visits.sum()), int(walk.far.sum()),
                             len(pairs), int(pairs.sum()))
    pv_exact = np.bincount(walk.near_src, weights=pairs,
                           minlength=len(leaf_ids)).astype(np.int64)
    return total, counts, PerSourceCounts(walk.visits, walk.far, pv_exact)


@dataclass
class EpolResult:
    """Output of the octree energy solver (energy in kcal/mol)."""

    energy: float
    counts: TraversalCounts
    buckets: ChargeBuckets
    atoms_tree: Octree
    per_source: Optional[PerSourceCounts] = None


def epol_octree(molecule: Molecule,
                born_radii: np.ndarray,
                params: ApproxParams = ApproxParams(),
                atoms_tree: Optional[Octree] = None,
                tau: float = TAU_WATER) -> EpolResult:
    """Serial octree ``E_pol`` for a whole molecule (kcal/mol)."""
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    q_sorted = molecule.charges[atoms_tree.perm]
    R_sorted = np.asarray(born_radii)[atoms_tree.perm]
    buckets = build_charge_buckets(atoms_tree, q_sorted, R_sorted,
                                   params.eps_epol)
    raw, counts, per_source = approx_epol_for_leaves(
        atoms_tree, q_sorted, R_sorted, buckets, params)
    record_traversal_metrics("epol", counts, per_source)
    record_bucket_metrics(buckets)
    return EpolResult(energy=energy_prefactor(tau) * raw, counts=counts,
                      buckets=buckets, atoms_tree=atoms_tree,
                      per_source=per_source)
