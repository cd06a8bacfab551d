"""Dual-tree traversal — the prior-work algorithm behind ``OCT_CILK``.

The paper's §IV opens by noting the "major difference of our approach
from algorithms presented in [6] is that we only traverse one octree
instead of two".  The *two*-octree scheme of Chowdhury & Bajaj [6,7] is
what the shared-memory ``OCT_CILK`` implementation runs, and Fig. 7
compares the two — so this module implements the dual-tree variant:
both octrees are recursed *simultaneously*, descending the larger of
the current pair until either the MAC admits a pseudo-particle
approximation or both sides are leaves.

Relative to the single-tree scheme, far-field approximation can trigger
with *both* sides collapsed (pseudo-atom × pseudo-q-point), which does
less work per accepted pair but requires depositing into internal nodes
of both trees — for Born radii the deposit side is the atoms tree, so
the bookkeeping stays identical and results remain within the same ε
error envelope.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.core.born_octree import (
    BornResult,
    PerSourceCounts,
    TraversalCounts,
    _born_far_mask,
    ancestor_prefix,
    push_integrals_to_atoms,
)
from repro.core.energy_octree import EpolResult, build_charge_buckets
from repro.core.frontier import NearTable, born_near_field, epol_near_field
from repro.core.gb import born_far_terms, bucket_far_energy, energy_prefactor
from repro.obs import record_bucket_metrics, record_traversal_metrics
from repro.constants import TAU_WATER
from repro.molecules.molecule import Molecule
from repro.octree.build import NO_CHILD, Octree, build_octree

#: Dual-tree MAC safety factor.  The single-tree scheme collapses only
#: one side of a pair, so its distance spread is bounded by that side's
#: radius; the dual-tree scheme replaces *both* nodes by pseudo-points,
#: doubling the worst-case spread — the prior-work criterion therefore
#: demands twice the separation for the same ε.  (This is also why the
#: paper's new single-tree algorithm wins on large molecules, Fig. 7.)
DUAL_MAC_SAFETY = 2.0


def node_aggregates(tree: Octree, values_sorted: np.ndarray) -> np.ndarray:
    """Per-node sums of per-point values via one cumulative pass.

    ``values_sorted`` may be ``(n,)`` or ``(n, k)``; returns
    ``(nnodes,)`` or ``(nnodes, k)``.
    """
    v = np.asarray(values_sorted, dtype=np.float64)
    cum = np.concatenate([np.zeros((1,) + v.shape[1:], dtype=np.float64),
                          np.cumsum(v, axis=0)])
    return cum[tree.end] - cum[tree.start]


def _expand_larger(a: np.ndarray, b: np.ndarray,
                   tree_a: Octree, tree_b: Octree
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand the larger-radius side of each (a, b) pair into children.

    A side that is a leaf cannot expand; if both are leaves the pair
    should have been routed to the exact kernel before calling this.
    """
    ra = tree_a.radius[a]
    rb = tree_b.radius[b]
    a_leaf = tree_a.is_leaf[a]
    b_leaf = tree_b.is_leaf[b]
    pick_a = (~a_leaf) & (b_leaf | (ra >= rb))

    out_a = []
    out_b = []
    if pick_a.any():
        ia, ib = a[pick_a], b[pick_a]
        ch = tree_a.children[ia]
        valid = ch != NO_CHILD
        out_a.append(ch[valid])
        out_b.append(np.repeat(ib, valid.sum(axis=1)))
    pick_b = ~pick_a
    if pick_b.any():
        ia, ib = a[pick_b], b[pick_b]
        ch = tree_b.children[ib]
        valid = ch != NO_CHILD
        out_b.append(ch[valid])
        out_a.append(np.repeat(ia, valid.sum(axis=1)))
    if not out_a:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.concatenate(out_a), np.concatenate(out_b)


def _dual_descend(tree_a: Octree, tree_b: Octree, accept, far_step
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Descend ``(tree_a, tree_b)`` from ``(root, root)``, splitting the
    larger node of each pair until ``accept(a, b, r, rsum)`` marks it far
    (then ``far_step(a, b, d, r2)`` settles it, ``d`` pointing from the
    ``a`` node to the ``b`` node) or both sides are leaves.

    Returns the exact ``(a leaf, b leaf)`` pairs, level by level, the
    visits per ``tree_a`` node and the far total.
    """
    a = np.zeros(1, dtype=np.int64)
    b = np.zeros(1, dtype=np.int64)
    exact_a: list = []
    exact_b: list = []
    visits = np.zeros(tree_a.nnodes, dtype=np.int64)
    far_n = 0
    while len(a):
        visits += np.bincount(a, minlength=tree_a.nnodes)
        d = tree_b.center[b] - tree_a.center[a]
        r2 = np.einsum("ij,ij->i", d, d)
        far = accept(a, b, np.sqrt(r2), tree_a.radius[a] + tree_b.radius[b])
        if far.any():
            far_step(a[far], b[far], d[far], r2[far])
            far_n += int(far.sum())
        rest = ~far
        a, b = a[rest], b[rest]
        both_leaf = tree_a.is_leaf[a] & tree_b.is_leaf[b]
        exact_a.append(a[both_leaf])
        exact_b.append(b[both_leaf])
        a, b = _expand_larger(a[~both_leaf], b[~both_leaf], tree_a, tree_b)
    return np.concatenate(exact_a), np.concatenate(exact_b), visits, far_n


def _per_leaf_counts(tree: Octree, visits_by_node: np.ndarray,
                     far_by_node: np.ndarray, exact_leaf: np.ndarray,
                     exact_pairs: np.ndarray) -> PerSourceCounts:
    """Attribute internal-node visits and far evaluations down to leaves.

    A visit or far evaluation at internal node ``A`` stands for work on
    behalf of all atoms under ``A``; we apportion it to descendant
    leaves in proportion to their point counts, so the per-leaf task
    costs sum to the traversal totals.  Exact pairs go to the leaf
    ``exact_leaf`` names for each exact block.
    """
    node_counts = (tree.end - tree.start).astype(np.float64)
    leaves = tree.leaves
    leaf_counts = node_counts[leaves]

    def to_leaves(by_node: np.ndarray) -> np.ndarray:
        density = by_node / node_counts
        anc = ancestor_prefix(tree, density)
        return (anc[leaves] + density[leaves]) * leaf_counts

    return PerSourceCounts(
        visits=to_leaves(visits_by_node),
        far=to_leaves(far_by_node),
        exact_interactions=np.bincount(exact_leaf, weights=exact_pairs,
                                       minlength=tree.nnodes)[leaves],
    )


def born_radii_dualtree(molecule: Molecule,
                        params: ApproxParams = ApproxParams(),
                        atoms_tree: Optional[Octree] = None,
                        q_tree: Optional[Octree] = None) -> BornResult:
    """r⁶ Born radii via simultaneous dual-tree traversal (refs [6,7])."""
    surf = molecule.require_surface()
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    if q_tree is None:
        q_tree = build_octree(surf.points, params.leaf_size,
                              params.max_depth)
    wn_sorted = surf.weighted_normals[q_tree.perm]
    wn_node = node_aggregates(q_tree, wn_sorted)

    s_node = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    s_atom = np.zeros(atoms_tree.npoints, dtype=np.float64)
    # Per-atoms-node far-evaluation tallies; pushed down to leaves at the
    # end to feed the OCT_CILK intra-node task model.
    far_by_anode = np.zeros(atoms_tree.nnodes, dtype=np.float64)

    def deposit(fa, fq, d, r2):
        np.add.at(s_node, fa,
                  born_far_terms(wn_node[fq], d, r2, params.approx_math))
        np.add.at(far_by_anode, fa, 1.0)

    ea, eq, visits_by_anode, far_n = _dual_descend(
        atoms_tree, q_tree,
        lambda a, q, r, rsum: _born_far_mask(r, DUAL_MAC_SAFETY * rsum,
                                             params),
        deposit)
    pairs = born_near_field(ea, eq, NearTable.of(atoms_tree),
                            NearTable.of(q_tree, wn_sorted), s_atom,
                            params.approx_math)
    counts = TraversalCounts(int(visits_by_anode.sum()), far_n, len(ea),
                             int(pairs.sum()))

    intrinsic_sorted = molecule.radii[atoms_tree.perm]
    radii_sorted = push_integrals_to_atoms(atoms_tree, s_node, s_atom,
                                           intrinsic_sorted)
    radii = atoms_tree.scatter_to_original(radii_sorted)
    per_source = _per_leaf_counts(atoms_tree, visits_by_anode, far_by_anode,
                                  ea, pairs)
    record_traversal_metrics("born", counts, per_source)
    return BornResult(radii=radii, s_node=s_node, s_atom=s_atom,
                      counts=counts, atoms_tree=atoms_tree,
                      qpoints_tree=q_tree, per_source=per_source)


def epol_dualtree(molecule: Molecule,
                  born_radii: np.ndarray,
                  params: ApproxParams = ApproxParams(),
                  atoms_tree: Optional[Octree] = None,
                  tau: float = TAU_WATER) -> EpolResult:
    """GB energy via dual-tree traversal over (atoms, atoms) node pairs.

    Starting from ``(root, root)`` and splitting disjointly guarantees
    each *ordered* atom pair is counted exactly once, matching Eq. 2.
    """
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    q_sorted = molecule.charges[atoms_tree.perm]
    R_sorted = np.asarray(born_radii)[atoms_tree.perm]
    buckets = build_charge_buckets(atoms_tree, q_sorted, R_sorted,
                                   params.eps_epol)
    mac = DUAL_MAC_SAFETY * (1.0 + 2.0 / params.eps_epol)
    far_by_unode = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    total = 0.0

    def far_step(fu, fv, d, r2):
        nonlocal total
        total = bucket_far_energy(r2, buckets.table, fu, buckets.table, fv,
                                  buckets.products, params.approx_math,
                                  total)
        np.add.at(far_by_unode, fu, 1.0)

    # Never approximate a node against itself (r_UV = 0).
    eu, ev, visits_by_unode, far_n = _dual_descend(
        atoms_tree, atoms_tree,
        lambda u, v, r, rsum: (u != v) & (r > rsum * mac), far_step)
    atoms = NearTable.of(atoms_tree, q_sorted, R_sorted)
    total, pairs = epol_near_field(eu, ev, atoms, atoms, params.approx_math,
                                   total)
    counts = TraversalCounts(int(visits_by_unode.sum()), far_n, len(eu),
                             int(pairs.sum()))
    per_source = _per_leaf_counts(atoms_tree, visits_by_unode, far_by_unode,
                                  ev, pairs)
    record_traversal_metrics("epol", counts, per_source)
    record_bucket_metrics(buckets)
    return EpolResult(energy=energy_prefactor(tau) * total, counts=counts,
                      buckets=buckets, atoms_tree=atoms_tree,
                      per_source=per_source)
