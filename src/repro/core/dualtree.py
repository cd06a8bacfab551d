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
from repro.core.gb import (born_far_terms, born_integral_block,
                           bucket_far_energy, energy_prefactor,
                           pair_energy_matrix)
from repro.geomutil import ranges_to_indices
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
                  ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Descend ``(tree_a, tree_b)`` from ``(root, root)``, splitting the
    larger node of each pair until ``accept(a, b, r, rsum)`` marks it far
    (then ``far_step(a, b, d, r2)`` settles it, ``d`` pointing from the
    ``a`` node to the ``b`` node) or both sides are leaves.

    Returns the exact ``(a leaf, b leaf)`` pairs, level by level, and the
    visit and far totals.
    """
    a = np.zeros(1, dtype=np.int64)
    b = np.zeros(1, dtype=np.int64)
    exact_a: list = []
    exact_b: list = []
    visits = far_n = 0
    while len(a):
        visits += len(a)
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


def _per_leaf_counts(tree: Octree, far_by_node: np.ndarray,
                     exact_by_leaf: np.ndarray) -> PerSourceCounts:
    """Attribute internal-node far evaluations down to leaves.

    A far evaluation at internal node ``A`` stands for work on behalf of
    all atoms under ``A``; we apportion it to descendant leaves in
    proportion to their point counts, so the per-leaf task costs sum to
    the traversal totals.
    """
    node_counts = (tree.end - tree.start).astype(np.float64)
    density = far_by_node / node_counts
    anc = ancestor_prefix(tree, density)
    leaves = tree.leaves
    leaf_counts = node_counts[leaves]
    far_leaf = (anc[leaves] + density[leaves]) * leaf_counts
    return PerSourceCounts(
        visits=np.zeros(len(leaves), dtype=np.int64),
        far=far_leaf,
        exact_interactions=exact_by_leaf[leaves],
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
    exact_by_aleaf = np.zeros(atoms_tree.nnodes, dtype=np.float64)

    def deposit(fa, fq, d, r2):
        np.add.at(s_node, fa,
                  born_far_terms(wn_node[fq], d, r2, params.approx_math))
        np.add.at(far_by_anode, fa, 1.0)

    ea, eq, visits, far_n = _dual_descend(
        atoms_tree, q_tree,
        lambda a, q, r, rsum: _born_far_mask(r, DUAL_MAC_SAFETY * rsum,
                                             params),
        deposit)
    counts = TraversalCounts(visits, far_n)

    if len(ea):
        order = np.argsort(ea, kind="stable")
        ea, eq = ea[order], eq[order]
        uniq, first = np.unique(ea, return_index=True)
        bounds = np.append(first, len(ea))
        for u, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
            qsel = ranges_to_indices(q_tree.start[eq[lo:hi]],
                                     q_tree.end[eq[lo:hi]])
            asl = atoms_tree.slice_of(int(u))
            s_atom[asl] += born_integral_block(
                atoms_tree.points[asl], q_tree.points[qsel],
                wn_sorted[qsel], params.approx_math)
            pairs = (asl.stop - asl.start) * len(qsel)
            counts.near_pair_blocks += hi - lo
            counts.exact_interactions += pairs
            exact_by_aleaf[int(u)] += pairs

    intrinsic_sorted = molecule.radii[atoms_tree.perm]
    radii_sorted = push_integrals_to_atoms(atoms_tree, s_node, s_atom,
                                           intrinsic_sorted)
    radii = atoms_tree.scatter_to_original(radii_sorted)
    per_source = _per_leaf_counts(atoms_tree, far_by_anode, exact_by_aleaf)
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
    exact_by_vleaf = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    total = 0.0

    def far_step(fu, fv, d, r2):
        nonlocal total
        total = bucket_far_energy(r2, buckets.table, fu, buckets.table, fv,
                                  buckets.products, params.approx_math,
                                  total)
        np.add.at(far_by_unode, fu, 1.0)

    # Never approximate a node against itself (r_UV = 0).
    eu, ev, visits, far_n = _dual_descend(
        atoms_tree, atoms_tree,
        lambda u, v, r, rsum: (u != v) & (r > rsum * mac), far_step)
    counts = TraversalCounts(visits, far_n)

    if len(eu):
        order = np.argsort(ev, kind="stable")
        eu, ev = eu[order], ev[order]
        pts = atoms_tree.points
        uniq, first = np.unique(ev, return_index=True)
        bounds = np.append(first, len(ev))
        for v, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
            usel = ranges_to_indices(atoms_tree.start[eu[lo:hi]],
                                     atoms_tree.end[eu[lo:hi]])
            vsl = atoms_tree.slice_of(int(v))
            total += pair_energy_matrix(
                pts[usel], q_sorted[usel], R_sorted[usel],
                pts[vsl], q_sorted[vsl], R_sorted[vsl],
                approx_math=params.approx_math)
            pairs = len(usel) * (vsl.stop - vsl.start)
            counts.near_pair_blocks += hi - lo
            counts.exact_interactions += pairs
            exact_by_vleaf[int(v)] += pairs

    per_source = _per_leaf_counts(atoms_tree, far_by_unode, exact_by_vleaf)
    record_traversal_metrics("epol", counts, per_source)
    record_bucket_metrics(buckets)
    return EpolResult(energy=energy_prefactor(tau) * total, counts=counts,
                      buckets=buckets, atoms_tree=atoms_tree,
                      per_source=per_source)
