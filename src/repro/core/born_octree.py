"""Octree r⁶ Born radii — the paper's Fig. 2 algorithm.

Two phases, exactly as in the paper:

* ``APPROX-INTEGRALS(A, Q)`` — for every *leaf* ``Q`` of the
  quadrature-points octree, traverse the atoms octree from the root.
  When the pair is far enough (multiplicative-error MAC below), the
  whole leaf's surface patch collapses to a single pseudo-q-point and
  its contribution is deposited at the *internal* atoms-tree node ``A``;
  otherwise recursion descends ``A``; at an atoms leaf the contribution
  is computed exactly per atom.

* ``PUSH-INTEGRALS-TO-ATOMS`` — a top-down prefix pass adds every
  node's deposited integral to all atoms below it, then
  ``R_a = max{ r_a, (s_total/4π)^(−1/3) }``.

**MAC.** A pair is far when ``r_AQ − (r_A + r_Q) > 0`` and
``(r_AQ + r_A + r_Q) / (r_AQ − (r_A + r_Q)) < (1+ε)^(1/6)``: the ratio
of the largest to the smallest possible atom–q-point distance within
the pair is then below ``(1+ε)^(1/6)``, so every ``1/d⁶`` term is
approximated within a factor of ``1+ε``.  (The paper's Fig. 2
pseudo-code prints this comparison with ``>``; the prose version in
§II — which we implement — is the consistent one.)

**Implementation note.**  Rather than literal per-node recursion, the
traversal is :func:`repro.core.frontier.descend`: a *frontier* of
``(A-node, Q-leaf)`` index arrays advanced one level per step with
vector operations.  Identical visits and arithmetic to the DFS, two
orders of magnitude less interpreter overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.core.born_naive import integral_to_radius_r6
from repro.core.frontier import Descent, NearTable, born_near_field, descend
from repro.core.gb import born_far_terms
from repro.obs import record_traversal_metrics, span, traced
from repro.molecules.molecule import Molecule
from repro.octree.build import Octree, build_octree


@dataclass
class TraversalCounts:
    """Operation counts harvested from a traversal (cost-model input)."""

    frontier_visits: int = 0      # (A, Q) pairs examined
    far_evaluations: int = 0      # pairs settled by the pseudo-particle
    near_pair_blocks: int = 0     # leaf–leaf exact blocks
    exact_interactions: int = 0   # atom × q-point exact terms

    def merged(self, other: "TraversalCounts") -> "TraversalCounts":
        return TraversalCounts(
            self.frontier_visits + other.frontier_visits,
            self.far_evaluations + other.far_evaluations,
            self.near_pair_blocks + other.near_pair_blocks,
            self.exact_interactions + other.exact_interactions,
        )


@dataclass
class PerSourceCounts:
    """Per-source-leaf operation counts from one traversal.

    One entry per source leaf (Q-leaf for the Born pass, V-leaf for the
    energy pass).  The parallel drivers turn these into per-task costs
    for the work-stealing simulator: a rank's (or thread's) share of the
    computation is exactly the sum over its leaf segment.
    """

    visits: np.ndarray
    far: np.ndarray
    exact_interactions: np.ndarray


@dataclass
class BornResult:
    """Output of the octree Born solver.

    ``radii`` is in the molecule's original atom order.  ``s_node`` /
    ``s_atom`` are the raw partial integrals in tree order — the
    distributed algorithm reduces these across ranks before the push
    phase.
    """

    radii: np.ndarray
    s_node: np.ndarray
    s_atom: np.ndarray
    counts: TraversalCounts
    atoms_tree: Octree
    qpoints_tree: Octree
    per_source: Optional["PerSourceCounts"] = None


def qleaf_aggregates(q_tree: Octree, weighted_normals_sorted: np.ndarray
                     ) -> np.ndarray:
    """Per-Q-leaf pseudo-q-point weighted normal ``ñ_Q = Σ w_q n_q``.

    Leaves tile the sorted point range contiguously, so a single
    ``reduceat`` computes all sums.
    """
    starts = q_tree.start[q_tree.leaves]
    return np.add.reduceat(weighted_normals_sorted, starts, axis=0)


def _born_far_mask(r: np.ndarray, rsum: np.ndarray,
                   params: ApproxParams) -> np.ndarray:
    """Multipole acceptance for the Born traversal (see ApproxParams)."""
    if params.born_mac == "distance":
        return r > rsum * (1.0 + 2.0 / params.eps_born)
    beta = (1.0 + params.eps_born) ** (1.0 / 6.0)
    gap = r - rsum
    return (gap > 0.0) & (r + rsum < beta * gap)


def born_far_field(atoms_tree, s_node: np.ndarray, q_center: np.ndarray,
                   q_radius: np.ndarray, q_wn: np.ndarray,
                   params: ApproxParams,
                   atom_range: Optional[Tuple[int, int]] = None) -> Descent:
    """Fig. 2's descent of the atoms tree against pseudo-q-points.

    Every pair the MAC accepts, leaves included, deposits its
    :func:`~repro.core.gb.born_far_terms` at the atoms node, added to
    ``s_node`` level by level.  Returns the descent: its near (atoms
    leaf, q-row) pairs and per-q-row counts.  ``atoms_tree`` may be an
    :class:`Octree` or a peer rank's summary of one.
    """
    def deposit(a, q, d, r2):
        np.add(s_node, np.bincount(
            a, weights=born_far_terms(np.take(q_wn, q, axis=0), d, r2,
                                      params.approx_math),
            minlength=len(s_node)), out=s_node)

    return descend(atoms_tree, q_center, q_radius,
                   lambda a, r, rsum: _born_far_mask(r, rsum, params),
                   deposit, atom_range)


@traced("born.approx_integrals")
def approx_integrals(atoms_tree: Octree,
                     q_tree: Octree,
                     weighted_normals_sorted: np.ndarray,
                     params: ApproxParams,
                     q_leaf_subset: Optional[np.ndarray] = None,
                     atom_range: Optional[Tuple[int, int]] = None
                     ) -> Tuple[np.ndarray, np.ndarray, TraversalCounts,
                                "PerSourceCounts"]:
    """Run APPROX-INTEGRALS for a set of Q-leaves (paper Fig. 2, step 2).

    Parameters
    ----------
    q_leaf_subset:
        Positions *into* ``q_tree.leaves`` handled by this caller — the
        distributed algorithm gives each rank one contiguous segment.
        ``None`` means all leaves.
    atom_range:
        ATOM-BASED work division (paper §IV-A): restrict deposits to
        sorted atoms ``[s, e)``.  Atom subtrees disjoint from the range
        are pruned; far-field deposits are only allowed at nodes *fully
        inside* the range — a far node straddling a boundary is
        descended instead, which is exactly why atom-based division's
        approximation error varies with the process count while
        node-based division's does not.

    Returns
    -------
    s_node:
        ``(nnodes,)`` integrals deposited at atoms-tree nodes.
    s_atom:
        ``(m,)`` per-atom exact contributions, in *tree (sorted)* order.
    counts:
        Traversal statistics.
    per_source:
        Per-Q-leaf operation counts (rows align with the subset order).
    """
    rows = (slice(None) if q_leaf_subset is None
            else np.asarray(q_leaf_subset))
    leaf_ids = q_tree.leaves[rows]
    q_wn = qleaf_aggregates(q_tree, weighted_normals_sorted)[rows]
    a_start, a_end = atoms_tree.start, atoms_tree.end
    if atom_range is not None:
        rng_s, rng_e = atom_range
        if not 0 <= rng_s <= rng_e <= atoms_tree.npoints:
            raise ValueError(  # lint: ignore[RPR007] — API arg check
                "atom_range out of bounds")
        a_start = np.clip(a_start, rng_s, rng_e)
        a_end = np.clip(a_end, rng_s, rng_e)

    s_node = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    s_atom = np.zeros(atoms_tree.npoints, dtype=np.float64)
    with span("born.approx_integrals.far"):
        walk = born_far_field(atoms_tree, s_node, q_tree.center[leaf_ids],
                              q_tree.radius[leaf_ids], q_wn, params,
                              atom_range)
    with span("born.approx_integrals.near"):
        pairs = born_near_field(
            walk.near_nodes, leaf_ids[walk.near_src],
            NearTable(atoms_tree.points.T, a_start, a_end),
            NearTable.of(q_tree, weighted_normals_sorted), s_atom,
            params.approx_math)
    counts = TraversalCounts(int(walk.visits.sum()), int(walk.far.sum()),
                             len(pairs), int(pairs.sum()))
    exact_q = np.bincount(walk.near_src, weights=pairs,
                          minlength=len(leaf_ids)).astype(np.int64)
    return (s_node, s_atom, counts,
            PerSourceCounts(walk.visits, walk.far, exact_q))


def ancestor_prefix(tree: Octree, s_node: np.ndarray) -> np.ndarray:
    """``anc[i] = Σ_{A' ∈ ancestors(i)} s_node[A']`` for every node.

    Nodes are stored parent-before-child, so one vectorised sweep per
    depth level suffices.
    """
    anc = np.zeros(tree.nnodes, dtype=np.float64)
    for d in range(1, tree.max_depth() + 1):
        idx = np.flatnonzero(tree.depth == d)
        if len(idx) == 0:
            break
        p = tree.parent[idx]
        anc[idx] = anc[p] + s_node[p]
    return anc


@traced("born.push_integrals")
def push_integrals_to_atoms(atoms_tree: Octree,
                            s_node: np.ndarray,
                            s_atom: np.ndarray,
                            intrinsic_sorted: np.ndarray,
                            atom_range: Optional[Tuple[int, int]] = None
                            ) -> np.ndarray:
    """PUSH-INTEGRALS-TO-ATOMS (paper Fig. 2): Born radii in tree order.

    ``atom_range`` restricts output to sorted atoms ``[s_id, e_id)`` —
    the distributed algorithm's per-rank atom segment; other entries are
    returned as NaN so misuse is loud.
    """
    anc = ancestor_prefix(atoms_tree, s_node)
    total = s_atom.copy()
    leaves = atoms_tree.leaves
    for leaf in leaves:
        sl = atoms_tree.slice_of(int(leaf))
        total[sl] += anc[leaf] + s_node[leaf]

    radii = integral_to_radius_r6(total, intrinsic_sorted)
    if atom_range is not None:
        s_id, e_id = atom_range
        _check_push_filled(radii, s_id, e_id)
        out = np.full_like(radii, np.nan)
        out[s_id:e_id] = radii[s_id:e_id]
        return out
    _check_push_filled(radii, 0, len(radii))
    return radii


def _check_push_filled(radii: np.ndarray, s_id: int, e_id: int) -> None:
    """The push phase owns ``[s_id, e_id)``: every entry there must be a
    finite radius before the NaN placeholders go out.  An unfilled entry
    means a leaf the traversal never deposited into — raise loudly
    instead of letting the sentinel NaN masquerade as a result."""
    seg = radii[s_id:e_id]
    bad = np.flatnonzero(~np.isfinite(seg))
    if len(bad):
        from repro.guard.errors import NumericalGuardError
        raise NumericalGuardError(
            "push phase left unfilled (non-finite) Born radii entries",
            phase="push", indices=(bad + s_id),
            hint="indices are in tree (Morton-sorted) order; the "
                 "traversal skipped these atoms' leaves")


def born_radii_octree(molecule: Molecule,
                      params: ApproxParams = ApproxParams(),
                      atoms_tree: Optional[Octree] = None,
                      q_tree: Optional[Octree] = None) -> BornResult:
    """Serial octree r⁶ Born radii for a whole molecule.

    Builds both octrees unless supplied (a docking scan reuses them via
    :meth:`repro.octree.build.Octree.transformed`).
    """
    surf = molecule.require_surface()
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    if q_tree is None:
        q_tree = build_octree(surf.points, params.leaf_size,
                              params.max_depth)
    wn_sorted = surf.weighted_normals[q_tree.perm]

    s_node, s_atom, counts, per_source = approx_integrals(
        atoms_tree, q_tree, wn_sorted, params)
    intrinsic_sorted = molecule.radii[atoms_tree.perm]
    radii_sorted = push_integrals_to_atoms(
        atoms_tree, s_node, s_atom, intrinsic_sorted)
    radii = atoms_tree.scatter_to_original(radii_sorted)
    record_traversal_metrics("born", counts, per_source)
    return BornResult(radii=radii, s_node=s_node, s_atom=s_atom,
                      counts=counts, atoms_tree=atoms_tree,
                      qpoints_tree=q_tree, per_source=per_source)
