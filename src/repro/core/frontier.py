"""The one frontier traversal behind Figs. 2 and 3, and the exact near
field that ends it (docs/ALGORITHMS.md §10).

APPROX-INTEGRALS and APPROX-EPOL share one shape: descend a tree from
its root against a set of *source* spheres, settle far pairs with a
pseudo-particle, and hand near leaf pairs to an exact kernel.
:func:`descend` owns the descent and its counts; the caller owns the
acceptance test (including its rule for leaves) and the far step.
:func:`born_near_field` and :func:`epol_near_field` run every solver's
near leaf pairs through the exact kernels, one kernel call per target
leaf.

The recursion runs as a vectorised frontier of ``(node, source)`` index
arrays, one tree level per step: identical visits and arithmetic to the
per-node DFS, without its interpreter overhead.  Far pairs are handed
to the caller level by level, in frontier order, so callers that sum
into one running total keep a fixed summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.gb import born_integral_block, pair_energy_matrix
from repro.geomutil import ranges_to_indices
from repro.octree.build import NO_CHILD

#: ``accept(nodes, r, rsum) -> far`` — the multipole acceptance test
#: for ``(node, source)`` pairs at centre distance ``r`` whose radii sum
#: to ``rsum``.
Accept = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
#: ``far_step(nodes, sources, d, r2)`` — settles far pairs, where ``d``
#: is source centre minus node centre and ``r2 = |d|²``.
FarStep = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class Descent:
    """What one descent leaves for its caller."""

    #: Tree leaf ids and source rows of the near pairs, level by level
    #: in frontier order.
    near_nodes: np.ndarray
    near_src: np.ndarray
    #: ``(n_src,)`` pairs examined / settled by the far step, per source.
    visits: np.ndarray
    far: np.ndarray


def descend(tree, src_center: np.ndarray, src_radius: np.ndarray,
            accept: Accept, far_step: FarStep,
            point_range: Optional[Tuple[int, int]] = None) -> Descent:
    """Descend ``tree`` from its root against every source sphere.

    ``tree`` is anything with per-node ``center``, ``radius``,
    ``children``, ``is_leaf``, ``start`` and ``end`` arrays (an
    :class:`~repro.octree.build.Octree`, or a peer rank's summary of
    one).  A pair ``accept`` marks far goes to ``far_step``; a near
    pair at a tree leaf is returned; any other near pair descends the
    node's children.

    ``point_range = (s, e)`` restricts the descent to tree points
    ``[s, e)``: pairs whose node is disjoint from the range are dropped
    before they count as visits, and a node straddling the range is
    never far (its deposit would leak outside the range), so it is
    descended instead.
    """
    n = len(src_radius)
    visits = np.zeros(n, dtype=np.int64)
    far_n = np.zeros(n, dtype=np.int64)
    near_nodes = [np.empty(0, dtype=np.int64)]
    near_src = [np.empty(0, dtype=np.int64)]
    if point_range is not None:
        s, e = point_range
        outside = (tree.end <= s) | (tree.start >= e)
        inside = (tree.start >= s) & (tree.end <= e)

    nodes = np.zeros(n, dtype=np.int64)
    src = np.arange(n, dtype=np.int64)
    while len(nodes):
        if point_range is not None:
            keep = ~outside[nodes]
            nodes, src = nodes[keep], src[keep]
        visits += np.bincount(src, minlength=n)
        # np.take / np.compress: same values as fancy indexing of the
        # (pairs, 3) arrays, at a quarter of its cost.
        d = np.take(src_center, src, axis=0)
        d -= np.take(tree.center, nodes, axis=0)
        r2 = np.einsum("ij,ij->i", d, d)
        far = accept(nodes, np.sqrt(r2), tree.radius[nodes] + src_radius[src])
        if point_range is not None:
            far &= inside[nodes]
        if far.any():
            far_step(nodes[far], src[far], np.compress(far, d, axis=0),
                     r2[far])
            far_n += np.bincount(src[far], minlength=n)
        rest = ~far
        nodes, src = nodes[rest], src[rest]
        leaf = tree.is_leaf[nodes]
        near_nodes.append(nodes[leaf])
        near_src.append(src[leaf])
        ch = np.take(tree.children, nodes[~leaf], axis=0)
        valid = ch != NO_CHILD
        nodes = ch[valid]
        src = np.repeat(src[~leaf], valid.sum(axis=1))

    return Descent(np.concatenate(near_nodes), np.concatenate(near_src),
                   visits, far_n)


class NearTable(NamedTuple):
    """Columns of points for the exact blocks, one row per field with
    coordinates first (``(6, n)`` points and weighted normals for Fig. 2,
    ``(5, n)`` atoms, charges and Born radii for Fig. 3), and the
    ``[start, end)`` range of columns each id (tree node or source row)
    owns."""

    cols: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, tree, *fields: np.ndarray) -> "NearTable":
        """``tree``'s sorted points over per-point ``fields``."""
        return cls(np.vstack([tree.points.T, *(f.T for f in fields)]),
                   tree.start, tree.end)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """The columns of ``ids``' ranges, in order."""
        return np.take(self.cols, ranges_to_indices(self.start[ids],
                                                    self.end[ids]), axis=1)


def _groups(keys: np.ndarray):
    """``(lo, hi)`` bounds of each run of equal values in ``keys``."""
    cut = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = np.concatenate(([0], cut, [len(keys)]))
    return zip(bounds[:-1], bounds[1:]) if len(keys) else ()


def born_near_field(near_a: np.ndarray, near_q: np.ndarray,
                    atoms: NearTable, sources: NearTable,
                    s_atom: np.ndarray, approx_math: bool) -> np.ndarray:
    """Exact Fig. 2 blocks for near (atoms id, source id) pairs.

    Groups the pairs by atoms id (stable sort) and runs one
    :func:`~repro.core.gb.born_integral_block` per group, added to
    ``s_atom`` over the id's range.  Returns each pair's atom × point
    count, in input order.
    """
    order = np.argsort(near_a, kind="stable")
    a, q = near_a[order], near_q[order]
    for lo, hi in _groups(a):
        sl = slice(atoms.start[a[lo]], atoms.end[a[lo]])
        p = sources.gather(q[lo:hi])
        s_atom[sl] += born_integral_block(atoms.cols[:3, sl].T, p[:3].T,
                                          p[3:].T, approx_math)
    return ((atoms.end - atoms.start)[near_a]
            * (sources.end - sources.start)[near_q])


def epol_near_field(near_u: np.ndarray, near_v: np.ndarray,
                    u: NearTable, v: NearTable, approx_math: bool,
                    total: float = 0.0) -> Tuple[float, np.ndarray]:
    """Exact Fig. 3 blocks for distinct near (U id, V id) pairs, added to
    ``total``.

    Groups the pairs by V in ``v.start`` order (stable sort) and runs
    one :func:`~repro.core.gb.pair_energy_matrix` per V over the
    gathered U atoms.  When ``u is v``, a block whose mirror (V, U) is
    among the pairs runs once, as the pair with the lower U id, with
    U's charges doubled (exact in floating point).  Returns the new
    total and each pair's ordered atom-pair count, in input order.
    """
    u_size = u.end - u.start
    pairs = u_size[near_u] * (v.end - v.start)[near_v]
    mutual = np.zeros(len(near_u), dtype=bool)
    if u is v:
        nn = len(u.start)
        mutual = (near_u != near_v) & np.isin(near_v * nn + near_u,
                                              near_u * nn + near_v)
    run = np.flatnonzero(~mutual | (near_u < near_v))
    run = run[np.argsort(v.start[near_v[run]], kind="stable")]
    eu, ev = near_u[run], near_v[run]
    weight = np.where(mutual[run], 2.0, 1.0)
    for lo, hi in _groups(ev):
        a = u.gather(eu[lo:hi])
        a[3] *= np.repeat(weight[lo:hi], u_size[eu[lo:hi]])
        b = v.cols[:, v.start[ev[lo]]:v.end[ev[lo]]]
        total += pair_energy_matrix(a[:3].T, a[3], a[4], b[:3].T, b[3],
                                    b[4], approx_math=approx_math)
    return total, pairs
