"""The one frontier traversal behind Figs. 2 and 3 (docs/ALGORITHMS.md §10).

APPROX-INTEGRALS and APPROX-EPOL share one shape: descend a tree from
its root against a set of *source* spheres, settle far pairs with a
pseudo-particle, and hand near leaf pairs to an exact kernel.
:func:`descend` owns the descent and its counts; the caller owns the
acceptance test (including its rule for leaves), the far step and the
exact blocks.

The recursion runs as a vectorised frontier of ``(node, source)`` index
arrays, one tree level per step: identical visits and arithmetic to the
per-node DFS, without its interpreter overhead.  Far pairs are handed
to the caller level by level, in frontier order, so callers that sum
into one running total keep a fixed summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

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
