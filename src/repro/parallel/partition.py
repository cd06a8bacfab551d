"""Static work division across MPI ranks (paper §IV-A).

The paper's best scheme — and the one Fig. 4 uses — is *node-based*
division: the octree's leaves (in Morton order) are cut into P equal
segments, and rank *i* works on the *i*-th segment.  Atom-based
division (cutting the sorted atom range) is also implemented, both for
the push phase (where the paper itself divides atoms) and for the
ablation showing why node-based division keeps the error independent
of P.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.octree.build import Octree


def segment_bounds(n_items: int, parts: int) -> np.ndarray:
    """Boundaries of an even split of ``n_items`` into ``parts`` segments.

    Returns ``parts + 1`` increasing offsets; segment *i* is
    ``[bounds[i], bounds[i+1])``.  Extra items go to the earliest
    segments, matching the usual block distribution.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    base, extra = divmod(n_items, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def leaf_segments(tree: Octree, parts: int) -> List[np.ndarray]:
    """Node-based division: positions into ``tree.leaves`` per rank."""
    bounds = segment_bounds(len(tree.leaves), parts)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(parts)]


def atom_segments(natoms: int, parts: int) -> List[Tuple[int, int]]:
    """Atom-based division: ``(start, end)`` sorted-atom ranges per rank."""
    bounds = segment_bounds(natoms, parts)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


def weighted_bounds(weights: np.ndarray, parts: int) -> np.ndarray:
    """Cost-aware division: ``parts + 1`` offsets of contiguous segments
    with near-equal *weight* rather than equal *count*.

    A greedy sweep closes segment *k* once the running weight reaches
    ``k / parts`` of the total; this is the "explicit" static balancing
    the paper's conclusion lists as future work.  With no more items
    than parts it is the even split of :func:`segment_bounds`.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n <= parts:
        return segment_bounds(n, parts)
    total = w.sum()
    cuts = [0]
    acc = 0.0
    for i, c in enumerate(w):
        acc += c
        if acc >= total * len(cuts) / parts and len(cuts) < parts:
            cuts.append(i + 1)
    while len(cuts) < parts:
        cuts.append(n)
    cuts.append(n)
    return np.asarray(cuts)
