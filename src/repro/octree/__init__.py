"""Cache-friendly linear-space octree (the paper's core data structure)."""

from repro.octree.morton import morton_encode, morton_decode
from repro.octree.build import Octree, build_octree
from repro.octree.stats import OctreeStats, octree_stats

__all__ = [
    "morton_encode",
    "morton_decode",
    "Octree",
    "build_octree",
    "OctreeStats",
    "octree_stats",
]
