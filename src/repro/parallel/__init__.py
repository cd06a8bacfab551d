"""Distributed / hybrid drivers implementing the paper's Fig. 4 program."""

from repro.parallel.partition import (
    segment_bounds,
    leaf_segments,
    atom_segments,
    weighted_bounds,
)
from repro.parallel.profile import WorkProfile
from repro.parallel.distributed import run_fig4_simmpi, simulate_fig4

__all__ = [
    "segment_bounds",
    "leaf_segments",
    "atom_segments",
    "weighted_bounds",
    "WorkProfile",
    "run_fig4_simmpi",
    "simulate_fig4",
]
