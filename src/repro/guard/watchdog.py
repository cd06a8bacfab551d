"""Accuracy watchdog: seeded exact spot-checks of the approximate pipeline.

The octree solvers carry an ε-parameterised error *bound*, but a bound
argues about the algorithm, not about this run: corrupted memory, a
broken MAC, or a miscompiled kernel all produce answers the bound says
nothing about.  The watchdog closes that gap empirically — it draws a
seeded random subset of atoms and recomputes their r⁶ Born integral
*exactly* against every quadrature point (O(samples · N), trivial next
to the solve), then compares with the radii the tree pass produced.

A disagreement beyond :func:`born_tolerance` raises
:class:`~repro.guard.errors.WatchdogBreachError`;
:class:`~repro.guard.solver.GuardedSolver` catches it and walks the
degradation ladder (retry → tighten ε → exact naive path) instead of
returning a plausible-looking wrong energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.core.born_naive import integral_to_radius_r6, surface_integrals
from repro.guard.errors import WatchdogBreachError
from repro.molecules.molecule import Molecule

__all__ = ["WatchdogReport", "born_tolerance", "exact_born_subset",
           "check_born_subset", "DEFAULT_SAMPLES"]

#: Atoms spot-checked per solve (each costs one O(N) exact row).
DEFAULT_SAMPLES = 8

#: Safety factor over the analytic ε bound: the distance-MAC error is
#: far below ε in practice, but the watchdog exists to catch *gross*
#: corruption, not to police the approximation's last digit.
_SLACK = 2.0


def born_tolerance(params: ApproxParams) -> float:
    """Relative Born-radius tolerance implied by ``eps_born``.

    An ε-bounded relative error on the r⁶ integral maps through
    ``R = (s/4π)^(−1/3)`` to a ``(1+ε)^(1/3) − 1`` relative error on
    the radius; the watchdog allows :data:`_SLACK` times that.
    """
    eps = params.eps_born
    return _SLACK * ((1.0 + eps) ** (1.0 / 3.0) - 1.0)


def sample_indices(natoms: int, seed: int,
                   samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """The seeded atom subset the watchdog will cross-check."""
    k = min(samples, natoms)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(natoms, size=k, replace=False))


def exact_born_subset(molecule: Molecule,
                      idx: np.ndarray) -> np.ndarray:
    """Exact (Eq. 4) r⁶ Born radii for the atoms in ``idx``.

    Identical arithmetic to :func:`repro.core.born_naive.
    born_radii_naive_r6` restricted to the subset rows: both call
    :func:`repro.core.born_naive.surface_integrals`.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        s = surface_integrals(molecule, atoms=idx, phase="watchdog")
    return integral_to_radius_r6(s, molecule.radii[idx])


@dataclass(frozen=True)
class WatchdogReport:
    """Outcome of one spot-check (kept by ``GuardedSolver.events``)."""

    indices: Tuple[int, ...]
    worst_rel: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.worst_rel <= self.tolerance


def check_born_subset(molecule: Molecule,
                      radii: np.ndarray,
                      params: ApproxParams,
                      seed: int = 0,
                      samples: int = DEFAULT_SAMPLES,
                      tolerance: Optional[float] = None) -> WatchdogReport:
    """Cross-check ``radii`` on a seeded subset; raise on breach.

    ``radii`` is the full per-atom array in original order.  Raises
    :class:`WatchdogBreachError` naming the disagreeing atoms when the
    worst relative deviation exceeds ``tolerance`` (default:
    :func:`born_tolerance`).
    """
    tol = born_tolerance(params) if tolerance is None else float(tolerance)
    idx = sample_indices(molecule.natoms, seed, samples)
    exact = exact_born_subset(molecule, idx)
    got = np.asarray(radii)[idx]
    with np.errstate(invalid="ignore"):
        rel = np.abs(got - exact) / exact
        rel = np.where(np.isfinite(rel), rel, np.inf)
    worst = float(rel.max()) if len(rel) else 0.0
    report = WatchdogReport(tuple(int(i) for i in idx), worst, tol)
    if not report.ok:
        bad = idx[rel > tol]
        raise WatchdogBreachError(
            "approximate Born radii disagree with the exact spot-check",
            observed=worst, tolerance=tol, indices=bad,
            hint="tighten eps_born or solve with method='naive'")
    return report
