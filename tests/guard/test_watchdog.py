"""Accuracy watchdog: exact spot-checks versus the tree pipeline."""

import numpy as np
import pytest

from repro.config import ApproxParams
from repro.core.born_naive import born_radii_naive_r6
from repro.core.solver import PolarizationSolver
from repro.guard.errors import WatchdogBreachError
from repro.guard.watchdog import (
    born_tolerance,
    check_born_subset,
    exact_born_subset,
    sample_indices,
)
from repro.molecules import synthetic_protein


@pytest.fixture(scope="module")
def mol():
    return synthetic_protein(150, seed=9)


def test_sample_indices_seeded_and_sorted():
    a = sample_indices(100, seed=3, samples=8)
    b = sample_indices(100, seed=3, samples=8)
    c = sample_indices(100, seed=4, samples=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, np.sort(a)) and len(set(a)) == 8


def test_sample_indices_clamped_to_natoms():
    assert len(sample_indices(3, seed=0, samples=8)) == 3


def test_exact_subset_matches_full_naive_kernel(mol):
    idx = sample_indices(mol.natoms, seed=1, samples=6)
    full = born_radii_naive_r6(mol)
    np.testing.assert_allclose(exact_born_subset(mol, idx), full[idx],
                               rtol=1e-12)


def test_tolerance_tracks_eps(mol):
    tight = born_tolerance(ApproxParams(eps_born=0.1))
    loose = born_tolerance(ApproxParams(eps_born=0.9))
    assert 0 < tight < loose


def test_octree_radii_pass_the_watchdog(mol):
    params = ApproxParams()
    radii = PolarizationSolver(mol, params).born_radii()
    report = check_born_subset(mol, radii, params, seed=0)
    assert report.ok and report.worst_rel <= report.tolerance
    assert len(report.indices) == 8


def test_corrupted_radii_breach(mol):
    params = ApproxParams()
    radii = PolarizationSolver(mol, params).born_radii().copy()
    idx = sample_indices(mol.natoms, seed=0)
    radii[idx[0]] *= 7.0  # finite but grossly wrong
    with pytest.raises(WatchdogBreachError) as ei:
        check_born_subset(mol, radii, params, seed=0)
    assert int(idx[0]) in ei.value.indices
    assert ei.value.observed > ei.value.tolerance


def test_corruption_off_the_sampled_subset_is_missed(mol):
    """The watchdog is a spot-check, not a proof: corrupting an atom
    outside the seeded subset must (by design) go unnoticed."""
    params = ApproxParams()
    radii = PolarizationSolver(mol, params).born_radii().copy()
    sampled = set(int(i) for i in sample_indices(mol.natoms, seed=0))
    victim = next(i for i in range(mol.natoms) if i not in sampled)
    radii[victim] *= 7.0
    assert check_born_subset(mol, radii, params, seed=0).ok


def test_coincident_quadrature_point_is_degenerate_in_both_paths():
    from repro.guard.errors import DegenerateGeometryError
    from repro.molecules.molecule import Molecule, SurfaceSamples

    mol = Molecule(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
                   np.array([1.0, -1.0]), np.array([1.5, 1.5]))
    mol = mol.with_surface(SurfaceSamples(
        np.array([[1.5, 0.0, 0.0], [5.0, 0.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.ones(2)))
    with pytest.raises(DegenerateGeometryError) as naive:
        born_radii_naive_r6(mol)
    assert (naive.value.phase, naive.value.indices) == ("born", (1,))
    with pytest.raises(DegenerateGeometryError) as spot:
        exact_born_subset(mol, np.array([1]))
    assert (spot.value.phase, spot.value.indices) == ("watchdog", (1,))
    assert np.isfinite(exact_born_subset(mol, np.array([0])))[0]
