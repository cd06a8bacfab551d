"""GB pair kernels and approximate-math accuracy bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import COULOMB_KCAL, TAU_WATER
from repro.core.gb import (
    FAR_CHUNK,
    bucket_far_energy,
    energy_prefactor,
    fast_exp,
    fast_rsqrt,
    fgb_still,
    inv_fgb_still,
    pair_energy_matrix,
)


class TestFgb:
    def test_formula(self):
        r2 = np.array([9.0])
        RiRj = np.array([4.0])
        expected = np.sqrt(9.0 + 4.0 * np.exp(-9.0 / 16.0))
        assert fgb_still(r2, RiRj)[0] == pytest.approx(expected)

    def test_zero_distance_gives_born_radius(self):
        # f_GB(i, i) = sqrt(R_i · R_i) = R_i.
        assert fgb_still(np.array([0.0]),
                         np.array([6.25]))[0] == pytest.approx(2.5)

    @given(st.floats(0.01, 1e3), st.floats(0.01, 1e2))
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, r2, RiRj):
        """r ≤ f_GB ≤ sqrt(r² + R_i R_j) for all inputs."""
        f = fgb_still(np.array([r2]), np.array([RiRj]))[0]
        assert np.sqrt(r2) - 1e-12 <= f <= np.sqrt(r2 + RiRj) + 1e-12

    def test_inv_matches_reciprocal(self):
        rng = np.random.default_rng(0)
        r2 = rng.uniform(0.1, 100, 50)
        RiRj = rng.uniform(0.5, 20, 50)
        assert np.allclose(inv_fgb_still(r2, RiRj),
                           1.0 / fgb_still(r2, RiRj))


class TestFastMath:
    def test_fast_rsqrt_accuracy(self):
        x = np.logspace(-3, 6, 1000)
        rel = np.abs(fast_rsqrt(x) * np.sqrt(x) - 1.0)
        assert rel.max() < 5e-5

    def test_fast_exp_accuracy_in_kernel_range(self):
        # The GB damping exponent lives in [-25, 0].
        x = np.linspace(-25.0, 0.0, 500)
        got = fast_exp(x)
        want = np.exp(x)
        # Absolute error is what matters for f_GB (the damping factor
        # only perturbs r² + R_iR_j·exp, and it is ≤ 1).
        assert np.max(np.abs(got - want)) < 0.01
        # Relative error tight where the factor is O(1).
        big = want > 0.5
        assert np.max(np.abs(got[big] / want[big] - 1.0)) < 0.02

    def test_fast_exp_nonnegative(self):
        assert np.all(fast_exp(np.array([-1000.0, -64.0, 0.0])) >= 0.0)

    def test_approx_kernel_close_to_exact(self):
        rng = np.random.default_rng(1)
        r2 = rng.uniform(1.0, 400.0, 200)
        RiRj = rng.uniform(1.0, 25.0, 200)
        exact = inv_fgb_still(r2, RiRj, approx_math=False)
        approx = inv_fgb_still(r2, RiRj, approx_math=True)
        assert np.max(np.abs(approx / exact - 1.0)) < 0.01


class TestPairEnergy:
    def test_against_explicit_loop(self):
        rng = np.random.default_rng(2)
        pi, pj = rng.normal(size=(3, 3)), rng.normal(size=(4, 3)) + 5.0
        qi, qj = rng.normal(size=3), rng.normal(size=4)
        Ri, Rj = rng.uniform(1, 3, 3), rng.uniform(1, 3, 4)
        want = 0.0
        for a in range(3):
            for b in range(4):
                r2 = np.sum((pi[a] - pj[b]) ** 2)
                f = np.sqrt(r2 + Ri[a] * Rj[b]
                            * np.exp(-r2 / (4 * Ri[a] * Rj[b])))
                want += qi[a] * qj[b] / f
        got = pair_energy_matrix(pi, qi, Ri, pj, qj, Rj)
        assert got == pytest.approx(want)

    def test_prefactor(self):
        assert energy_prefactor() == pytest.approx(
            -0.5 * TAU_WATER * COULOMB_KCAL)
        assert energy_prefactor(0.5) == pytest.approx(-0.25 * COULOMB_KCAL)


class TestBucketFarEnergy:
    def test_blocks_add_to_the_running_total_in_order(self):
        """More pairs than one block: the kernel equals the per-pair
        bucket sum, and adds its blocks to ``total`` one by one (the
        summation order every energy traversal relies on)."""
        rng = np.random.default_rng(3)
        npairs, nb = 2 * FAR_CHUNK + 5, 4
        table = rng.normal(size=(50, nb))
        u, v = rng.integers(0, 50, npairs), rng.integers(0, 50, npairs)
        r2 = rng.uniform(4.0, 400.0, npairs)
        powers = 1.5 * 1.9 ** np.arange(nb)
        products = np.outer(powers, powers)
        got = bucket_far_energy(r2, table, u, table, v, products,
                                total=0.25)

        want = 0.25
        for lo in range(0, npairs, FAR_CHUNK):
            sl = slice(lo, lo + FAR_CHUNK)
            k = inv_fgb_still(r2[sl][:, None, None], products[None])
            want += float(np.einsum("ki,kij,kj->", table[u[sl]], k,
                                    table[v[sl]]))
        assert got == want

        per_pair = sum(table[a] @ inv_fgb_still(x, products) @ table[b]
                       for a, b, x in zip(u, v, r2))
        assert got - 0.25 == pytest.approx(per_pair, rel=1e-12)
