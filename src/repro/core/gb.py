"""Generalized-Born pair kernels (STILL model) and approximate math.

The STILL effective interaction distance (paper Eq. 2):

    f_GB(i, j) = sqrt( r_ij² + R_i R_j · exp( −r_ij² / (4 R_i R_j) ) )

and the polarization energy

    E_pol = −τ/2 · C · Σ_{i,j} q_i q_j / f_GB(i, j)

where the double sum runs over *ordered* pairs including ``i == j``
(``f_GB(i,i) = R_i``), ``τ = 1 − 1/ε_solv`` and ``C`` is Coulomb's
constant in kcal·Å/(mol·e²).

"Approximate math" (paper §V-C) is reproduced with genuinely
lower-precision kernels: a bit-trick reciprocal square root with two
Newton steps and a (1 + x/64)⁶⁴ exponential.  They reproduce the
paper's precision, not its speed: emulated in numpy they are slower
than ``np.sqrt``/``np.exp`` (octree passes take 1.5–1.75× as long) and
move E_pol by about 0.01 %.  The paper's ~1.42× speedup exists only in
virtual time, as ``repro.cluster.costmodel.APPROX_MATH_SPEEDUP``.

It also holds the only pair kernels, an exact and a far-field one per
phase, which every solver shares: :func:`pair_energy_matrix` and
:func:`born_integral_block` for exact leaf blocks (docs/ALGORITHMS.md
§9; the tree solvers reach them through the near-field helpers of
:mod:`repro.core.frontier`), :func:`bucket_far_energy` and
:func:`born_far_terms` for far pairs (§10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import COULOMB_KCAL, TAU_WATER

#: Far pairs per :func:`bucket_far_energy` block; bounds its
#: ``(pairs, M_ε, M_ε)`` work array.  Part of the summation order.
FAR_CHUNK = 8192


def fast_rsqrt(x: np.ndarray) -> np.ndarray:
    """Vectorised Quake-style ``1/sqrt(x)`` with two Newton refinements.

    Relative error ≈ 5·10⁻⁶, float32 throughout.  Two steps (rather
    than the classic one) keep the r⁶ Born integral usable: its large
    cancelling terms amplify per-term error, and the paper reports only
    a 4–5 % energy shift from approximate math.
    """
    xf = np.asarray(x, dtype=np.float32)
    i = xf.view(np.int32)
    i = np.int32(0x5F3759DF) - (i >> np.int32(1))
    y = i.view(np.float32)
    half = np.float32(0.5) * xf
    threehalf = np.float32(1.5)
    y = y * (threehalf - half * y * y)
    y = y * (threehalf - half * y * y)
    return y.astype(np.float64)


def fast_exp(x: np.ndarray) -> np.ndarray:
    """Low-precision ``exp(x)`` via the compound-interest limit
    ``(1 + x/64)⁶⁴`` (six squarings).

    Accurate to ~1 % for the argument range the GB kernel produces
    (``x ∈ [−25, 0]``, where the factor is damped toward zero anyway).
    """
    y = 1.0 + np.asarray(x, dtype=np.float64) / 64.0
    # Clamp so large-negative arguments give 0⁺ rather than oscillating.
    y = np.maximum(y, 0.0)
    for _ in range(6):
        y = y * y
    return y


def fgb_still(r2: np.ndarray, RiRj: np.ndarray,
              approx_math: bool = False) -> np.ndarray:
    """STILL ``f_GB`` from squared distances and Born-radius products."""
    expo = -r2 / (4.0 * RiRj)
    if approx_math:
        damp = fast_exp(expo)
        inner = r2 + RiRj * damp
        return 1.0 / fast_rsqrt(np.maximum(inner, 1e-30))
    return np.sqrt(r2 + RiRj * np.exp(expo))


def inv_fgb_still(r2: np.ndarray, RiRj: np.ndarray,
                  approx_math: bool = False) -> np.ndarray:
    """``1 / f_GB`` — the quantity the energy sums actually need."""
    expo = -r2 / (4.0 * RiRj)
    if approx_math:
        damp = fast_exp(expo)
        return fast_rsqrt(np.maximum(r2 + RiRj * damp, 1e-30))
    return 1.0 / np.sqrt(r2 + RiRj * np.exp(expo))


def energy_prefactor(tau: float = TAU_WATER) -> float:
    """The ``−τ/2 · C`` multiplier converting Σ q q / f_GB to kcal/mol."""
    return -0.5 * tau * COULOMB_KCAL


def _rows(pos: np.ndarray) -> np.ndarray:
    """``(n, 3)`` coordinates as contiguous ``(3, n)`` rows (no copy when
    the caller holds rows already and passes ``rows.T``)."""
    return np.ascontiguousarray(np.asarray(pos, dtype=np.float64).T)


def pair_energy_matrix(pos_i: np.ndarray, q_i: np.ndarray, R_i: np.ndarray,
                       pos_j: np.ndarray, q_j: np.ndarray, R_j: np.ndarray,
                       approx_math: bool = False) -> float:
    """Exact Σ_{a∈i, b∈j} q_a q_b / f_GB(a, b) for two atom blocks.

    Returns the raw (unprefixed) double sum; callers apply
    :func:`energy_prefactor`.  The sum is symmetric, so the longer block
    is the contiguous inner axis of ``(short, long)`` work arrays filled
    one coordinate row at a time, in place.  Each ``1/f_GB`` term is
    :func:`inv_fgb_still`'s arithmetic (scaling by −4 and −¼ is exact).
    """
    if len(q_i) > len(q_j):
        pos_i, q_i, R_i, pos_j, q_j, R_j = pos_j, q_j, R_j, pos_i, q_i, R_i
    xi, xj = _rows(pos_i), _rows(pos_j)
    r2 = np.subtract.outer(xi[0], xj[0])
    r2 *= r2
    d = np.empty_like(r2)
    for k in (1, 2):
        np.subtract.outer(xi[k], xj[k], out=d)
        d *= d
        r2 += d
    if approx_math:
        inv = inv_fgb_still(r2, np.multiply.outer(R_i, R_j, out=d),
                            approx_math=True)
    else:
        m4rr = np.multiply.outer(-4.0 * np.asarray(R_i), R_j)
        np.divide(r2, m4rr, out=d)               # −r²/(4 R_i R_j)
        np.exp(d, out=d)
        d *= m4rr
        d *= -0.25                               # R_i R_j e^(…)
        d += r2
        np.sqrt(d, out=d)
        inv = np.divide(1.0, d, out=d)
    # einsum, not BLAS: a threaded gemv would sum in an order that
    # depends on how many threads are busy.
    return float(np.einsum("i,ij,j->", q_i, inv, q_j))


def bucket_far_energy(r2: np.ndarray, table_u: np.ndarray, u: np.ndarray,
                      table_v: np.ndarray, v: np.ndarray,
                      products: np.ndarray, approx_math: bool = False,
                      total: float = 0.0) -> float:
    """Charge-bucket far field of Fig. 3 for far node pairs ``(u, v)``.

    Adds ``Σ_{k,l} q_U[k] q_V[l] / f_GB(r², P_kl)`` over the pairs to
    ``total`` (raw, unprefixed), where ``q_U = table_u[u]``,
    ``q_V = table_v[v]`` and ``P = products`` (docs/ALGORITHMS.md §4).
    Pairs run in :data:`FAR_CHUNK` blocks and each block's sum is added
    to ``total`` in turn, so a caller threading its running sum through
    successive calls keeps one summation order.
    """
    for lo in range(0, len(u), FAR_CHUNK):
        sl = slice(lo, lo + FAR_CHUNK)
        k = inv_fgb_still(r2[sl][:, None, None], products[None, :, :],
                          approx_math=approx_math)
        total += float(np.einsum("ki,kij,kj->", table_u[u[sl]], k,
                                 table_v[v[sl]]))
    return total


def inv_r6(r2: np.ndarray, approx_math: bool = False) -> np.ndarray:
    """``1 / max(r², 10⁻³⁰)³``, the r⁶ Born integrand's distance factor."""
    t = np.maximum(r2, 1e-30)
    if approx_math:
        y = fast_rsqrt(t)
        p = y * y
        return p * p * p
    c = t * t
    c *= t
    return np.divide(1.0, c, out=c)


def born_far_terms(wn: np.ndarray, d: np.ndarray, r2: np.ndarray,
                   approx_math: bool = False) -> np.ndarray:
    """Pseudo-q-point r⁶ terms ``(w·n)·d / r⁶``, one per far pair.

    ``wn`` is the source's summed weighted normal, ``d`` the vector from
    the atoms node to the source and ``r2 = |d|²`` (Fig. 2's far field).
    """
    return np.einsum("ij,ij->i", wn, d) * inv_r6(r2, approx_math)


def born_integral_block(atoms: np.ndarray, points: np.ndarray,
                        weighted_normals: np.ndarray,
                        approx_math: bool = False, power: int = 6,
                        coincident: Optional[np.ndarray] = None
                        ) -> np.ndarray:
    """Exact ``s_a = Σ_q (p_q − x_a)·w_q n_q / |p_q − x_a|^power`` per atom
    (Eq. 4, or Eq. 3 for ``power=4`` with exact math).

    The ``(atoms, points)`` work arrays keep the points contiguous and
    are filled one coordinate row at a time.  ``coincident``, if given,
    gets an entry set for each atom sitting exactly on a point, where
    the integrand is singular (the kernel clamps ``r²`` at 10⁻³⁰).
    """
    x, p, w = _rows(atoms), _rows(points), _rows(weighted_normals)
    d = np.subtract(p[0], x[0][:, None])
    r2 = d * d
    numer = d * w[0]
    for k in (1, 2):
        np.subtract(p[k], x[k][:, None], out=d)
        r2 += d * d
        d *= w[k]
        numer += d
    if coincident is not None:
        np.any(r2 == 0.0, axis=1, out=coincident)
    inv = (inv_r6(r2, approx_math) if power == 6
           else 1.0 / np.maximum(r2, 1e-30) ** 2)
    return np.einsum("aq,aq->a", numer, inv)
