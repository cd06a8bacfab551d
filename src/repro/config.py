"""Run-level configuration objects shared across the library.

The paper's algorithms are tuned by two independent approximation
parameters (Section II and V): one for the Born-radius traversal and one
for the energy traversal, both called ε.  The experiments in Section V
fix ``ε_born = 0.9`` and vary ``ε_epol`` in ``[0.1, 0.9]``, with an
optional "approximate math" mode (lower-precision ``sqrt``/``exp``) that
trades another 4–5 % of accuracy for a ~1.42× speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ApproxParams:
    """Approximation knobs for the octree solvers.

    Parameters
    ----------
    eps_born:
        Multiplicative error target ε for the Born-radius near–far
        decomposition (paper Fig. 2).  A node pair is *far* when
        ``r_AQ > (r_A + r_Q) · (β+1)/(β−1)`` with ``β = (1+ε)^(1/6)``,
        which bounds the spread of ``|r_q − x_a|⁶`` within the pair by
        ``1+ε``.
    eps_epol:
        ε for the energy traversal (paper Fig. 3): far when
        ``r_UV > (r_U + r_V)(1 + 2/ε)``; Born radii are bucketed on a
        ``(1+ε)``-geometric grid.
    approx_math:
        When true, the pair kernels use fast low-precision ``sqrt`` and
        ``exp`` approximations (paper §V-C/E: error shifts by 4–5 %,
        time drops ~1.42×).
    born_mac:
        Which multipole-acceptance criterion the Born traversal uses.
        ``"distance"`` (default): far when ``r_AQ > (r_A+r_Q)(1+2/ε)``
        — the same (1+ε) *distance*-ratio bound the paper's Fig. 3
        energy traversal uses (note ``1+2/ε = ((1+ε)+1)/((1+ε)−1)``),
        and the only reading consistent with the paper's reported
        running times.  ``"strict"``: far when the distance ratio is
        below ``(1+ε)^(1/6)`` — §II's prose bound, which guarantees
        per-term ``1+ε`` error on the r⁶ integrand but accepts almost
        nothing at protein scales.  See DESIGN.md §1 and the
        ``bench_ablation_mac`` benchmark.
    leaf_size:
        Maximum number of points stored in an octree leaf.
    max_depth:
        Hard cap on octree depth (21 levels is the Morton-code limit).
    """

    eps_born: float = 0.9
    eps_epol: float = 0.9
    approx_math: bool = False
    born_mac: str = "distance"
    leaf_size: int = 32
    max_depth: int = 21

    def __post_init__(self) -> None:
        if self.eps_born <= 0.0:
            raise ValueError("eps_born must be > 0")
        if self.eps_epol <= 0.0:
            raise ValueError("eps_epol must be > 0")
        if self.born_mac not in ("distance", "strict"):
            raise ValueError("born_mac must be 'distance' or 'strict'")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if not 1 <= self.max_depth <= 21:
            raise ValueError("max_depth must be in [1, 21]")

    def with_(self, **kw) -> "ApproxParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)
