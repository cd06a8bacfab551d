"""``solve_large`` and ``solve_small``: cold solves on one thread.

A cold solve is the default path of ``repro solve`` and of a cold serve
request: ``synthetic_protein(n, seed)`` then ``GuardedSolver(mol)
.report()``.  ``solve_large`` runs 8000-atom recipes, the paper's
ZDock range, where the energy near field and the Born traversal
dominate.  ``solve_small`` runs 250-atom recipes, the size the serve
benches use, where surface sampling dominates and the energy pass
makes no far-field evaluations.  An optimisation of the energy near
field shows on the first and must not move the second; a surface
optimisation shows most on the second.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import spec
from spec import median, metric, percentile
import coldpath
import repro.obs as obs

#: workload → (atoms per recipe, recipes per seed)
SIZES = {"solve_large": (8000, 3), "solve_small": (250, 64)}

#: Every recipe is solved at least this often, so repeats can be
#: compared bit for bit even when a run is short.
MIN_PASSES = 2

#: Size of the untimed warm-up solve that faults in numpy's code
#: paths and the allocator's arenas before timing starts.
WARMUP_ATOMS = 500


def recipe_seeds(workload: str, seed: int) -> List[int]:
    _, count = SIZES[workload]
    return [seed * 1000 + i for i in range(count)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        trace_dir: str = "") -> Dict[str, object]:
    atoms, _ = SIZES[workload]
    seeds = recipe_seeds(workload, seed)
    if trace:
        return _traced(workload, atoms, seeds, seconds, trace_dir)
    setup = median([spec.import_seconds() for _ in range(3)])
    coldpath.cold_solve(WARMUP_ATOMS, 0)

    times: List[float] = []
    energies: Dict[int, set] = {s: set() for s in seeds}
    problems: List[str] = []
    failed = 0
    t_start = time.perf_counter()
    i = 0
    while (i < MIN_PASSES * len(seeds)
           or time.perf_counter() - t_start < seconds):
        s = seeds[i % len(seeds)]
        t0 = time.perf_counter()
        report = coldpath.cold_solve(atoms, s)
        times.append(time.perf_counter() - t0)
        if report.rung != "primary":
            failed += 1
            problems.append(f"recipe {atoms}/{s} finished on rung "
                            f"{report.rung!r}")
        energies[s].add(report.energy.hex())
        i += 1
    elapsed = time.perf_counter() - t_start
    problems += [f"recipe {atoms}/{s}: repeats disagree: {sorted(h)}"
                 for s, h in energies.items() if len(h) != 1]
    ms = [t * 1e3 for t in times]
    return {
        "attempted": len(times), "failed": failed, "problems": problems,
        "metrics": {
            "setup_s": metric(setup, "s"),
            "lat_p90_ms": metric(percentile(ms, 90), "ms"),
            "lat_mean_ms": metric(sum(ms) / len(ms), "ms"),
            "rps": metric(len(times) / elapsed, "1/s"),
            "peak_rss_mb": metric(spec.vm_hwm_mib(), "MiB"),
        },
    }


def _traced(workload: str, atoms: int, seeds: List[int], seconds: float,
            trace_dir: str) -> Dict[str, object]:
    """Per-layer run: for each recipe, an untraced cold solve, a traced
    one, and a traced piecewise replay; the naive reference once."""
    coldpath.cold_solve(WARMUP_ATOMS, 0)
    obs.enable(reset=True)
    obs.disable()
    plain: List[float] = []
    traced: List[float] = []
    gaps: List[float] = []
    replays: List[coldpath.Replay] = []
    naive: Dict[int, tuple] = {}
    problems: List[str] = []
    t_start = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - t_start < seconds:
        s = seeds[i % len(seeds)]
        t0 = time.perf_counter()
        ref = coldpath.cold_solve(atoms, s)
        plain.append(time.perf_counter() - t0)
        obs.enable()
        with obs.span("bench.solve", cat="bench", atoms=atoms, seed=s):
            t0 = time.perf_counter()
            coldpath.cold_solve(atoms, s)
            traced.append(time.perf_counter() - t0)
        with obs.span("bench.replay", cat="bench", atoms=atoms, seed=s):
            rep = coldpath.replay(atoms, s)
        obs.disable()
        replays.append(rep)
        gaps.append(traced[-1] - sum(rep.seconds.values()))
        if rep.energy.hex() != ref.energy.hex() or ref.rung != "primary":
            problems.append(f"recipe {atoms}/{s}: replay energy "
                            f"{rep.energy.hex()} vs guarded "
                            f"{ref.energy.hex()} on rung {ref.rung!r}")
        if s not in naive:
            naive[s] = (rep, *coldpath.naive_reference(rep.molecule))
        i += 1
    if trace_dir:
        spec.write_trace(trace_dir, workload)

    speedups, born_err, epol_err, naive_s = [], [], [], []
    for rep, radii_n, energy_n, secs in naive.values():
        naive_s.append(secs)
        speedups.append(secs / rep.kernel_seconds)
        born_err.append(float(np.max(np.abs(rep.radii - radii_n)
                                     / radii_n)))
        epol_err.append(abs(rep.energy - energy_n) / abs(energy_n))
    m = {name: metric(median([r.seconds[name] for r in replays]), "s")
         for name in replays[0].seconds}
    m.update({name: metric(median([r.counts[name] for r in replays]),
                           "count")
              for name in replays[0].counts})
    m.update({
        "core.unattributed_s": metric(median(gaps), "s"),
        "core.naive.s": metric(median(naive_s), "s"),
        "core.naive.speedup": metric(median(speedups), "ratio"),
        "core.born.rel_err_max": metric(max(born_err), "ratio"),
        "core.epol.rel_err_max": metric(max(epol_err), "ratio"),
        "trace.overhead_frac": metric(
            median(traced) / median(plain) - 1.0, "fraction"),
    })
    return {"attempted": len(replays), "failed": 0, "problems": problems,
            "metrics": m}
