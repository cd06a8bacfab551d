"""``serve_dock``: an open-loop docking scan into ``SolveService``.

One generator thread submits seeded Poisson arrivals at :data:`RATE`
requests per second into an in-process ``SolveService(workers=2)``.
The stream scans poses of 12 pre-built bases (150–480 atoms): 30 % are
new seeded rigid poses (cold solves), 10 % ask a settled recent pose
again at ε_epol = 0.5 (the cached Born radii are reused), and 60 %
repeat a settled recent (pose, ε) pair (a full-result cache hit).
Every request has its own idempotency key, so repeats reach the cache
instead of coalescing.  The HTTP edge and the fleet are bypassed.

The load is light on purpose.  Cold solves take about 0.09 worker
seconds per second, so a request only now and then waits behind
another, and the mean latency moves by about a tenth between runs.
At 20 and 40 requests per second, two worker threads contending for
the interpreter lock made it move by a quarter to a third.

Latency is timed from each request's *scheduled* send time, so a stall
also charges the requests queued behind it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

import spec
from spec import median, metric, percentile
import repro.obs as obs
from repro.config import ApproxParams
from repro.molecules.generator import synthetic_protein
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.molecules.transform import RigidTransform
from repro.serve import SolveRequest, SolveService

RATE = 10.0
BASE_ATOMS = tuple(150 + 30 * i for i in range(12))
#: Shares of new poses and of Born-reuse requests; the rest repeat.
SHARE_NEW, SHARE_REUSE = 0.30, 0.10
#: A repeat asks for one of the latest RECENT poses that is at least
#: SETTLE_S seconds old.
RECENT, SETTLE_S = 8, 0.5
#: ε_epol of the default request and of the Born-reuse request.
EPS_DEFAULT, EPS_REUSE = 0.9, 0.5
SLO_MS = 50.0
#: A run whose generator ran later than this at p99 measured the
#: generator, not the service.
LAG_LIMIT_MS = 20.0
DRAIN_TIMEOUT_S = 120.0

Request = Tuple[float, int, float]   # (due seconds, pose index, eps_epol)


def schedule(seed: int, seconds: float
             ) -> Tuple[List[Tuple[int, int]], List[Request]]:
    """Seeded poses ``(base, transform seed)`` and requests.

    Arrival times are ``RATE·seconds`` sorted uniform draws: a Poisson
    process conditioned on its count.  The request kinds are a shuffled
    deck with the exact 30/10/60 mix, and new poses take the bases in
    turn, so every seed offers the same amount of work and the seed
    only moves when it arrives, how each pose lies and which recent
    pose is asked again.
    """
    rng = np.random.default_rng(seed)
    n = max(1, round(RATE * seconds))
    due = np.sort(rng.uniform(0.0, seconds, n))
    n_new, n_reuse = max(1, round(SHARE_NEW * n)), round(SHARE_REUSE * n)
    kinds = np.array(["new"] * n_new + ["reuse"] * n_reuse
                     + ["repeat"] * (n - n_new - n_reuse))
    rng.shuffle(kinds)
    first = int(np.flatnonzero(kinds == "new")[0])
    kinds[[0, first]] = kinds[[first, 0]]
    offset = int(rng.integers(len(BASE_ATOMS)))
    poses: List[Tuple[int, int]] = []
    born_at: List[float] = []
    asked: List[Tuple[int, float]] = []
    reqs: List[Request] = []
    for t, kind in zip(due, kinds):
        # Ask again only for poses old enough to have been answered,
        # so a repeat meets the cache rather than a solve in flight.
        settled = [p for p in range(max(0, len(poses) - RECENT),
                                    len(poses))
                   if t - born_at[p] >= SETTLE_S] or [len(poses) - 1]
        if kind == "new":
            poses.append(((offset + len(poses)) % len(BASE_ATOMS),
                          int(rng.integers(2**31))))
            born_at.append(float(t))
            pair = (len(poses) - 1, EPS_DEFAULT)
        elif kind == "reuse":
            fresh = [p for p in settled if (p, EPS_REUSE) not in asked]
            pool = fresh or settled
            pair = (pool[int(rng.integers(len(pool)))], EPS_REUSE)
        else:
            pool = [a for a in asked if a[0] in settled]
            pair = pool[int(rng.integers(len(pool)))]
        if pair not in asked:
            asked.append(pair)
        reqs.append((float(t), pair[0], pair[1]))
    return poses, reqs


def posed(base: Molecule, transform_seed: int) -> Molecule:
    """``base`` moved by a seeded rigid transform, surface included."""
    rt = RigidTransform.random(seed=transform_seed)
    surf = base.require_surface()
    return Molecule(rt.apply(base.positions), base.charges, base.radii,
                    surface=SurfaceSamples(rt.apply(surf.points),
                                           rt.apply_vectors(surf.normals),
                                           surf.weights),
                    name=f"{base.name}@{transform_seed}")


def serve_layer_metrics(rows: List[Tuple[str, float, float]]
                        ) -> Dict[str, dict]:
    """Queue wait, service time by cache level and the level shares,
    from ``(cache level, wait seconds, service seconds)`` per answer."""
    by_level: Dict[str, List[float]] = {}
    for level, _, service_s in rows:
        by_level.setdefault(level, []).append(service_s * 1e3)
    wait_ms = [wait_s * 1e3 for _, wait_s, _ in rows]
    m = {"serve.wait_ms_p50": metric(median(wait_ms), "ms"),
         "serve.wait_ms_p99": metric(percentile(wait_ms, 99), "ms")}
    for level in ("cold", "born", "trees", "epol"):
        m[f"serve.share.{level}"] = metric(
            len(by_level.get(level, [])) / len(rows), "fraction")
    for level in ("cold", "born", "epol"):
        m[f"serve.service_ms_p50.{level}"] = metric(
            median(by_level.get(level, [])), "ms")
    return m


def _cold_ms_per_atom(results, reqs: List[Request],
                      poses: List[Molecule]) -> float:
    """Median cold-solve service time per atom.  Queueing makes latency
    swing between halves of a run; the service time of a cold solve,
    scaled by its size, is what tracing actually slows."""
    return median([r.service_seconds * 1e3 / poses[pose].natoms
                   for r, (_, pose, _) in zip(results, reqs)
                   if r.cache == "cold"])


def _set_up(seed: int) -> Tuple[List[Molecule], SolveService]:
    bases = [synthetic_protein(atoms, seed=seed * 100 + b)
             for b, atoms in enumerate(BASE_ATOMS)]
    return bases, SolveService(workers=2, queue_capacity=1024)


def run(seed: int, seconds: float, trace: bool,
        trace_dir: str = "") -> Dict[str, object]:
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        bases, service = _set_up(seed)
        setups.append(time.perf_counter() - t0)
        if len(setups) < 3:
            service.close()
    pose_specs, reqs = schedule(seed, seconds)
    poses = [posed(bases[b], ts) for b, ts in pose_specs]
    params = {EPS_DEFAULT: ApproxParams(eps_epol=EPS_DEFAULT),
              EPS_REUSE: ApproxParams(eps_epol=EPS_REUSE)}
    n = len(reqs)
    done = [0.0] * n
    lag = [0.0] * n
    tickets = []
    depth_max = 0
    traced_from = n // 2 if trace else n
    if trace:
        obs.enable(reset=True)
        obs.disable()

    def finisher(i: int):
        def _on_done(_ticket) -> None:
            done[i] = time.perf_counter()
        return _on_done

    with service:
        t_zero = time.perf_counter() + 0.05
        for i, (due, pose, eps) in enumerate(reqs):
            if i == traced_from:
                obs.enable()
            target = t_zero + due
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag[i] = time.perf_counter() - target
            with obs.span("bench.serve.submit", cat="bench", pose=pose):
                ticket = service.submit(SolveRequest(
                    molecule=poses[pose], params=params[eps],
                    idempotency_key=f"dock-{seed}-{i}"))
            ticket.on_done(finisher(i))
            tickets.append(ticket)
            depth_max = max(depth_max, service.queue_depth)
        drained = service.drain(timeout=DRAIN_TIMEOUT_S)
        obs.disable()
        if not drained:
            raise RuntimeError(f"serve_dock: requests still pending "
                               f"{DRAIN_TIMEOUT_S} s after the last send")
        results = [t.result(timeout=0) for t in tickets]
        stats = service.stats()
    if trace and trace_dir:
        spec.write_trace(trace_dir, "serve_dock")

    problems: List[str] = []
    answers: Dict[Tuple[int, float], set] = {}
    for (_, pose, eps), res in zip(reqs, results):
        if res.ok:
            answers.setdefault((pose, eps), set()).add(res.energy.hex())
    problems += [f"pose {p} eps {e}: answers disagree: {sorted(h)}"
                 for (p, e), h in answers.items() if len(h) != 1]
    failed = sum(not r.ok for r in results)
    if failed:
        problems.append(f"{failed} of {n} requests failed: "
                        f"{sorted({r.error for r in results if not r.ok})}")
    lat_ms = [(d - (t_zero + due)) * 1e3 if r.ok else float("inf")
              for d, (due, _, _), r in zip(done, reqs, results)]
    lag_p99 = percentile([x * 1e3 for x in lag], 99)
    if lag_p99 > LAG_LIMIT_MS:
        problems.append(f"generator lag p99 {lag_p99:.1f} ms exceeds "
                        f"{LAG_LIMIT_MS} ms")
    if not trace:
        finished = max(done) - t_zero
        return {
            "attempted": n, "failed": failed, "problems": problems,
            "metrics": {
                "setup_s": metric(median(setups), "s"),
                "lat_p90_ms": metric(percentile(lat_ms, 90), "ms"),
                "lat_mean_ms": metric(sum(lat_ms) / n, "ms"),
                "rps": metric((n - failed) / finished, "1/s"),
                "peak_rss_mb": metric(spec.vm_hwm_mib(), "MiB"),
            },
        }

    m = serve_layer_metrics([(r.cache, r.wait_seconds, r.service_seconds)
                             for r in results])
    m.update({
        "serve.cache.hit_rate": metric(stats.cache.hit_rate, "fraction"),
        "serve.cache.evictions": metric(stats.cache.evictions, "count"),
        "serve.queue_depth_max": metric(depth_max, "count"),
        "gen.lag_ms_p99": metric(lag_p99, "ms"),
        "slo_attain": metric(sum(x <= SLO_MS for x in lat_ms) / n,
                             "fraction"),
        "trace.overhead_frac": metric(
            _cold_ms_per_atom(results[traced_from:], reqs[traced_from:],
                              poses)
            / _cold_ms_per_atom(results[:traced_from], reqs[:traced_from],
                                poses) - 1.0, "fraction"),
    })
    return {"attempted": n, "failed": failed, "problems": problems,
            "metrics": m}
