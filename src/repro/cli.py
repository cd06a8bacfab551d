"""Command-line interface: ``python -m repro <command> …``.

Commands
--------
``solve``
    Compute Born radii and E_pol for a molecule (synthetic, capsid or a
    PQR/XYZQR file) with any solver method.  Runs guarded by default
    (preflight, NaN sentinels, accuracy watchdog, degradation ladder —
    see ``docs/ROBUSTNESS.md``); ``--checkpoint DIR`` / ``--resume``
    give durable restart with bitwise-identical energies.
``doctor``
    Validate a molecule/config without solving: report every format,
    geometry and parameter issue found (with fixability hints) and
    exit non-zero when the solve would fail.
``scale``
    Sweep the simulated cluster over core counts for one molecule and
    print the Fig. 5-style table.
``packages``
    Run the MD-package emulators on one molecule (Fig. 8-style row).
``info``
    Print machine model, package registry and version.
``lint``
    Run the project static analyzer (``repro.lint``) over source paths.
``trace``
    Inspect / validate a Chrome trace-event JSON file produced by
    ``solve --trace`` or ``scale --trace`` (loadable in Perfetto).
``chaos``
    Run the seeded fault-injection scenario matrix over the
    fault-tolerant Fig. 4 solver and print the pass table (see
    ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import repro.obs as obs
from repro import ApproxParams, PolarizationSolver, __version__
from repro.analysis.tables import Table
from repro.baselines import PACKAGES, get_package
from repro.cluster.machine import lonestar4
from repro.molecules import pdbio, sample_surface, synthetic_protein, virus_capsid
from repro.molecules.molecule import Molecule
from repro.parallel import WorkProfile, simulate_fig4


def _load_molecule(args: argparse.Namespace,
                   surface: bool = True) -> Molecule:
    if args.file:
        if args.file.endswith(".pqr"):
            mol = pdbio.read_pqr(args.file, name=args.file)
        elif args.file.endswith(".pdb"):
            mol = pdbio.read_pdb(args.file, name=args.file)
        else:
            mol = pdbio.read_xyzqr(args.file, name=args.file)
        return sample_surface(mol) if surface else mol
    if args.capsid:
        return virus_capsid(args.atoms, seed=args.seed)
    return synthetic_protein(args.atoms, seed=args.seed)


def _add_molecule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--atoms", type=int, default=2000,
                   help="synthetic molecule size (default 2000)")
    p.add_argument("--capsid", action="store_true",
                   help="generate a hollow virus-capsid shell instead "
                        "of a globular protein")
    p.add_argument("--file", type=str, default=None,
                   help="read a .pqr/.pdb/.xyzqr file instead")
    p.add_argument("--seed", type=int, default=0)


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-born", type=float, default=0.9)
    p.add_argument("--eps-epol", type=float, default=0.9)
    p.add_argument("--approx-math", action="store_true")


def _params(args: argparse.Namespace) -> ApproxParams:
    return ApproxParams(eps_born=args.eps_born, eps_epol=args.eps_epol,
                        approx_math=args.approx_math)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", type=str, default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON (open in "
                        "Perfetto / chrome://tracing)")
    p.add_argument("--metrics", action="store_true",
                   help="print the metrics registry (Prometheus text)")
    p.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                   help="write metrics to FILE (.json → JSON, else "
                        "Prometheus text)")


def _write_metrics(args: argparse.Namespace) -> None:
    if args.metrics:
        print(obs.metrics_to_prometheus(obs.registry), end="")
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            text = obs.metrics_to_json(obs.registry)
        else:
            text = obs.metrics_to_prometheus(obs.registry)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote metrics to {args.metrics_out}")


def _root_span_seconds(name: str) -> float:
    for ev in obs.get_tracer().events():
        if ev.get("ph") == "X" and ev.get("name") == name:
            return ev["dur"] / 1e6
    return 0.0


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.guard import DiagnosticError, GuardedSolver
    if args.no_guard and (args.checkpoint or args.resume
                          or args.stop_after):
        print("error: --checkpoint/--resume/--stop-after need the "
              "guard layer (drop --no-guard)", file=sys.stderr)
        return 2
    if args.stop_after and not args.checkpoint:
        print("error: --stop-after only makes sense with --checkpoint",
              file=sys.stderr)
        return 2
    obs.enable(reset=True)
    report = None
    try:
        with obs.span("solve", method=args.method):
            mol = _load_molecule(args)
            print(f"molecule: {mol.name} — {mol.natoms} atoms, "
                  f"{mol.nqpoints} surface quadrature points")
            if args.no_guard:
                solver = PolarizationSolver(mol, _params(args),
                                            method=args.method)
                energy = solver.energy()
                radii = solver.born_radii()
            else:
                guarded = GuardedSolver(mol, _params(args),
                                        method=args.method,
                                        checkpoint=args.checkpoint,
                                        resume=args.resume)
                mol = guarded.molecule
                if args.stop_after == "born":
                    radii = guarded.born_phase_only()
                    print(f"stopped after the Born phase; snapshot in "
                          f"{args.checkpoint} (finish with --resume)")
                    print(f"Born radii: min {radii.min():.3f}  "
                          f"mean {radii.mean():.3f}  "
                          f"max {radii.max():.3f} Å")
                    obs.disable()
                    return 0
                report = guarded.report()
                energy, radii = report.energy, report.born_radii
                # The schedule below replays the per-leaf counts of the
                # rung the guarded run settled on (None on a resume).
                solver = guarded.inner_solver
    except DiagnosticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        obs.disable()
        return 1
    dt = _root_span_seconds("solve")
    if report is not None and report.events:
        print(f"guard: finished on rung {report.rung!r} after "
              f"{report.attempts} attempt(s), "
              f"{report.degradations} degradation(s)")
        for ev in report.events:
            print(f"  - {ev.action} [{ev.phase}] {ev.detail}")
    method = args.method if report is None else report.method
    print(f"E_pol = {energy:.4f} kcal/mol   ({method}, {dt:.2f} s)")
    print(f"Born radii: min {radii.min():.3f}  mean {radii.mean():.3f}  "
          f"max {radii.max():.3f} Å")
    print("phase breakdown (tracer):")
    print(obs.render_span_tree(obs.get_tracer()))
    if args.compare_naive:
        with obs.span("compare_naive"):
            ref = PolarizationSolver(mol, method="naive").energy()
        print(f"naive reference: {ref:.4f} kcal/mol "
              f"({100 * abs(energy - ref) / abs(ref):.4f} % difference)")
    if args.trace:
        runstats = None
        if solver is not None and solver.born_result is not None:
            profile = WorkProfile.from_solver(solver)
            runstats = simulate_fig4(profile, args.trace_procs,
                                     args.trace_threads, seed=args.seed)
            print(f"simulated schedule: {runstats.summary()}")
        obs.write_chrome_trace(args.trace, tracer=obs.get_tracer(),
                               runstats=runstats, metrics=obs.registry)
        print(f"wrote trace to {args.trace}")
    if args.json:
        import json
        doc = {"molecule": mol.name, "natoms": mol.natoms,
               "method": method, "energy": energy,
               "born_min": float(radii.min()),
               "born_mean": float(radii.mean()),
               "born_max": float(radii.max()),
               "guarded": report is not None}
        if report is not None:
            doc.update(rung=report.rung, attempts=report.attempts,
                       degradations=report.degradations,
                       events=[{"action": e.action, "phase": e.phase,
                                "detail": e.detail}
                               for e in report.events])
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote result to {args.json}")
    _write_metrics(args)
    obs.disable()
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.guard import DiagnosticError
    from repro.guard.checks import diagnose_molecule
    from repro.molecules.surface import sample_surface as _sample
    try:
        mol = _load_molecule(args, surface=False)
    except (DiagnosticError, ValueError) as exc:
        print(f"unreadable molecule: {exc}", file=sys.stderr)
        return 2
    findings = diagnose_molecule(mol, _params(args))
    # Surface checks only make sense once the raw arrays are sound.
    if mol.surface is None and not any(d.severity == "error"
                                       for d in findings):
        try:
            mol = _sample(mol)
            findings = diagnose_molecule(mol, _params(args))
        except ValueError as exc:
            print(f"note: surface sampling failed: {exc}")
    print(f"doctor: {mol.name} — {mol.natoms} atoms")
    for d in findings:
        print(d.render())
    errors = sum(1 for d in findings if d.severity == "error")
    fixable = sum(1 for d in findings if d.fixable)
    if not findings:
        print("no findings: molecule and parameters look healthy")
        return 0
    print(f"{len(findings)} finding(s): {errors} error(s), "
          f"{fixable} fixable")
    return 1 if errors else 0


def cmd_scale(args: argparse.Namespace) -> int:
    if args.trace:
        obs.enable(reset=True)
    mol = _load_molecule(args)
    machine = lonestar4(nodes=args.nodes)
    print(f"profiling {mol.name} ({mol.natoms} atoms) …")
    profile = WorkProfile.from_molecule(mol, _params(args))
    table = Table(["cores", "OCT_MPI (s)", "OCT_MPI+CILK (s)"],
                  title=f"simulated scaling on {machine.nodes} nodes")
    mpi = hyb = None
    for cores in (12, 24, 48, 96, 144, 192, 288, 480):
        if cores > machine.total_cores:
            break
        mpi = simulate_fig4(profile, cores, 1, machine=machine)
        hyb = simulate_fig4(profile, max(1, cores // 6), 6,
                            machine=machine)
        table.add_row(cores, mpi.wall_seconds, hyb.wall_seconds)
    print(table.render())
    if args.trace and mpi is not None:
        # Rank timelines of the largest configuration, both layouts.
        obs.write_chrome_trace(args.trace, tracer=obs.get_tracer(),
                               runstats=[mpi, hyb], metrics=obs.registry)
        print(f"wrote trace of the largest configuration to {args.trace}")
        obs.disable()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    try:
        doc = obs.load_trace(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not JSON: {exc}", file=sys.stderr)
        return 2
    problems = obs.validate_chrome_trace(doc)
    if args.check:
        for p in problems:
            print(p)
        events = doc.get("traceEvents", doc if isinstance(doc, list)
                         else [])
        if problems:
            print(f"{args.file}: INVALID ({len(problems)} problem(s))")
            return 1
        print(f"{args.file}: OK ({len(events)} events)")
        return 0
    if problems:
        print(f"warning: {len(problems)} schema problem(s) — "
              f"run with --check for details")
    if args.extract_metrics:
        metrics = ((doc.get("otherData", {}) or {}).get("metrics", {})
                   if isinstance(doc, dict) else {})
        with open(args.extract_metrics, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        print(f"wrote {len(metrics)} metrics to {args.extract_metrics}")
    print(obs.trace_summary(doc))
    return 0


def _install_lock_witness(enabled: bool):
    """Install a runtime LockWitness when ``enabled``.

    Call before any service or fleet is built: the ``named_lock`` /
    ``named_condition`` factories consult the active witness at
    construction time, so every serve- and fleet-stack lock is wrapped.
    """
    if not enabled:
        return None
    from repro.obs import lockwitness
    return lockwitness.install(lockwitness.LockWitness())


def _report_lock_witness(witness, lock_trace: Optional[str] = None
                         ) -> bool:
    """Uninstall ``witness``, print its summary and any lock-order
    cycles, write ``lock_trace``; returns whether a cycle was seen."""
    if witness is None:
        return False
    from repro.obs import lockwitness
    lockwitness.uninstall()
    print(witness.summary())
    if lock_trace:
        witness.write_chrome_trace(lock_trace)
        print(f"wrote lock trace to {lock_trace}")
    found = witness.cycles()
    for cycle in found:
        print("lock-order cycle: " + " -> ".join(cycle), file=sys.stderr)
    return bool(found)


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.serve and args.fleet:
        print("--serve and --fleet are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.trace:
        obs.enable(reset=True)
    witness = _install_lock_witness((args.serve or args.fleet)
                                    and args.lock_witness)
    from repro.faults.chaos import run_chaos
    tier = "serve" if args.serve else "fleet" if args.fleet else "cluster"
    report = run_chaos(tier, seed=args.seed, processes=args.processes,
                       atoms=args.atoms, quick=args.quick,
                       workers=args.workers, tolerance=args.tolerance)
    print(report.table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote report to {args.json}")
    if args.trace:
        obs.write_chrome_trace(args.trace, tracer=obs.get_tracer(),
                               metrics=obs.registry)
        obs.disable()
        print(f"wrote trace to {args.trace}")
    cyclic = _report_lock_witness(witness)
    if not report.all_passed:
        failed = [r.name for r in report.results if not r.passed]
        print(f"FAILED scenarios: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.serve:
        print(f"all {len(report.results)} serve scenarios passed: "
              f"zero stranded tickets, bitwise parity with the "
              f"fault-free twin, same-seed determinism")
    elif args.fleet:
        print(f"all {len(report.results)} fleet scenarios passed: "
              f"zero stranded tickets, bitwise parity with the "
              f"fault-free fleet twin AND the single-shard baseline, "
              f"same-seed determinism")
    else:
        print(f"all {len(report.results)} scenarios recovered within "
              f"{report.header['tolerance']:g} of E_pol = "
              f"{report.header['ref_energy']:.6f}")
    return 1 if cyclic else 0


def _serve_backend(args: argparse.Namespace):
    """The backend of every ``repro serve`` mode: one
    :class:`~repro.serve.SolveService`, or with ``--shards N`` a
    :class:`~repro.fleet.ShardedFleet` (consistent-hash routing,
    per-shard breakers, heartbeat supervision)."""
    from repro.serve import AdmissionPolicy, RetryPolicy, SolveService
    admission = None
    if (args.shed_queue_depth is not None
            or args.shed_wait_seconds is not None):
        admission = AdmissionPolicy(
            max_queue_depth=args.shed_queue_depth,
            max_wait_seconds=args.shed_wait_seconds)
    common = dict(queue_capacity=args.queue_size,
                  batch_size=args.batch_size, cache_dir=args.cache_dir,
                  cache_bytes=args.cache_mb * 1024 * 1024,
                  admission=admission)
    if args.shards is not None:
        from repro.fleet import ShardedFleet
        return ShardedFleet(shards=args.shards, backend=args.shard_backend,
                            workers_per_shard=args.workers,
                            supervise=True, **common)
    retry = None
    if args.retries > 1 or args.hedge_after is not None:
        retry = RetryPolicy(max_attempts=max(2, args.retries),
                            seed=args.seed,
                            hedge_after_s=args.hedge_after)
    return SolveService(workers=args.workers, retry=retry, **common)


def _serve_http(args: argparse.Namespace, backend, tenants) -> None:
    """``--http``: ``backend`` behind the :mod:`repro.edge` HTTP
    front-end — bearer-token tenancy, per-tenant rate limits, typed
    JSON errors, redacted request logging (docs/HTTP.md)."""
    import signal
    import threading

    from repro.edge import EdgeApp, EdgeServer
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # A shell starts a background job (`cmd &`) with SIGINT
        # ignored; the edge must still stop and drain on it.  Set only
        # now, so the shard children forked with the backend keep
        # ignoring it and finish on their pipe's EOF.
        signal.signal(signal.SIGINT, signal.default_int_handler)
    kind = (f"{args.shards}-shard {args.shard_backend} fleet"
            if args.shards is not None
            else f"{args.workers}-worker service")
    log_stream = (open(args.request_log, "w", encoding="utf-8")
                  if args.request_log else None)
    app = EdgeApp(backend, tenants, seed=args.seed,
                  log_stream=log_stream,
                  sync_timeout_s=args.drain_timeout)
    try:
        with EdgeServer(app, host=args.host, port=args.port) as server:
            names = ", ".join(t.name for t in tenants.tenants)
            print(f"edge listening on {server.url} — {kind}, "
                  f"tenant(s): {names}", flush=True)
            try:
                # None → block until interrupted; a finite duration is
                # the CI-smoke entry point.
                threading.Event().wait(args.http_duration)
            except KeyboardInterrupt:
                print("interrupted; draining", file=sys.stderr)
    finally:
        # Finish in-flight solves before the request log closes under
        # the handlers that still have to record them.
        backend.close()
        if log_stream is not None:
            log_stream.close()
    print(f"served {len(app.log)} request(s)")
    if args.request_log:
        print(f"wrote request log to {args.request_log}")


def _service_summary(args: argparse.Namespace, service, source: str,
                     requests: int, ok: int) -> dict:
    stats = service.stats()
    table = Table(["requests", "ok", "degraded", "failed", "expired",
                   "coalesced", "rejected"],
                  title=f"serve: {requests} requests from {source} — "
                        f"{args.workers} worker(s), queue "
                        f"{args.queue_size}, batch {args.batch_size}")
    table.add_row(stats.submitted, ok, stats.degraded, stats.failed,
                  stats.expired, stats.coalesced, stats.rejected)
    print(table.render())
    lat = Table(["metric", "p50 (ms)", "p99 (ms)"])
    lat.add_row("queue wait", stats.wait_p50 * 1e3, stats.wait_p99 * 1e3)
    lat.add_row("service", stats.service_p50 * 1e3,
                stats.service_p99 * 1e3)
    print(lat.render())
    levels = ", ".join(f"{k}: {v}"
                       for k, v in sorted(stats.by_level.items()))
    print(f"cache: hit rate {stats.hit_rate:.1%} "
          f"({stats.cache.hits} hits / {stats.cache.misses} misses, "
          f"{stats.cache.evictions} evictions, "
          f"{stats.cache.entries} entries, "
          f"{stats.cache.bytes / 1e6:.1f} MB)")
    print(f"served from: {levels}")
    return {"workers": args.workers, "requests": stats.submitted,
            "degraded": stats.degraded, "failed": stats.failed,
            "expired": stats.expired, "coalesced": stats.coalesced,
            "rejected": stats.rejected, "hit_rate": stats.hit_rate,
            "by_level": dict(stats.by_level),
            "wait_p50_ms": stats.wait_p50 * 1e3,
            "wait_p99_ms": stats.wait_p99 * 1e3,
            "service_p50_ms": stats.service_p50 * 1e3,
            "service_p99_ms": stats.service_p99 * 1e3}


def _fleet_summary(args: argparse.Namespace, fleet, source: str,
                   requests: int, ok: int, results: list) -> dict:
    fstats = fleet.stats()
    shard_stats = fleet.shard_stats()
    failed = sum(1 for r in results if r.status == "failed")
    table = Table(["requests", "ok", "failed", "coalesced", "shed",
                   "rerouted", "shards live"],
                  title=f"fleet: {requests} requests from {source} — "
                        f"{args.shards} {args.shard_backend} shard(s), "
                        f"{args.workers} worker(s)/shard")
    table.add_row(fstats.submitted, ok, failed, fstats.coalesced,
                  fstats.shed, fstats.rerouted, fstats.shards_live)
    print(table.render())
    per = Table(["shard", "dispatched", "completed", "hit rate",
                 "cache entries"])
    for sid in sorted(shard_stats):
        st = shard_stats[sid]
        per.add_row(sid, fstats.dispatches.get(sid, 0), st.completed,
                    f"{st.hit_rate:.1%}", st.cache.entries)
    print(per.render())
    return {"shards": args.shards, "backend": args.shard_backend,
            "requests": fstats.submitted, "failed": failed,
            "expired": sum(1 for r in results if r.status == "expired"),
            "coalesced": fstats.coalesced, "shed": fstats.shed,
            "rerouted": fstats.rerouted,
            "dispatches": {str(k): v for k, v
                           in sorted(fstats.dispatches.items())}}


def _serve_scripted(args: argparse.Namespace, backend, requests: list,
                    source: str) -> bool:
    """Submit → drain → collect ``requests`` on ``backend``, print the
    summary and write ``--json``; returns whether any request failed
    or expired."""
    from repro.fleet import ShardedFleet
    from repro.serve import (QueueFullError, ServiceOverloadedError,
                             SolveResult)
    fleet = isinstance(backend, ShardedFleet)
    # The router routes around a full shard; it never waits on one.
    submit_kw = {} if fleet else {"wait_timeout": args.submit_timeout}
    size = {"shards": args.shards} if fleet else {"workers": args.workers}
    tickets = []
    t0 = time.perf_counter()
    with obs.span("serve.fleet" if fleet else "serve", cat="serve",
                  requests=len(requests), **size):
        for req in requests:
            try:
                tickets.append(backend.submit(req, **submit_kw))
            except ServiceOverloadedError as exc:
                print(f"shed (overloaded): {exc}", file=sys.stderr)
            except QueueFullError as exc:
                print(f"rejected (queue full): {exc}", file=sys.stderr)
        backend.drain(timeout=args.drain_timeout)
    wall = time.perf_counter() - t0
    # Collect against the *remaining* drain budget, not a hardcoded
    # per-ticket second: a slow straggler that drain() already waited
    # on must not get a fresh second per ticket, and a fast run should
    # not be capped below its budget.  A ticket that still misses the
    # deadline yields a typed timeout result instead of an exception.
    collect_deadline = t0 + args.drain_timeout
    results = []
    for t in tickets:
        remaining = max(0.0, collect_deadline - time.perf_counter())
        try:
            results.append(t.result(timeout=remaining))
        except TimeoutError:
            results.append(SolveResult(
                key=t.key, status="failed",
                error=f"result not available within the "
                      f"{args.drain_timeout:g}s drain budget"))
    ok = sum(1 for r in results if r.status == "ok")
    if fleet:
        doc = _fleet_summary(args, backend, source, len(requests), ok,
                             results)
    else:
        doc = _service_summary(args, backend, source, len(requests), ok)
    print(f"throughput: {len(results) / wall:.1f} req/s "
          f"({wall:.2f} s wall)")
    doc.update(source=source, ok=ok, throughput_rps=len(results) / wall,
               wall_seconds=wall)
    if args.json:
        import json
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote summary to {args.json}")
    if doc["failed"] or doc["expired"]:
        print(f"{doc['failed']} failed, {doc['expired']} expired",
              file=sys.stderr)
        return True
    return False


def cmd_serve(args: argparse.Namespace) -> int:
    if args.shards is not None and (args.retries > 1
                                    or args.hedge_after is not None):
        print("error: --retries/--hedge-after configure a single "
              "service; shards take no retry policy (drop --shards)",
              file=sys.stderr)
        return 2
    if args.http:
        from repro.edge import TenantRegistry
        try:
            tenants = TenantRegistry.from_specs(
                args.http_token or ["demo:demo-token"],
                rate_per_s=args.http_rate, burst=args.http_burst,
                max_body_bytes=args.http_max_body_kb * 1024)
        except ValueError as exc:
            print(f"bad --http-token spec: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.serve import load_workload, synthetic_workload
        if args.workload:
            try:
                requests = load_workload(args.workload)
            except (OSError, ValueError) as exc:
                print(f"bad --workload file: {exc}", file=sys.stderr)
                return 2
            source = args.workload
        else:
            requests = synthetic_workload(
                args.synthetic, seed=args.seed, molecules=args.molecules,
                atoms=args.atoms)
            source = f"synthetic (seed {args.seed})"
    obs.enable(reset=True)
    witness = _install_lock_witness(args.lock_witness)
    failed = False
    with _serve_backend(args) as backend:
        if args.http:
            _serve_http(args, backend, tenants)
        else:
            failed = _serve_scripted(args, backend, requests, source)
    if args.trace:
        obs.write_chrome_trace(args.trace, tracer=obs.get_tracer(),
                               metrics=obs.registry)
        print(f"wrote trace to {args.trace}")
    _write_metrics(args)
    cyclic = _report_lock_witness(witness, args.lock_trace)
    obs.disable()
    return 1 if failed or cyclic else 0


def cmd_packages(args: argparse.Namespace) -> int:
    mol = _load_molecule(args)
    table = Table(["package", "GB model", "time (s)", "E (kcal/mol)",
                   "memory (MB)"],
                  title=f"{mol.name}: package emulators on 12 cores")
    for name in PACKAGES:
        res = get_package(name).run(mol, cores=12)
        if res.oom:
            table.add_row(name, res.gb_model, "OOM", "OOM",
                          res.memory_bytes / 1e6)
        else:
            table.add_row(name, res.gb_model, res.wall_seconds,
                          res.energy, res.memory_bytes / 1e6)
    print(table.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import suite_sizes
    from repro.analysis.export import generate_report
    sizes = suite_sizes(max_size=args.max_size)
    print(f"running the experiment sweep (suite sizes {sizes}, capsid "
          f"{args.capsid_atoms} atoms) …")
    report = generate_report(args.out, suite_sizes=sizes,
                             capsid_atoms=args.capsid_atoms)
    print(f"wrote {report} and per-figure CSVs to {args.out}/")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main
    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.statistics:
        argv.append("--statistics")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import table1_machine, table2_packages
    print(f"repro {__version__} — octree GB polarization energy "
          f"(Tithi & Chowdhury, SC 2012 reproduction)\n")
    print(table1_machine())
    print()
    print(table2_packages())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute Born radii and E_pol")
    _add_molecule_args(p)
    _add_params_args(p)
    _add_obs_args(p)
    p.add_argument("--method", choices=("octree", "dualtree", "naive"),
                   default="octree")
    p.add_argument("--compare-naive", action="store_true")
    p.add_argument("--trace-procs", type=int, default=4,
                   help="ranks of the simulated schedule attached to "
                        "--trace output (default 4)")
    p.add_argument("--trace-threads", type=int, default=6,
                   help="threads per rank of that schedule (default 6)")
    p.add_argument("--no-guard", action="store_true",
                   help="bypass the guard layer (no preflight, "
                        "sentinels, watchdog or degradation ladder)")
    p.add_argument("--checkpoint", type=str, default=None, metavar="DIR",
                   help="snapshot post-phase state into DIR "
                        "(versioned, checksummed, atomically written)")
    p.add_argument("--resume", action="store_true",
                   help="restart from the newest snapshot in "
                        "--checkpoint DIR (bitwise-identical energy)")
    p.add_argument("--stop-after", choices=("born",), default=None,
                   help="exit after this phase's snapshot lands — the "
                        "interruption half of a restart test")
    p.add_argument("--json", type=str, default=None, metavar="FILE",
                   help="write the result (energy, guard events) as "
                        "JSON")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("doctor", help="validate a molecule/config and "
                                      "report fixable issues")
    _add_molecule_args(p)
    _add_params_args(p)
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("scale", help="core-count sweep on the simulated "
                                     "cluster")
    _add_molecule_args(p)
    _add_params_args(p)
    _add_obs_args(p)
    p.add_argument("--nodes", type=int, default=40)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("trace", help="inspect / validate a Chrome "
                                     "trace-event JSON file")
    p.add_argument("file", help="trace file written by solve/scale "
                                "--trace")
    p.add_argument("--check", action="store_true",
                   help="validate against the trace-event schema; exit "
                        "1 on problems")
    p.add_argument("--extract-metrics", type=str, default=None,
                   metavar="FILE", help="convert: write the embedded "
                                        "metrics snapshot to FILE (JSON)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("chaos", help="fault-injection scenario matrix "
                                     "over the fault-tolerant solver "
                                     "(--serve: the solve service; "
                                     "--fleet: the sharded fleet)")
    p.add_argument("--seed", type=int, default=0,
                   help="derives every scenario's faults (default 0)")
    p.add_argument("--processes", type=int, default=4,
                   help="simulated MPI ranks (default 4, minimum 3)")
    p.add_argument("--atoms", type=int, default=400,
                   help="synthetic molecule size (default 400)")
    p.add_argument("--quick", action="store_true",
                   help="small molecule — the CI smoke configuration")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative E_pol agreement required (default 1e-9)")
    p.add_argument("--serve", action="store_true",
                   help="run the serve-tier matrix instead (worker "
                        "crashes, stragglers+hedging, disk-error "
                        "storms, cache poison, overload shedding)")
    p.add_argument("--fleet", action="store_true",
                   help="run the fleet-tier matrix instead (shard "
                        "deaths mid-batch, stalled-shard quarantine, "
                        "live rebalancing, overload shedding — "
                        "parity vs fault-free fleet AND single-shard "
                        "baseline)")
    p.add_argument("--workers", type=int, default=2,
                   help="--serve: clean-baseline worker pool "
                        "(fault scenarios pin their own; default 2)")
    p.add_argument("--lock-witness", action="store_true",
                   help="--serve/--fleet: wrap serve-stack locks in "
                        "the runtime LockWitness and fail on an "
                        "acquisition-order cycle")
    p.add_argument("--json", type=str, default=None, metavar="FILE",
                   help="write the scenario report as JSON")
    p.add_argument("--trace", type=str, default=None, metavar="FILE",
                   help="write a Chrome trace with fault instants and "
                        "recovery spans")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("serve", help="run a workload through the "
                                     "batched solve service + artifact "
                                     "cache")
    _add_obs_args(p)
    src_group = p.add_mutually_exclusive_group()
    src_group.add_argument("--synthetic", type=int, default=20,
                           metavar="N",
                           help="generate N mixed synthetic requests "
                                "(default 20)")
    src_group.add_argument("--workload", type=str, default=None,
                           metavar="FILE",
                           help="JSON workload file (see repro.serve."
                                "workload.load_workload)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads of the single service, or of "
                        "each thread shard with --shards (default 2); "
                        "a process shard solves one request at a time")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="serve through an N-shard fleet (consistent-"
                        "hash router, per-shard breakers, heartbeat "
                        "supervision) instead of one service")
    p.add_argument("--shard-backend", type=str, default="thread",
                   choices=("thread", "process"),
                   help="--shards: in-thread shards (deterministic) "
                        "or one OS process per shard (default thread)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="admission queue capacity; a full queue "
                        "rejects with QueueFullError (default 64)")
    p.add_argument("--batch-size", type=int, default=4,
                   help="max requests a worker takes per pass "
                        "(default 4)")
    p.add_argument("--cache-mb", type=int, default=256,
                   help="memory-tier artifact cache budget in MB "
                        "(default 256)")
    p.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                   help="disk tier: persist array artifacts as "
                        "REPRO-CKPT files under DIR")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic workload seed (default 0)")
    p.add_argument("--atoms", type=int, default=300,
                   help="smallest synthetic molecule (default 300)")
    p.add_argument("--molecules", type=int, default=3,
                   help="synthetic molecule pool size (default 3)")
    p.add_argument("--submit-timeout", type=float, default=30.0,
                   help="single service: seconds to wait for queue "
                        "space before rejecting (default 30); a "
                        "fleet's router routes around a full shard")
    p.add_argument("--drain-timeout", type=float, default=600.0,
                   help="seconds to wait for the queue to drain; also "
                        "bounds result collection (default 600)")
    p.add_argument("--retries", type=int, default=1,
                   help="single service: max delivery attempts per "
                        "request; >1 enables bounded retry with seeded "
                        "exponential backoff (default 1 = off)")
    p.add_argument("--hedge-after", type=float, default=None,
                   metavar="SECONDS",
                   help="single service: hedge a straggling attempt "
                        "after this many seconds; first completed "
                        "result wins (default off)")
    p.add_argument("--shed-queue-depth", type=int, default=None,
                   metavar="N", help="shed submissions (typed "
                        "ServiceOverloadedError with a retry-after "
                        "hint) once the queue is deeper than N")
    p.add_argument("--shed-wait-seconds", type=float, default=None,
                   metavar="SLO", help="shed once the projected queue "
                        "wait (EMA service time x depth / workers) "
                        "exceeds SLO seconds")
    p.add_argument("--json", type=str, default=None, metavar="FILE",
                   help="write the latency/hit-rate summary as JSON")
    p.add_argument("--lock-witness", action="store_true",
                   help="wrap the serve/fleet locks (any mode) in "
                        "the runtime LockWitness: record the order "
                        "graph, assert it is acyclic at exit (exit 1 "
                        "on a cycle) and export lock.held_seconds / "
                        "lock.contention metrics")
    p.add_argument("--lock-trace", type=str, default=None,
                   metavar="FILE",
                   help="with --lock-witness: dump held-lock spans + "
                        "the witnessed graph as Chrome trace JSON")
    p.add_argument("--http", action="store_true",
                   help="serve the multi-tenant HTTP API (repro.edge) "
                        "in front of the service/fleet instead of "
                        "running a scripted workload (docs/HTTP.md)")
    p.add_argument("--host", type=str, default="127.0.0.1",
                   help="--http: bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="--http: bind port; 0 picks a free one and "
                        "prints the bound URL (default 0)")
    p.add_argument("--http-token", action="append", default=None,
                   metavar="NAME:TOKEN[:RATE[:BURST]]",
                   help="--http: register a tenant (repeatable); "
                        "default demo:demo-token")
    p.add_argument("--http-rate", type=float, default=50.0,
                   help="--http: default per-tenant sustained "
                        "requests/s (default 50)")
    p.add_argument("--http-burst", type=int, default=20,
                   help="--http: default per-tenant burst allowance "
                        "(default 20)")
    p.add_argument("--http-max-body-kb", type=int, default=64,
                   help="--http: per-request body cap in KiB; larger "
                        "bodies get a typed 413 (default 64)")
    p.add_argument("--request-log", type=str, default=None,
                   metavar="FILE",
                   help="--http: append one redacted JSON line per "
                        "request (no bodies, no tokens)")
    p.add_argument("--http-duration", type=float, default=None,
                   metavar="SECONDS",
                   help="--http: serve for this long then exit 0 "
                        "(default: until Ctrl-C)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("packages", help="run the MD-package emulators")
    _add_molecule_args(p)
    p.set_defaults(fn=cmd_packages)

    p = sub.add_parser("report", help="run a small pass over every "
                                      "experiment and write CSVs + "
                                      "report.md")
    p.add_argument("--out", type=str, default="repro-report")
    p.add_argument("--max-size", type=int, default=1500,
                   help="largest suite molecule (default 1500)")
    p.add_argument("--capsid-atoms", type=int, default=4000)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("info", help="print machine/package inventory")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("lint", help="run the project static analyzer "
                                    "(rules RPR001-RPR205)")
    p.add_argument("paths", nargs="*", default=["src"])
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("--select", type=str, default=None)
    p.add_argument("--ignore", type=str, default=None)
    p.add_argument("--statistics", action="store_true")
    p.add_argument("--list-rules", action="store_true")
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
