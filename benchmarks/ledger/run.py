"""Layer ledger: the repository's benchmark.

    python benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
    python benchmarks/ledger/run.py --sweep [--out FILE]

Runs each named workload (default: all four in ``BENCHMARK.json``)
for ``--seconds`` of measurement, checks the program's outputs, prints
every metric as ``workload metric value unit``, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured with tracing off; ``--trace 1``
reports the per-layer metrics from a traced run, and ``--trace-dir``
also writes ``<workload>.trace.json`` (Chrome trace) and
``<workload>.selftimes.json`` there.  A failed check, or any operation
that failed, makes the exit status 1.

One workload runs in this process.  Several run one after another,
each in a fresh child process, so that each ``peak_rss_mb`` is its own.
``--sweep`` replays the cold path at 250 to 16000 atoms against the
naive solver and writes ``benchmarks/results/layers_sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import spec

SWEEP_ATOMS = (250, 2000, 8000, 16000)
SWEEP_OUT = spec.ROOT / "benchmarks" / "results" / "layers_sweep.json"
CHILD_TIMEOUT_S = 900


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: str) -> Dict[str, object]:
    """One workload in this process, as the final JSON line reports it."""
    if name in ("solve_large", "solve_small"):
        import wl_solve
        res = wl_solve.run(name, seed, seconds, trace, trace_dir)
    elif name == "serve_dock":
        import wl_serve
        res = wl_serve.run(seed, seconds, trace, trace_dir)
    else:
        import wl_http
        res = wl_http.run(seed, seconds, trace, trace_dir)
    bench = spec.load_benchmark()
    specs = {m["name"]: m
             for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = res["metrics"]
    unknown = sorted(set(metrics) - set(specs))
    if unknown:
        raise RuntimeError(f"{name} reported metrics missing from "
                           f"BENCHMARK.json: {unknown}")
    for m, s in specs.items():
        if m not in metrics:
            if not trace:
                raise RuntimeError(f"{name} did not report {m}")
            # A layer this workload never enters did no work.
            metrics[m] = spec.metric(0.0, s["unit"])
        elif metrics[m]["unit"] != s["unit"]:
            raise RuntimeError(f"{name}.{m}: unit {metrics[m]['unit']} "
                               f"is not {s['unit']}")
    for problem in res["problems"]:
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    return {"correct": not res["problems"] and not res["failed"],
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": {m: metrics[m] for m in specs}}


def run_children(names: List[str], args: argparse.Namespace
                 ) -> Dict[str, Dict[str, object]]:
    """Each workload in a fresh interpreter; their final JSON lines."""
    out = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace_dir:
            cmd += ["--trace-dir", args.trace_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode} "
                               f"without a result")
        out[name] = json.loads(lines[-1])
    return out


def sweep(out_path: str) -> int:
    """Per-layer seconds, counts, naive time and error by size."""
    import coldpath
    rows = []
    for atoms in SWEEP_ATOMS:
        rep = coldpath.replay(atoms, seed=0)
        radii_n, energy_n, naive_s = coldpath.naive_reference(
            rep.molecule)
        rows.append({
            "atoms": rep.molecule.natoms, "seconds": rep.seconds,
            "counts": {k: int(v) for k, v in rep.counts.items()},
            "energy": rep.energy, "naive_energy": energy_n,
            "naive_s": naive_s,
            "speedup": naive_s / rep.kernel_seconds,
            "epol_rel_err": abs(rep.energy - energy_n) / abs(energy_n),
            "born_rel_err_max": float(max(abs(rep.radii - radii_n)
                                          / radii_n)),
        })
        r = rows[-1]
        print(f"{r['atoms']:6d} atoms  cold {sum(r['seconds'].values()):7.3f}"
              f" s  naive {naive_s:7.3f} s  speedup {r['speedup']:5.2f}x"
              f"  E_pol error {r['epol_rel_err']:.3%}", flush=True)
    doc = {"name": "layers_sweep", "provenance": spec.provenance(),
           "rows": rows}
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def main(argv: List[str]) -> int:
    bench = spec.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-dir", default="",
                   help="with --trace 1: write trace files here")
    p.add_argument("--out", default="",
                   help="also write results and provenance as JSON here")
    p.add_argument("--sweep", action="store_true",
                   help="cold-path layers vs naive at 250-16000 atoms")
    args = p.parse_args(argv)
    spec.require_checkout_repro()
    if args.sweep:
        return sweep(args.out or str(SWEEP_OUT))
    if args.trace_dir and not args.trace:
        p.error("--trace-dir needs --trace 1")
    chosen = args.workload or names
    if len(chosen) == 1:
        results = {chosen[0]: run_workload(chosen[0], args.seed,
                                           args.seconds, bool(args.trace),
                                           args.trace_dir)}
    else:
        results = run_children(chosen, args)
    for name, res in results.items():
        for m, v in res["metrics"].items():
            print(f"{name} {m} {v['value']!r} {v['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": spec.provenance(), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": results}, fh, indent=2)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
