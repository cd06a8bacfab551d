"""Verdicts for a change against its parent, one row per workload.

    python benchmarks/ledger/compare.py PARENT.json... -- CHANGE.json...

Each file is what ``run.py --out`` wrote for one run; list the runs of
each side in the order they were made, alternating parent and change,
so that the i-th files of the two sides form a pair.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload both sides
ran, the verdict is one of:

``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's own runs spread (quartile distance over median) wider
    than the bound, and not every run of the change reads better than
    every run of the parent;
``improved``
    at least 10 pairs, the change wins at least 9 in 10 of them (ties
    count for neither side), and the medians differ by more than the
    parent's quartile distance;
``within bound``
    anything else.

The exit status is 1 when any pair regressed.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence

import spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = spec.quartiles(parent)
    med_c = spec.median(change)
    scale = abs(med_p) or 1.0
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved"
    if sign * (med_p - med_c) / scale > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_c - med_p) > q3 - q1):
        return "improved"
    return "within bound"


def load_runs(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """``workload → metric → values``, in file order."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload, res in doc["workloads"].items():
            for name, m in res["metrics"].items():
                runs.setdefault(workload, {}).setdefault(
                    name, []).append(float(m["value"]))
    return runs


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]
            ) -> List[dict]:
    bench = spec.load_benchmark()
    parent, change = load_runs(parent_paths), load_runs(change_paths)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            p = parent.get(workload, {}).get(m["name"])
            c = change.get(workload, {}).get(m["name"])
            if not p or not c:
                continue
            rows.append({
                "workload": workload, "metric": m["name"],
                "unit": m["unit"], "bound": m["bound"],
                "parent": spec.quartiles(p), "change": spec.quartiles(c),
                "runs": (len(p), len(c)),
                "verdict": verdict(p, c, m["better"], m["bound"]),
            })
    return rows


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print("need at least one run on each side of --", file=sys.stderr)
        return 2
    rows = compare(parent_paths, change_paths)
    print(f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s}  runs   verdict")
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["parent"])
        cmt = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:12s} {r['metric']:12s} {fmt:>30s} "
              f"{cmt:>30s}  {r['runs'][0]}/{r['runs'][1]}  "
              f"{r['verdict']} (bound {r['bound']:.0%})")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
