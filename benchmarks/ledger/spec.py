"""Shared pieces of the layer ledger: where things live, the metric
contract in ``BENCHMARK.json``, summary statistics, provenance and
process memory.

Importing this module puts the checkout's ``src/`` first on
``sys.path``: the ledger always measures the code next to it, never an
installed copy (:func:`require_checkout_repro` enforces that).
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Metric and workload names: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def require_checkout_repro() -> None:
    """Exit (status 1) unless ``repro`` imports from this checkout."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"ledger: cannot import repro from {SRC}: {exc}")
    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"ledger: repro imported from {where}, "
                         f"not from this checkout's {SRC}")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics ------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


# -- provenance and memory -------------------------------------------------

def provenance() -> Dict[str, object]:
    """Commit, interpreter, numpy and CPU count behind a measurement."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"   # e.g. an exported checkout without .git
    return {"commit": commit or "unknown",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def vm_hwm_mib(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (all of its threads' children)."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text(encoding="ascii")
        except FileNotFoundError:   # the thread exited meanwhile
            continue
        out.extend(int(p) for p in text.split())
    return out


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that must import this
    checkout's ``repro``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get(
        "PYTHONPATH", "")) if p)
    return dict(os.environ, PYTHONPATH=path)


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to import the solve path —
    what every ``repro`` command pays before its first solve."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.guard.solver, repro.molecules"],
                   env=child_env(), check=True, timeout=120)
    return time.perf_counter() - t0


# -- traces ----------------------------------------------------------------

def self_times(events: Iterable[dict]) -> Dict[str, float]:
    """Seconds per span name, minus the time its child spans cover."""
    spans = [ev for ev in events if ev.get("ph") == "X"
             and "span_id" in ev.get("args", {})]
    child_us: Dict[int, float] = {}
    for ev in spans:
        parent = ev["args"].get("parent_id")
        if parent:
            child_us[parent] = child_us.get(parent, 0.0) + ev["dur"]
    out: Dict[str, float] = {}
    for ev in spans:
        own = ev["dur"] - child_us.get(ev["args"]["span_id"], 0.0)
        out[ev["name"]] = out.get(ev["name"], 0.0) + own / 1e6
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def write_trace(trace_dir: str, workload: str) -> None:
    """``<workload>.trace.json`` (Chrome trace of the process tracer)
    and ``<workload>.selftimes.json`` into ``trace_dir``."""
    import repro.obs as obs
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    obs.write_chrome_trace(str(out / f"{workload}.trace.json"),
                           tracer=obs.get_tracer(), metrics=obs.registry)
    (out / f"{workload}.selftimes.json").write_text(
        json.dumps(self_times(obs.get_tracer().events()), indent=2)
        + "\n", encoding="utf-8")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
