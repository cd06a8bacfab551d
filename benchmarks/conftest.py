"""Shared benchmark fixtures.

Every benchmark regenerates one paper table/figure: it runs the
corresponding :mod:`repro.analysis.experiments` function exactly once
under pytest-benchmark (``rounds=1`` — these are minutes-scale harness
runs, not microbenchmarks), prints the paper-style table, and persists
it to ``benchmarks/results/`` twice: the rendered text as
``<name>.txt`` and a machine-readable ``<name>.json`` carrying the
config, the per-row metrics, the measured wall seconds and the
provenance (commit, Python, numpy, CPU count) the ledger stamps on its
own results.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Optional

import pytest

from ledger.spec import provenance

RESULTS_DIR = Path(__file__).parent / "results"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of benchmark rows to JSON-ready data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "_asdict"):                      # namedtuple
        return {k: _jsonable(v) for k, v in value._asdict().items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:                                           # numpy scalar
            return value.item()
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist"):                       # numpy array
        return value.tolist()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _wall_seconds(request) -> Optional[float]:
    """Measured mean wall seconds from the test's benchmark fixture."""
    if "benchmark" not in request.fixturenames:
        return None
    stats = getattr(request.getfixturevalue("benchmark"), "stats", None)
    inner = getattr(stats, "stats", None)
    mean = getattr(inner, "mean", None)
    return float(mean) if mean is not None else None


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir, request):
    """Persist a benchmark result as ``<name>.txt`` + ``<name>.json``.

    ``text`` is printed and written verbatim (the paper-style table);
    ``rows`` (any sequence of dataclasses / namedtuples / dicts /
    tuples) and ``config`` land in the JSON document together with the
    wall seconds pytest-benchmark measured for the test and the
    run's provenance.
    """

    def _record(name: str, text: str, rows: Any = None,
                config: Any = None) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
        doc = {
            "name": name,
            "test": request.node.nodeid,
            "config": _jsonable(config) if config is not None else {},
            "rows": _jsonable(rows) if rows is not None else [],
            "wall_seconds": _wall_seconds(request),
            "provenance": provenance(),
        }
        (results_dir / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
