"""Solver parity probe: bit-level fingerprints of every solver path.

Run it on two checkouts and diff the JSON to see whether a change to
``core/`` or ``parallel/`` kept each result's bits::

    PYTHONPATH=src python benchmarks/parity_probe.py probe.json

Cases, on ``synthetic_protein(n, seed=3)``:

* ``solver/<method>/<n>/<knobs>``: ``PolarizationSolver`` with
  ``method`` octree and dualtree, ``n`` in 400, 1200 and 3000, and
  ε = 0.9, ε = 0.9 with ``approx_math``, or ε = 0.05.  Records the
  energy as ``float.hex``, the sha256 of the Born radii, each phase's
  ``TraversalCounts`` and the sha256 of each ``PerSourceCounts`` array.
* ``fig4/P<p>/<division>``: ``run_fig4_simmpi`` at P = 1, 2, 4 with
  node and atom division on 1200 atoms: energy, radii and virtual wall
  time.
* ``datadist/P<p>/<presort>``: ``run_data_distributed`` at P = 1, 2,
  3, 4, 8 with central and sample presort on 1200 atoms: energy, radii,
  virtual wall time, ghost counts and per-rank bytes.

The only argument is the output path; without it the JSON goes to
stdout.  Keys are sorted, so two runs diff line by line.  The matrix
takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.config import ApproxParams
from repro.core import PolarizationSolver
from repro.molecules.generator import synthetic_protein
from repro.parallel import run_fig4_simmpi
from repro.parallel.datadist import run_data_distributed

SIZES = (400, 1200, 3000)
KNOBS = {
    "eps0.9": ApproxParams(),
    "eps0.9-approx_math": ApproxParams(approx_math=True),
    "eps0.05": ApproxParams(eps_born=0.05, eps_epol=0.05),
}
SEED = 3
CLUSTER_ATOMS = 1200


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _phase(result) -> dict:
    counts = {k: int(v) for k, v in vars(result.counts).items()}
    per = result.per_source
    return {"counts": counts,
            "per_source": {f: _sha(getattr(per, f)) for f in
                           ("visits", "far", "exact_interactions")}}


def _solver_cases(out: dict) -> None:
    for n in SIZES:
        mol = synthetic_protein(n, seed=SEED)
        for method in ("octree", "dualtree"):
            for knob, params in KNOBS.items():
                solver = PolarizationSolver(mol, params, method=method)
                energy = solver.energy()
                out[f"solver/{method}/{n}/{knob}"] = {
                    "energy": float(energy).hex(),
                    "radii": _sha(solver.born_radii()),
                    "born": _phase(solver.born_result),
                    "epol": _phase(solver.epol_result),
                }


def _cluster_cases(out: dict) -> None:
    mol = synthetic_protein(CLUSTER_ATOMS, seed=SEED)
    for P in (1, 2, 4):
        for division in ("node", "atom"):
            res = run_fig4_simmpi(mol, ApproxParams(), processes=P,
                                  work_division=division)
            out[f"fig4/P{P}/{division}"] = {
                "energy": float(res.energy).hex(),
                "radii": _sha(res.born_radii),
                "wall_seconds": float(res.stats.wall_seconds).hex(),
            }
    for P in (1, 2, 3, 4, 8):
        for presort in ("central", "sample"):
            res = run_data_distributed(mol, ApproxParams(), processes=P,
                                       presort=presort)
            out[f"datadist/P{P}/{presort}"] = {
                "energy": float(res.energy).hex(),
                "radii": _sha(res.born_radii),
                "wall_seconds": float(res.stats.wall_seconds).hex(),
                "ghost_qpoints": int(res.ghost_qpoints),
                "ghost_atoms": int(res.ghost_atoms),
                "rank_bytes": [int(b) for b in res.rank_bytes],
            }


def main(argv: list) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print("usage: parity_probe.py [OUT.json]", file=sys.stderr)
        return 2
    out: dict = {}
    _solver_cases(out)
    _cluster_cases(out)
    text = json.dumps(out, sort_keys=True, indent=1) + "\n"
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
