"""Workload generation and recipe decoding for the solve service.

Two sources of requests:

* :func:`synthetic_workload` — a seeded mixed stream: a small
  pool of distinct molecules × an ε grid, drawn with repetition, so a
  realistic fraction of the stream re-asks recent questions (the
  cache-hit opportunity the service exists for);
* :func:`load_workload` — a JSON workload file (one document holding a
  ``requests`` list, or a bare list), each entry a *recipe* plus an
  optional ``repeat`` count.

A recipe names a seeded molecule (``atoms``/``seed``/``capsid``) plus
per-request knobs.  :func:`recipe_request` is the one decoder: it reads
workload-file entries here and ``POST /v1/solve`` bodies at the HTTP
edge (:mod:`repro.edge.app`), so both accept the same fields, bounds
and types.  A :class:`RecipeBook` builds each distinct recipe once and
shares the molecule across the requests that name it, so fingerprints
(and therefore cache keys and coalescing) line up without re-hashing
identical arrays from separate constructions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.molecules.generator import synthetic_protein, virus_capsid
from repro.molecules.molecule import Molecule
from repro.serve.request import SolveRequest

__all__ = ["MAX_ATOMS", "RECIPE_FIELDS", "RecipeBook", "recipe_request",
           "synthetic_workload", "load_workload"]

#: Fields a recipe may carry.  A workload-file entry may add ``repeat``.
RECIPE_FIELDS = frozenset({
    "atoms", "seed", "capsid", "eps_born", "eps_epol", "approx_math",
    "method", "priority", "deadline_s", "tau", "idempotency_key",
    "tenant",
})

#: Largest recipe a request may name (synthetic molecules are O(atoms)
#: to generate; this is a request-hygiene bound, not a solver limit).
MAX_ATOMS = 20_000

#: (atoms, seed, capsid) — the identity of a seeded molecule.
_Recipe = Tuple[int, int, bool]


class RecipeBook:
    """Recipe → seeded molecule, each distinct recipe built once.

    ``capacity`` bounds the book FIFO (``None``: unbounded); a request
    after eviction rebuilds the seeded molecule bit-identically.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self._lock = obs.named_lock("serve.recipes._lock")
        self._molecules: Dict[_Recipe, Molecule] = \
            {}                                 # guarded-by: _lock

    def molecule(self, atoms: int, seed: int, capsid: bool) -> Molecule:
        recipe = (int(atoms), int(seed), bool(capsid))
        with self._lock:
            mol = self._molecules.get(recipe)
        if mol is not None:
            return mol
        # Build outside the lock (O(atoms) generation must not stall
        # other requests); a racing duplicate build is harmless — the
        # seeded generator is deterministic, so the first one stored
        # wins with the same fingerprint.
        mol = (virus_capsid(recipe[0], seed=recipe[1]) if capsid
               else synthetic_protein(recipe[0], seed=recipe[1]))
        with self._lock:
            mol = self._molecules.setdefault(recipe, mol)
            if self.capacity is not None:
                while len(self._molecules) > self.capacity:
                    del self._molecules[next(iter(self._molecules))]
        return mol


def recipe_request(doc: Mapping[str, object], book: RecipeBook,
                   tenant: str) -> SolveRequest:
    """Decode one recipe into a request for ``tenant``.

    Checks the field set, ``1 <= atoms <= MAX_ATOMS`` and the numeric
    types; raises :class:`ValueError` naming the problem.  A ``tenant``
    field in ``doc`` is the caller's to resolve (the edge matches it
    against the bearer token; a workload entry sets it).  A client
    ``idempotency_key`` is namespaced as ``<tenant>:<key>``: the serve
    tier coalesces and caches on :meth:`SolveRequest.key`, which
    returns an explicit key verbatim, so tenant B replaying tenant A's
    key must never coalesce onto (or poison the cache with) A's result.
    """
    unknown = sorted(set(doc) - RECIPE_FIELDS)
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(unknown)} "
                         f"(allowed: {', '.join(sorted(RECIPE_FIELDS))})")
    if "atoms" not in doc:
        raise ValueError("a recipe needs an 'atoms' field (molecules "
                         "are seeded recipes: atoms + seed (+ capsid))")
    try:
        atoms = int(doc["atoms"])
        seed = int(doc.get("seed", 0))
        capsid = bool(doc.get("capsid", False))
        params = ApproxParams(
            eps_born=float(doc.get("eps_born", 0.9)),
            eps_epol=float(doc.get("eps_epol", 0.9)),
            approx_math=bool(doc.get("approx_math", False)))
        priority = int(doc.get("priority", 0))
        deadline_s = doc.get("deadline_s")
        deadline = None if deadline_s is None else float(deadline_s)
        tau = float(doc.get("tau", TAU_WATER))
        raw_key = str(doc.get("idempotency_key", ""))
        method = str(doc.get("method", "octree"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad field: {exc} (numeric fields must be "
                         f"JSON numbers)") from exc
    if not 1 <= atoms <= MAX_ATOMS:
        raise ValueError(f"atoms must be in [1, {MAX_ATOMS}], got {atoms}")
    return SolveRequest(
        molecule=book.molecule(atoms, seed, capsid), params=params,
        method=method, priority=priority, deadline_s=deadline,
        idempotency_key=f"{tenant}:{raw_key}" if raw_key else "",
        tau=tau, tenant=tenant)


def synthetic_workload(n: int, seed: int = 0, molecules: int = 3,
                       atoms: int = 300) -> List[SolveRequest]:
    """A seeded stream of ``n`` mixed requests over a molecule pool.

    Molecule sizes step up from ``atoms`` so the pool is heterogeneous;
    priorities 0–2 and ε_epol ∈ {0.9, 0.5} are drawn per request.  With
    ``n >> 2 × molecules`` the stream necessarily repeats itself, which
    is what exercises coalescing and the artifact cache.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    eps_grid = (0.9, 0.5)
    pool = [synthetic_protein(atoms + 60 * i, seed=seed + i)
            for i in range(max(1, molecules))]
    requests = []
    for _ in range(n):
        mol = pool[int(rng.integers(len(pool)))]
        params = ApproxParams(
            eps_epol=float(eps_grid[int(rng.integers(len(eps_grid)))]))
        priority = int(rng.integers(3))
        requests.append(SolveRequest(
            molecule=mol, params=params, method="octree",
            priority=priority))
    return requests


def load_workload(path: Union[str, Path]) -> List[SolveRequest]:
    """Read a JSON workload file into requests.

    Each entry is a recipe (:func:`recipe_request`; only ``atoms`` is
    required) plus an optional ``repeat``::

        {"atoms": 300, "seed": 0, "capsid": false,
         "eps_born": 0.9, "eps_epol": 0.9, "method": "octree",
         "priority": 0, "deadline_s": null, "idempotency_key": "",
         "tenant": "default", "repeat": 1}

    (``tau`` defaults to :data:`repro.constants.TAU_WATER`.)

    ``repeat`` expands one entry into that many copies of one shared
    request object (the canonical way to script cache-hit traffic);
    every copy keeps the entry's ``tenant``, so a trace file scripts
    multi-tenant traffic.  A bad entry raises :class:`ValueError`
    naming its index.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = doc.get("requests", []) if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty list of "
                         f"request entries (or {{'requests': [...]}})")
    book = RecipeBook()
    requests: List[SolveRequest] = []
    for i, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ValueError("must be a JSON object")
            recipe = {k: v for k, v in entry.items() if k != "repeat"}
            req = recipe_request(recipe, book,
                                 str(entry.get("tenant", "default")))
            repeat = int(entry.get("repeat", 1))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from exc
        requests.extend([req] * max(1, repeat))
    return requests
