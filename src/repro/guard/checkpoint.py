"""Durable checkpoint/restart for long-running solves.

A checkpoint is one file per ``kind`` (``born.ckpt``, ``epol.ckpt``)
inside a user-chosen directory:

.. code-block:: text

    REPRO-CKPT v1\\n                  ← magic + format version
    {…header JSON…}\\n                ← schema, kind, fingerprint,
                                        payload sha256 + length, meta
    <npz payload>                     ← the arrays, bit-exact float64

Three properties the solver relies on:

* **versioned** — the header carries ``schema``; a reader refuses
  versions it does not understand instead of misparsing them;
* **checksummed** — the payload's SHA-256 is stored in the header and
  verified on load, so a torn or bit-flipped file surfaces as a typed
  :class:`~repro.guard.errors.CheckpointError`, never as silent wrong
  physics;
* **atomic** — writes go to a temporary file in the same directory,
  are fsynced, and land via ``os.replace`` (plus a directory fsync),
  so a crash mid-write leaves either the old checkpoint or the new
  one, never a half-written hybrid.

Fingerprints bind a checkpoint to the run that wrote it: a SHA-256
over the molecule's arrays and the solver configuration.  ``--resume``
with a mismatched fingerprint is an error (you pointed the solver at
somebody else's checkpoint directory), not a silent recompute.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.fingerprint import molecule_fingerprint
from repro.guard.errors import CheckpointError

__all__ = ["Checkpoint", "CheckpointStore", "SCHEMA_VERSION",
           "molecule_fingerprint"]

#: Current checkpoint schema; bump on any layout change.
SCHEMA_VERSION = 1

_MAGIC = b"REPRO-CKPT v1\n"


@dataclass
class Checkpoint:
    """One loaded (and verified) checkpoint."""

    kind: str
    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    fingerprint: str = ""
    path: Optional[Path] = None


class CheckpointStore:
    """Directory of checkpoint files, one per ``kind``.

    ``fingerprint`` (optional) is verified against every load and
    stamped into every save; leave it empty to skip binding.
    """

    def __init__(self, directory: Union[str, Path],
                 fingerprint: str = "") -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, kind: str) -> Path:
        if not kind or any(c in kind for c in "/\\."):
            raise CheckpointError(f"invalid checkpoint kind {kind!r}")
        return self.directory / f"{kind}.ckpt"

    def has(self, kind: str) -> bool:
        return self.path_for(kind).exists()

    def delete(self, kind: str) -> None:
        try:
            self.path_for(kind).unlink()
        except FileNotFoundError:
            pass

    # -- write -------------------------------------------------------------

    def save(self, kind: str,
             arrays: Dict[str, np.ndarray],
             meta: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically write ``arrays`` + ``meta`` as ``<kind>.ckpt``."""
        payload_io = io.BytesIO()
        np.savez(payload_io,
                 **{k: np.asarray(v) for k, v in arrays.items()})
        payload = payload_io.getvalue()
        header = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": self.fingerprint,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "meta": meta or {},
        }
        blob = (_MAGIC
                + json.dumps(header, sort_keys=True).encode("utf-8")
                + b"\n" + payload)

        final = self.path_for(kind)
        tmp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            self._fsync_directory()
        finally:
            if tmp.exists():  # a failed write never leaves turds behind
                tmp.unlink()
        self._observe("save", kind, final)
        return final

    def _fsync_directory(self) -> None:
        try:
            dfd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # platform without directory fds (Windows)
            return
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)

    # -- read --------------------------------------------------------------

    def load(self, kind: str) -> Checkpoint:
        """Load and verify ``<kind>.ckpt``; typed errors on any damage."""
        path = self.path_for(kind)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(f"no {kind!r} checkpoint",
                                  path=str(path)) from None
        if not blob.startswith(_MAGIC):
            raise CheckpointError(
                f"bad magic in {kind!r} checkpoint", path=str(path),
                hint="the file is not a repro checkpoint (or predates "
                     "the current format)")
        rest = blob[len(_MAGIC):]
        nl = rest.find(b"\n")
        if nl < 0:
            raise CheckpointError(f"truncated {kind!r} checkpoint header",
                                  path=str(path))
        try:
            header = json.loads(rest[:nl].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable {kind!r} checkpoint header: {exc}",
                path=str(path)) from exc
        schema = int(header.get("schema", -1))
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema} "
                f"(this build reads {SCHEMA_VERSION})", path=str(path),
                hint="re-create the checkpoint with this version")
        payload = rest[nl + 1:]
        if len(payload) != int(header.get("payload_bytes", -1)):
            raise CheckpointError(
                f"{kind!r} checkpoint payload truncated "
                f"({len(payload)} of {header.get('payload_bytes')} bytes)",
                path=str(path))
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointError(
                f"{kind!r} checkpoint checksum mismatch (file corrupted)",
                path=str(path),
                hint="delete the checkpoint and re-run without --resume")
        theirs = header.get("fingerprint", "")
        if self.fingerprint and theirs and theirs != self.fingerprint:
            raise CheckpointError(
                f"{kind!r} checkpoint belongs to a different "
                f"molecule/configuration", path=str(path),
                hint="point --checkpoint at this run's own directory")
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        self._observe("load", kind, path)
        return Checkpoint(kind=kind, arrays=arrays,
                          meta=header.get("meta", {}), schema=schema,
                          fingerprint=theirs, path=path)

    def try_load(self, kind: str) -> Optional[Checkpoint]:
        """Like :meth:`load` but ``None`` when the file does not exist.
        Damage (bad checksum, wrong schema/fingerprint) still raises."""
        if not self.has(kind):
            return None
        return self.load(kind)

    # -- observability -----------------------------------------------------

    @staticmethod
    def _observe(action: str, kind: str, path: Path) -> None:
        import repro.obs as obs
        if not obs.is_enabled():
            return
        obs.instant(f"checkpoint.{action}", cat="guard", kind=kind,
                    path=str(path))
        obs.registry.counter(f"checkpoint.{action}s",
                             "checkpoint files written/read").inc()
