"""The one crash-safe state-directory protocol behind every on-disk queue.

A **spool** is a plain directory — local disk, or NFS (any shared
filesystem with atomic same-directory rename) — with one subdirectory
per state.  An item is one JSON file, and its state is the subdirectory
it sits in.  Four rules make it safe under crashes and concurrent
processes, with no lock service:

* every write is :func:`~repro.runner.artifacts.atomic_write_json`
  (same-directory temp + ``os.replace``), so no reader sees a torn file;
* a state transition is exactly one ``os.replace`` between state
  directories.  A caller that already owns the file may rewrite it in
  place first (:meth:`Spool.move` with a *payload*), so a crash at any
  instant leaves one whole file in either the source or the target
  state — never in both, never in neither;
* a rename whose source vanished lost a race to another process
  (:meth:`Spool.move` returns ``None``): that is how exactly one of any
  number of racing workers wins an exclusive claim;
* every read is :func:`~repro.runner.artifacts.read_json_object`, so a
  file that vanished mid-scan, is torn, is not UTF-8 or is not a JSON
  object is skipped, never fatal.

:class:`~repro.distrib.spool.ShardSpool` (shard manifests shared by many
workers) and :class:`~repro.serve.jobs.JobQueue` (one serve daemon's job
records) are schemas over :class:`Spool`: they name their states and
files and validate payloads, and own no I/O protocol of their own.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Tuple,
                    TypeVar)

from .artifacts import atomic_write_json, read_json_object

__all__ = ["Spool", "default_owner", "read_json_object"]

_SpoolT = TypeVar("_SpoolT", bound="Spool")


def default_owner() -> str:
    """Process identity recorded in shard claims and results and in serve
    jobs: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


class Spool:
    """State directories ``root/<state>/`` holding one JSON file per item."""

    def __init__(self, root: Path, states: Iterable[str]) -> None:
        self.root = Path(root)
        self.states = tuple(states)

    def prepare(self: _SpoolT) -> _SpoolT:
        for state in self.states:
            (self.root / state).mkdir(parents=True, exist_ok=True)
        return self

    def put(self, state: str, name: str, payload: Dict[str, Any]) -> Path:
        """Atomically (re)write one item in *state*."""
        return atomic_write_json(self.root / state / name, payload)

    def move(self, name: str, source: str, target: str,
             payload: Optional[Dict[str, Any]] = None) -> Optional[Path]:
        """Transition one item with a single rename; ``None`` if it vanished.

        With *payload*, the file is first rewritten in *source* — only for
        a caller that owns it there, since nobody else may move it
        meanwhile.  A vanished source means another process moved it
        first, so the caller lost the race.
        """
        if payload is not None:
            self.put(source, name, payload)
        path = self.root / target / name
        try:
            os.replace(self.root / source / name, path)
        except FileNotFoundError:
            return None
        return path

    def names(self, state: str, pattern: str = "*.json") -> List[str]:
        """Sorted file names in *state* matching *pattern*."""
        return sorted(path.name for path in (self.root / state).glob(pattern))

    def scan(self, state: str, pattern: str = "*.json"
             ) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """``(path, payload)`` of each readable item, lazily, in name order."""
        for name in self.names(state, pattern):
            path = self.root / state / name
            payload = read_json_object(path)
            if payload is not None:
                yield path, payload
