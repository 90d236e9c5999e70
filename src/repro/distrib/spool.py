"""Dependency-free multi-host coordination: a spool directory of shards.

There is no coordinator service.  A shard spool is a
:class:`~repro.runner.spool.Spool` — the one crash-safe state-directory
protocol, which defines atomic writes, single-rename transitions, lost
races and torn-file tolerance — with these directories:

* ``pending/shard-<plan>-NNNN.json`` — manifests written by ``repro shard
  plan`` (``<plan>`` is a short experiment-id tag, so several experiments
  can share one spool without name collisions);
* ``claims/shard-<plan>-NNNN.json`` — a manifest a worker has claimed by
  renaming it out of ``pending/`` (exactly one racing worker wins).  The
  winner then annotates its claim file with a ``claim`` record naming the
  owner, which is how ``repro shard status`` reports who is running what;
* ``results/shard-<plan>-NNNN.json`` — the shard artifact
  (``repro.shard-result/1``) the worker emits on completion, after which
  the claim file is removed;
* ``cache/`` — the default content-addressed run cache shared by every
  worker of this spool, which is what makes a killed-and-restarted worker
  resume instead of recompute;
* ``progress/shard-<plan>-NNNN.jsonl`` — per-run ``repro.events/1``
  records the shard's worker appends as each run finishes (one writer per
  shard, so appends never interleave).  ``repro shard status --watch`` and
  a coordinating :class:`~repro.exec.ExperimentHandle` tail these to watch
  remote execution run by run; the records carry the run-cache key, so the
  full result can be loaded from ``cache/`` before the shard artifact even
  exists.  Progress files are advisory — resumed shards append duplicate
  indices, and readers dedupe — the shard artifact stays the source of
  truth.

A shard whose claim file exists but whose result does not is *running* — or
orphaned by a dead worker.  Recovery is explicit and safe:
``repro shard work --spool DIR claims/shard-<plan>-NNNN.json`` re-executes
the claimed shard (resuming from the cache), or :meth:`ShardSpool.release`
returns it to ``pending/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..runner.spool import Spool, default_owner, read_json_object
from .manifest import (
    SHARD_RESULT_SCHEMA,
    experiment_tag,
    validate_manifest,
)

def shard_file_name(experiment_id: str, shard_index: int) -> str:
    """Shard file name, unique *across plans* sharing one spool.

    The experiment-id tag keeps a reused spool safe: planning a second
    experiment into the same directory can never overwrite (or be confused
    with) the first one's manifests or results.
    """
    return f"shard-{experiment_tag(experiment_id)}-{shard_index:04d}.json"


def _shard_pattern(experiment_id: Optional[str]) -> str:
    """Glob of every shard file, or of one plan's shard files."""
    if experiment_id is None:
        return "shard-*.json"
    return f"shard-{experiment_tag(experiment_id)}-*.json"


def shard_label(payload: Dict[str, Any]) -> str:
    """Human-readable shard identity used by ``repro shard status``.

    The experiment tag is part of the label because experiment *names*
    collide across plans (every ad-hoc plan is called ``custom``); without
    it, two same-name plans sharing a spool would alias in status output.
    """
    return (f"{payload['experiment']}#"
            f"{experiment_tag(payload['experiment_id'])}"
            f":{payload['shard_index']:04d}")


@dataclass(frozen=True)
class ClaimedShard:
    """One shard a worker owns: the claim file path and its manifest."""

    path: Path
    payload: Dict[str, Any]

    @property
    def shard_index(self) -> int:
        return self.payload["shard_index"]


@dataclass
class SpoolStatus:
    """Snapshot of a spool directory for ``repro shard status``.

    Shards are keyed by their :func:`shard_label` (``experiment:index``),
    so a spool holding several plans reports each shard unambiguously.
    """

    pending: List[str] = field(default_factory=list)
    running: Dict[str, str] = field(default_factory=dict)
    done: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.pending) + len(self.running) + len(self.done)

    @property
    def complete(self) -> bool:
        return not self.pending and not self.running and bool(self.done)


class ShardSpool(Spool):
    """One spool directory; every method is safe under concurrent workers."""

    def __init__(self, root: Path) -> None:
        super().__init__(root, ("pending", "claims", "results", "cache",
                                "progress"))
        self.pending_dir = self.root / "pending"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.cache_dir = self.root / "cache"
        self.progress_dir = self.root / "progress"

    def progress_path(self, shard_name: str) -> Path:
        """Per-run progress record file for one shard file name."""
        return self.progress_dir / (Path(shard_name).stem + ".jsonl")

    # -- planning ------------------------------------------------------------------

    def add_manifests(self, payloads: List[Dict[str, Any]]) -> List[Path]:
        """Write manifests into ``pending/`` (atomically, one per shard).

        Shards of the same plan that are already claimed or finished are
        skipped, so re-planning into a live or partially-done spool resumes
        instead of re-queueing work some worker already owns.  (The check
        and the write are not one atomic step — a shard claimed in between
        can be re-queued and executed twice.  That costs a shard of
        compute in a rare race, never correctness: execution is
        deterministic, results are content-equal, and the last atomic
        rename wins.  Closing the window entirely would need a lock
        service, which this tier deliberately does not have.)
        """
        self.prepare()
        paths = []
        for payload in payloads:
            validate_manifest(payload)
            name = shard_file_name(payload["experiment_id"],
                                   payload["shard_index"])
            if (self.claims_dir / name).exists() or \
                    (self.results_dir / name).exists():
                continue
            paths.append(self.put("pending", name, payload))
        return paths

    # -- claiming ------------------------------------------------------------------

    def claim_next(self, owner: Optional[str] = None,
                   experiment_id: Optional[str] = None
                   ) -> Optional[ClaimedShard]:
        """Atomically claim one pending shard; ``None`` when none are left.

        Any number of workers may call this concurrently: the rename from
        ``pending/`` into ``claims/`` succeeds for exactly one caller, and
        the ones that lost the race simply try the next pending shard.

        With *experiment_id*, shards of other plans sharing the spool are
        left alone — selection happens on the file name's experiment tag,
        so a foreign manifest is never even transiently moved out of
        ``pending/`` (which could make that plan's own workers see an
        empty spool and stop early).
        """
        owner = owner or default_owner()
        for path, payload in self.scan("pending",
                                       _shard_pattern(experiment_id)):
            # Validate BEFORE claiming: a manifest that fails to parse
            # (foreign schema version, hand-edited, missing or wrong-typed
            # fields) stays in pending/ where the operator can see it,
            # instead of becoming an orphaned claim that no worker owns
            # and every merge waits on.
            try:
                validate_manifest(payload)
            except (ValueError, KeyError, TypeError):
                continue
            if experiment_id is not None and \
                    payload["experiment_id"] != experiment_id:
                continue  # tag collision: another plan's shard
            target = self.move(path.name, "pending", "claims")
            if target is None:
                continue  # another worker won this shard
            # The rename made us the sole owner (and a plan's manifest
            # bytes never change once written), so annotating the claim
            # file in place is race-free.
            payload["claim"] = {"owner": owner, "claimed_unix": time.time()}
            self.put("claims", path.name, payload)
            return ClaimedShard(path=target, payload=payload)
        return None

    def release(self, claim: ClaimedShard) -> Path:
        """Return a claimed shard to ``pending/`` (e.g. after a failure).

        The hand-back is the single rename claiming uses, in reverse —
        never a copy-then-delete, whose window would let a racing
        ``claim_next`` claim the copy and then lose its claim file to the
        delete.  The claim annotation is stripped in place first (safe: the
        releasing worker still owns the file while it sits in ``claims/``).
        """
        payload = dict(claim.payload)
        payload.pop("claim", None)
        return self.move(claim.path.name, "claims", "pending", payload)

    def finish(self, claim: ClaimedShard,
               result_payload: Dict[str, Any]) -> Path:
        """Publish the shard artifact and retire the claim."""
        path = self.put("results", claim.path.name, result_payload)
        claim.path.unlink(missing_ok=True)
        return path

    # -- inspection ----------------------------------------------------------------

    def outstanding(self, experiment_id: str) -> List[str]:
        """This plan's shard files still pending or claimed without a
        published result (empty, i.e. falsy, when nothing is in flight).

        A claim whose result file already exists does not count: it is a
        finished shard whose claim cleanup raced or a stale duplicate, and
        waiting on it would block forever.  Once this empties, every shard
        has either published a result or vanished entirely (a lost claim)
        — the coordinator's missing-shard check distinguishes the two.
        """
        pattern = _shard_pattern(experiment_id)
        return sorted((set(self.names("pending", pattern)) |
                       set(self.names("claims", pattern))) -
                      set(self.names("results", pattern)))

    def result_paths(self) -> List[Path]:
        return sorted(self.results_dir.glob("shard-*.json"))

    def load_results(self, experiment_id: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        """Read the shard artifacts in ``results/``.

        With *experiment_id*, artifacts of other plans sharing the spool
        are never even opened (filename-tag filter), so a stray foreign or
        malformed result cannot break an unrelated plan's merge.  A
        selected result that is unreadable or of the wrong schema raises
        — a merge must fail loudly — and the coordinator still
        re-validates provenance.
        """
        payloads = []
        for name in self.names("results", _shard_pattern(experiment_id)):
            path = self.results_dir / name
            payload = read_json_object(path) or {}
            if payload.get("schema") != SHARD_RESULT_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported shard result schema "
                    f"{payload.get('schema')!r} "
                    f"(expected {SHARD_RESULT_SCHEMA})")
            if experiment_id is not None and \
                    payload.get("experiment_id") != experiment_id:
                continue  # tag collision with another plan
            payloads.append(payload)
        return payloads

    def status(self) -> SpoolStatus:
        status = SpoolStatus()
        for state in ("pending", "claims", "results"):
            for name in self.names(state, "shard-*.json"):
                # Same exemption as outstanding(): a pending or claimed
                # shard whose result exists is finished (raced cleanup, or
                # released and recovered) — counting it would hold `shard
                # status` at exit 3 forever.
                if state != "results" and (self.results_dir / name).exists():
                    continue
                path = self.root / state / name
                payload = read_json_object(path)
                if payload is None:
                    if not path.exists():
                        continue  # moved to its next state mid-scan
                    # Malformed: still report it, under its file name,
                    # rather than crash the one command an operator uses
                    # to inspect the spool.
                    payload = {}
                try:
                    label = shard_label(payload)
                except (KeyError, TypeError, ValueError):
                    label = path.stem
                if state == "pending":
                    status.pending.append(label)
                elif state == "claims":
                    claim = payload.get("claim")
                    status.running[label] = (
                        claim.get("owner", "unknown")
                        if isinstance(claim, dict) else "unknown")
                else:
                    status.done.append(label)
        return status
