"""Deterministic issue-clock merge of N tenant streams into one mix.

The merge answers one question: in what order do N tenants' accesses reach
the shared platform?  Two arrival models define the order:

* ``interleave`` — weighted round-robin on access count.  Cycle *c* gives
  every unexhausted tenant a block of ``weight`` consecutive accesses, in
  tenant order.  No clocks involved; the classic "regular interleave" mix.
* ``rate`` — every tenant has an issue clock: access *i* of tenant *t*
  issues at ``phase_t + (i + 1) / rate_t``.  The mix is the globally
  time-sorted sequence (ties broken by tenant order).  Admission throttling
  clamps ``rate_t``; strict priority re-orders accesses *within* unit clock
  windows by descending priority.

Both merges are exact and deterministic — pure integer/float functions of
the spec and the tenant stream lengths, with no RNG and no dependence on
how the output is chunked.  :class:`MixedAccessStream` streams the merge:
``chunks()`` re-runs the generator and re-slices its blocks, so a mix of
file-backed tenants replays with RSS bounded by a few merge blocks and
never materialises.  The per-column running-hash
:func:`mix_content_hash` is therefore chunking-invariant, giving scenario
runs the same content-addressed identity discipline as ``trace:`` files.

A key structural fact the column fetch exploits: within any emitted merge
block, each tenant's accesses appear in position order with no gaps (both
models consume every stream strictly sequentially), so one zero-copy
window per (tenant, block) suffices — no gather.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads.trace import AccessStream, WorkloadTrace
from .spec import ScenarioSpec

#: Internal merge emission granularity.  Deliberately independent of the
#: replay chunk size: blocks only group whole round-robin cycles or
#: complete clock horizons, so the emitted *sequence* never depends on it.
MERGE_BLOCK = 65536

#: Tenant address spaces are packed at this alignment so mixed address
#: patterns stay page-aligned relative to the solo run.
TENANT_SPAN_ALIGN = 1 << 20


class TenantAccessStream(AccessStream):
    """An :class:`AccessStream` with a parallel int64 ``tenants`` column.

    Slicing preserves the tenant tags, which is what carries them through
    ``chunks()`` and into the batched replay loop (the platform reads
    ``getattr(chunk, "tenants", None)``).
    """

    __slots__ = ("tenants",)

    def __init__(self, addresses: np.ndarray, sizes: np.ndarray,
                 writes: np.ndarray, tenants: np.ndarray) -> None:
        super().__init__(addresses, sizes, writes)
        if tenants.shape != addresses.shape:
            raise ValueError("tenants column must match the stream length")
        self.tenants = tenants

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TenantAccessStream(
                self.addresses[index], self.sizes[index],
                self.writes[index], self.tenants[index])
        return super().__getitem__(index)


def _concat_tenant_blocks(
        blocks: Sequence[TenantAccessStream]) -> TenantAccessStream:
    if len(blocks) == 1:
        return blocks[0]
    return TenantAccessStream(
        np.concatenate([block.addresses for block in blocks]),
        np.concatenate([block.sizes for block in blocks]),
        np.concatenate([block.writes for block in blocks]),
        np.concatenate([block.tenants for block in blocks]))


# ---------------------------------------------------------------------------
# Merge order generators: (tenant_index, tenant_position) block pairs
# ---------------------------------------------------------------------------


def _interleave_blocks(lengths: Sequence[int], weights: Sequence[int],
                       block: int = MERGE_BLOCK
                       ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Weighted round-robin order, vectorised an era at a time.

    An *era* is a run of cycles over which the active-tenant set cannot
    change (every active tenant has that many full cycles left); its
    cycles are identical templates, so the whole era is one ``repeat`` +
    one broadcast fill per tenant.  Boundary cycles (where some tenant
    runs dry mid-cycle) fall back to a single explicit cycle.  Era capping
    by *block* only groups whole cycles differently — the concatenated
    output sequence is independent of *block*.
    """
    count = len(lengths)
    consumed = [0] * count
    while True:
        active = [t for t in range(count) if consumed[t] < lengths[t]]
        if not active:
            return
        full_cycles = min(
            (lengths[t] - consumed[t]) // weights[t] for t in active)
        cycle_width = sum(weights[t] for t in active)
        era = min(full_cycles, max(1, block // cycle_width))
        if era:
            template = np.repeat(np.asarray(active, dtype=np.int64),
                                 np.asarray([weights[t] for t in active],
                                            dtype=np.int64))
            positions = np.empty((era, cycle_width), dtype=np.int64)
            offset = 0
            for t in active:
                weight = weights[t]
                positions[:, offset:offset + weight] = (
                    consumed[t]
                    + (np.arange(era, dtype=np.int64) * weight)[:, None]
                    + np.arange(weight, dtype=np.int64)[None, :])
                consumed[t] += era * weight
                offset += weight
            yield np.tile(template, era), positions.reshape(-1)
        else:
            indices: List[np.ndarray] = []
            positions_parts: List[np.ndarray] = []
            for t in active:
                take = min(weights[t], lengths[t] - consumed[t])
                indices.append(np.full(take, t, dtype=np.int64))
                positions_parts.append(np.arange(
                    consumed[t], consumed[t] + take, dtype=np.int64))
                consumed[t] += take
            yield (np.concatenate(indices),
                   np.concatenate(positions_parts))


def _rate_blocks(lengths: Sequence[int], rates: Sequence[float],
                 phases: Sequence[float], priorities: Sequence[int],
                 block: int = MERGE_BLOCK, *,
                 priority_windows: bool = False
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Rate-scaled merge: lazy k-way sort of per-tenant issue clocks.

    Issue times are computed from each access's *global* position
    (``phase + (position + 1) / rate``), so buffering granularity cannot
    perturb them.  Each round buffers a window of future times per tenant,
    then emits everything at or before the *horizon* — the earliest
    last-buffered time among tenants with unbuffered accesses remaining —
    which is exactly the prefix whose global order is already decided.
    Ordering is ``np.lexsort`` (stable): time then tenant index; with
    *priority_windows*, unit clock windows first, then descending
    priority within the window, then time, then tenant — and only fully
    buffered windows are emitted, so a higher-priority access can never
    arrive late into an already-emitted window.
    """
    count = len(lengths)
    consumed = [0] * count
    buffered = [0] * count          # positions [consumed, buffered) held
    times: List[np.ndarray] = [np.empty(0)] * count
    step = max(1, block // max(1, count))
    while any(consumed[t] < lengths[t] for t in range(count)):
        for t in range(count):
            if buffered[t] < lengths[t]:
                grow = np.arange(buffered[t],
                                 min(buffered[t] + step, lengths[t]),
                                 dtype=np.int64)
                times[t] = np.concatenate(
                    [times[t], phases[t] + (grow + 1.0) / rates[t]])
                buffered[t] = int(grow[-1]) + 1
        open_tails = [times[t][-1] for t in range(count)
                      if buffered[t] < lengths[t] and len(times[t])]
        horizon = min(open_tails) if open_tails else np.inf
        emit_counts = []
        for t in range(count):
            if not len(times[t]):
                emit_counts.append(0)
            elif not np.isfinite(horizon):
                emit_counts.append(len(times[t]))
            elif priority_windows:
                # Only windows strictly below floor(horizon) are complete.
                emit_counts.append(int(np.searchsorted(
                    times[t], np.floor(horizon), side="left")))
            else:
                emit_counts.append(int(np.searchsorted(
                    times[t], horizon, side="right")))
        if not sum(emit_counts):
            continue  # buffers extend next round; the horizon only grows
        index_parts = []
        position_parts = []
        time_parts = []
        priority_parts = []
        for t in range(count):
            take = emit_counts[t]
            if not take:
                continue
            index_parts.append(np.full(take, t, dtype=np.int64))
            position_parts.append(np.arange(
                consumed[t], consumed[t] + take, dtype=np.int64))
            time_parts.append(times[t][:take])
            if priority_windows:
                priority_parts.append(
                    np.full(take, -priorities[t], dtype=np.int64))
            times[t] = times[t][take:]
            consumed[t] += take
        indices = np.concatenate(index_parts)
        positions = np.concatenate(position_parts)
        issue = np.concatenate(time_parts)
        if priority_windows:
            order = np.lexsort((indices, issue,
                                np.concatenate(priority_parts),
                                np.floor(issue)))
        else:
            order = np.lexsort((indices, issue))
        yield indices[order], positions[order]


def _merge_order(spec: ScenarioSpec, lengths: Sequence[int]
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The (tenant, position) emission order of *spec* over *lengths*."""
    if spec.arrival == "interleave":
        return _interleave_blocks(
            lengths, [tenant.weight for tenant in spec.tenants])
    rates = [tenant.rate for tenant in spec.tenants]
    if spec.policy == "throttle":
        limits = dict(spec.policy_params.get("limits", {}))
        names = spec.tenant_names()
        unknown = sorted(set(limits) - set(names))
        if unknown:
            raise ValueError(
                f"throttle limits name unknown tenants {unknown}; "
                f"tenants are {names}")
        rates = [min(rate, float(limits.get(name, np.inf)))
                 for rate, name in zip(rates, names)]
        if not all(rate > 0 for rate in rates):
            raise ValueError("throttle limits must be positive rates")
    return _rate_blocks(
        lengths, rates,
        [tenant.phase for tenant in spec.tenants],
        [tenant.priority for tenant in spec.tenants],
        priority_windows=spec.policy == "priority")


# ---------------------------------------------------------------------------
# The mixed stream
# ---------------------------------------------------------------------------


class MixedAccessStream(AccessStream):
    """N tenant streams merged on the issue clock, behind the
    :class:`AccessStream` interface.

    Like :class:`~repro.trace.reader.FileAccessStream`, the replay path
    (``chunks()`` / ``len()``) streams: each call re-runs the merge
    generator and re-slices its blocks into exact *chunk_size* windows, so
    a mix is never materialised and file-backed tenants keep their bounded
    RSS.  Every window is a :class:`TenantAccessStream`, carrying the
    int64 tenant tag column into the batched replay loop.  The full-column
    accessors materialise once, for the scalar compatibility path only.
    """

    __slots__ = ("_spec", "_traces", "_bases", "_lengths", "_total",
                 "_columns_cache")

    def __init__(self, spec: ScenarioSpec,
                 traces: Sequence[WorkloadTrace],
                 bases: Sequence[int]) -> None:
        # Deliberately does NOT call AccessStream.__init__: the base slots
        # stay unset and the properties below shadow them.
        if len(traces) != len(spec.tenants) or len(bases) != len(traces):
            raise ValueError("one trace and one base per tenant required")
        self._spec = spec
        self._traces = tuple(traces)
        self._bases = tuple(int(base) for base in bases)
        self._lengths = tuple(len(trace) for trace in traces)
        self._total = sum(self._lengths)
        self._columns_cache: Optional[TenantAccessStream] = None

    # -- mix identity ------------------------------------------------------------

    @property
    def spec(self) -> ScenarioSpec:
        return self._spec

    @property
    def bases(self) -> Tuple[int, ...]:
        """Per-tenant address-space base offsets."""
        return self._bases

    # -- merge streaming ---------------------------------------------------------

    def _blocks(self) -> Iterator[TenantAccessStream]:
        for indices, positions in _merge_order(self._spec, self._lengths):
            if len(indices):
                yield self._column_block(indices, positions)

    def _column_block(self, indices: np.ndarray,
                      positions: np.ndarray) -> TenantAccessStream:
        """Fetch the columns of one merge block from the tenant streams.

        Each tenant's positions within a block are one contiguous
        ascending range (streams are consumed strictly sequentially), so
        one window per tenant suffices — zero-copy for in-memory tenants,
        one bounded read for file-backed ones.
        """
        total = len(indices)
        addresses = np.empty(total, dtype=np.int64)
        sizes = np.empty(total, dtype=np.int64)
        writes = np.empty(total, dtype=bool)
        for t in np.unique(indices):
            selected = indices == t
            block_positions = positions[selected]
            low = int(block_positions[0])
            high = int(block_positions[-1]) + 1
            if high - low != len(block_positions):
                raise AssertionError(
                    "merge emitted non-contiguous tenant positions")
            window = self._traces[t].stream[low:high]
            addresses[selected] = window.addresses + self._bases[t]
            sizes[selected] = window.sizes
            writes[selected] = window.writes
        return TenantAccessStream(addresses, sizes, writes, indices)

    def chunks(self, chunk_size: int) -> Iterator[TenantAccessStream]:
        """Stream exact *chunk_size* tenant-tagged windows of the mix."""
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        buffered: List[TenantAccessStream] = []
        pending = 0
        for block in self._blocks():
            buffered.append(block)
            pending += len(block)
            while pending >= chunk_size:
                yield _take_front(buffered, chunk_size)
                pending -= chunk_size
        if pending:
            yield _take_front(buffered, pending)

    # -- sequence protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    def _columns(self) -> TenantAccessStream:
        cached = self._columns_cache
        if cached is None:
            blocks = list(self._blocks())
            if blocks:
                cached = _concat_tenant_blocks(blocks)
            else:
                empty = np.empty(0, dtype=np.int64)
                cached = TenantAccessStream(
                    empty, empty.copy(), np.empty(0, dtype=bool),
                    empty.copy())
            self._columns_cache = cached
        return cached

    @property
    def addresses(self) -> np.ndarray:  # materialises the mix
        return self._columns().addresses

    @property
    def sizes(self) -> np.ndarray:  # materialises the mix
        return self._columns().sizes

    @property
    def writes(self) -> np.ndarray:  # materialises the mix
        return self._columns().writes

    @property
    def tenants(self) -> np.ndarray:  # materialises the mix
        return self._columns().tenants

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._columns()[index]
        return self._columns()[index]

    def __iter__(self):
        for chunk in self.chunks(MERGE_BLOCK):
            yield from chunk

    def __repr__(self) -> str:
        return (f"MixedAccessStream({self._spec.name!r}, "
                f"tenants={len(self._traces)}, length={self._total})")

    @property
    def nbytes(self) -> int:
        """Logical footprint (25 B/access); resident memory is bounded by
        a few merge blocks."""
        return 25 * self._total

    @property
    def write_count(self) -> int:
        return sum(trace.stream.write_count for trace in self._traces)

    def touched_bytes(self) -> int:
        high = 0
        for trace, base in zip(self._traces, self._bases):
            if len(trace):
                high = max(high, base + trace.stream.touched_bytes())
        return high


def _take_front(buffered: List[TenantAccessStream],
                count: int) -> TenantAccessStream:
    """Pop exactly *count* accesses off the front of the block buffer."""
    taken: List[TenantAccessStream] = []
    remaining = count
    while remaining:
        head = buffered[0]
        if len(head) <= remaining:
            taken.append(head)
            buffered.pop(0)
            remaining -= len(head)
        else:
            taken.append(head[:remaining])
            buffered[0] = head[remaining:]
            remaining = 0
    return _concat_tenant_blocks(taken)


# ---------------------------------------------------------------------------
# Building a replay-ready mixed trace
# ---------------------------------------------------------------------------


def build_mixed_trace(spec: ScenarioSpec, scale) -> WorkloadTrace:
    """Build the replay-ready :class:`WorkloadTrace` of a scenario.

    Tenant traces come from the ordinary workload pipeline
    (:func:`~repro.workloads.registry.build_trace` — registry names and
    ``trace:`` files alike, honouring per-tenant dataset overrides).  A
    single-tenant scenario keeps the solo trace's metadata and a zero base
    offset, so its replay is bit-identical to the plain run; multi-tenant
    mixes pack each tenant into its own aligned address-space span and
    merge the bookkeeping (operations-per-second stays exact:
    ``accesses_per_operation`` is set so the mix's operation count equals
    the sum of the tenants' operation counts).
    """
    from ..workloads.registry import build_trace  # lazy: avoids a cycle

    traces = [build_trace(tenant.workload, scale,
                          dataset_bytes_override=tenant.dataset_bytes_override)
              for tenant in spec.tenants]
    if len(traces) == 1:
        bases = [0]
    else:
        bases = []
        next_base = 0
        for trace in traces:
            bases.append(next_base)
            span = max(trace.dataset_bytes, trace.touched_bytes())
            next_base += -(-span // TENANT_SPAN_ALIGN) * TENANT_SPAN_ALIGN
    stream = MixedAccessStream(spec, traces, bases)
    if len(traces) == 1:
        solo = traces[0]
        return WorkloadTrace(
            name=solo.name, suite=solo.suite, accesses=stream,
            dataset_bytes=solo.dataset_bytes,
            compute_instructions_per_access=(
                solo.compute_instructions_per_access),
            accesses_per_operation=solo.accesses_per_operation,
            operation_unit=solo.operation_unit,
            total_instructions=solo.total_instructions)
    compute_rates = {trace.compute_instructions_per_access
                     for trace in traces}
    if len(compute_rates) > 1:
        raise ValueError(
            "cannot mix tenants with different compute_instructions_per_"
            f"access ({sorted(compute_rates)}): the replay loop charges "
            "compute per access globally")
    units = {trace.operation_unit for trace in traces}
    total_accesses = len(stream)
    total_operations = sum(trace.operations for trace in traces)
    return WorkloadTrace(
        name=spec.name,
        suite="scenario",
        accesses=stream,
        dataset_bytes=bases[-1] + max(
            traces[-1].dataset_bytes, traces[-1].touched_bytes()),
        compute_instructions_per_access=compute_rates.pop(),
        accesses_per_operation=total_accesses / total_operations,
        operation_unit=units.pop() if len(units) == 1 else "ops",
        total_instructions=sum(trace.total_instructions
                               for trace in traces))


# ---------------------------------------------------------------------------
# Content identity and projection
# ---------------------------------------------------------------------------


def mix_content_hash(stream: AccessStream, *,
                     chunk_size: int = MERGE_BLOCK) -> str:
    """Chunking-invariant ``sha256:`` content hash of a (mixed) stream.

    Per-column running SHA-256 over little-endian addresses, sizes, write
    flags and tenant tags, folded into one digest — the four-column
    analogue of the trace store's
    :func:`~repro.trace.format.content_hash_of`.  Running updates are
    concatenation-invariant, so any chunking of the same sequence hashes
    identically.
    """
    address_sha = hashlib.sha256()
    size_sha = hashlib.sha256()
    write_sha = hashlib.sha256()
    tenant_sha = hashlib.sha256()
    for chunk in stream.chunks(chunk_size):
        address_sha.update(np.ascontiguousarray(
            chunk.addresses, dtype="<i8").tobytes())
        size_sha.update(np.ascontiguousarray(
            chunk.sizes, dtype="<i8").tobytes())
        write_sha.update(np.ascontiguousarray(
            chunk.writes, dtype=np.uint8).tobytes())
        tags = getattr(chunk, "tenants", None)
        if tags is None:
            tags = np.zeros(len(chunk), dtype=np.int64)
        tenant_sha.update(np.ascontiguousarray(
            tags, dtype="<i8").tobytes())
    combined = hashlib.sha256()
    combined.update(b"repro.mix/1\0")
    for digest in (address_sha, size_sha, write_sha, tenant_sha):
        combined.update(digest.digest())
    return f"sha256:{combined.hexdigest()}"


def tenant_projection(mixed: MixedAccessStream,
                      tenant_index: int) -> AccessStream:
    """Tenant *tenant_index*'s accesses, extracted back out of the mix.

    Base offsets are removed, so (by the merge's sequential-consumption
    property) the projection of a mixed stream equals the tenant's
    original stream exactly — the invariant the hypothesis suite pins.
    """
    base = mixed.bases[tenant_index]
    addresses: List[np.ndarray] = []
    sizes: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    for chunk in mixed.chunks(MERGE_BLOCK):
        selected = chunk.tenants == tenant_index
        if not selected.any():
            continue
        addresses.append(chunk.addresses[selected] - base)
        sizes.append(chunk.sizes[selected])
        writes.append(chunk.writes[selected])
    if not addresses:
        empty = np.empty(0, dtype=np.int64)
        return AccessStream(empty, empty.copy(), np.empty(0, dtype=bool))
    return AccessStream(np.concatenate(addresses),
                        np.concatenate(sizes),
                        np.concatenate(writes))
