"""QoS policies and fairness metrics for multi-tenant scenarios.

Four policies ship; they split into two mechanically different families:

* **Arrival-shaping** policies change *when* accesses issue, i.e. the
  merge order itself: ``throttle`` clamps per-tenant issue rates to
  admission limits (``policy_params["limits"]``, name -> max rate) and
  ``priority`` reorders accesses within unit clock windows by descending
  :attr:`~repro.scenario.spec.TenantSpec.priority`.  Both live in
  :mod:`repro.scenario.mix` — by the time the platform sees the stream,
  the policy has already happened.
* **Platform-shaping** policies change what the shared hardware does:
  ``cache-partition`` replaces each of the platform's LRU page caches
  (:meth:`~repro.platforms.base.Platform.page_caches`) with a
  :class:`PartitionedPageCache` giving every tenant a private LRU over its
  share of the capacity — cross-tenant eviction pollution becomes
  structurally impossible.  ``shared`` is the null policy: one cache,
  contention measured, nothing enforced.

Fairness is quantified the standard way: per-tenant *slowdown* (mean
memory-stall per access in the mix over the same tenant's solo run) and
Jain's fairness index over the reciprocal slowdowns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..host.os_stack import (
    InstallPolicy,
    PageCache,
    PageCacheBatchResult,
)

#: Every policy a :class:`~repro.scenario.spec.ScenarioSpec` may name.
POLICY_NAMES = ("shared", "cache-partition", "throttle", "priority")


class PartitionedPageCache(PageCache):
    """An LRU page cache statically partitioned between tenants.

    Each tenant owns a private :class:`PageCache` over its share of the
    capacity (equal split by default; ``policy_params["shares"]`` maps
    tenant name -> fractional share).  The batched walk splits each batch
    into maximal same-tenant runs and delegates every run to that tenant's
    partition, so residency, LRU order and the eviction schedule are
    exactly what N independent caches would produce — one tenant's misses
    can never evict another tenant's pages.

    Install policies route through the partition of the tenant whose miss
    is being serviced (tracked across the delegated walk), which keeps the
    migration platforms' chunk installs working unchanged.  The scalar
    :meth:`access` path has no tenant tag to route by and raises — the
    scenario engine only drives the batched path.
    """

    def __init__(self, capacity_bytes: int, page_size: int,
                 fractions: Sequence[float]) -> None:
        super().__init__(capacity_bytes, page_size)
        if not fractions:
            raise ValueError("at least one tenant fraction required")
        if any(fraction < 0 for fraction in fractions):
            raise ValueError("tenant fractions cannot be negative")
        total = sum(fractions)
        if not total > 0:
            raise ValueError("tenant fractions must sum to a positive value")
        self.partitions: List[PageCache] = [
            PageCache(int(capacity_bytes * fraction / total), page_size)
            for fraction in fractions
        ]
        self._active: Optional[int] = None

    @classmethod
    def wrap(cls, shared: PageCache,
             fractions: Sequence[float]) -> "PartitionedPageCache":
        """Partition a platform's existing cache, preserving its geometry."""
        return cls(shared.capacity_pages * shared.page_size,
                   shared.page_size, fractions)

    # -- delegation --------------------------------------------------------------

    def __contains__(self, page_number: int) -> bool:
        return any(page_number in partition
                   for partition in self.partitions)

    def __len__(self) -> int:
        return sum(len(partition) for partition in self.partitions)

    def access(self, page_number: int, is_write: bool) -> bool:
        raise RuntimeError(
            "PartitionedPageCache has no tenant tag on the scalar path; "
            "scenario replay is batched-only")

    def _active_partition(self, operation: str) -> PageCache:
        active = self._active
        if active is None:
            raise RuntimeError(
                f"PartitionedPageCache.{operation} outside a tenant-tagged "
                f"batched walk")
        return self.partitions[active]

    def install(self, page_number: int, dirty: bool = False):
        return self._active_partition("install").install(page_number,
                                                         dirty=dirty)

    def install_run(self, first: int, count: int, dirty_first: bool):
        return self._active_partition("install_run").install_run(
            first, count, dirty_first)

    def access_batch(self, pages, writes,
                     install: Optional[InstallPolicy] = None,
                     tenants: Optional[np.ndarray] = None
                     ) -> PageCacheBatchResult:
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        writes = np.asarray(writes, dtype=bool)
        count = len(pages)
        if tenants is None:
            raise RuntimeError(
                "PartitionedPageCache requires a tenant-tagged batch")
        tenants = np.ascontiguousarray(tenants, dtype=np.int64)
        if not (len(writes) == len(tenants) == count):
            raise ValueError("batch columns must be equal-length")
        hits = np.ones(count, dtype=bool)
        miss_parts: List[np.ndarray] = []
        evictions: List[List] = []
        if count:
            change = np.flatnonzero(tenants[1:] != tenants[:-1]) + 1
            starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
            ends = np.concatenate(
                (change, np.asarray([count], dtype=np.int64)))
            for start, end in zip(starts.tolist(), ends.tolist()):
                tenant = int(tenants[start])
                self._active = tenant
                walk = self.partitions[tenant].access_batch(
                    pages[start:end], writes[start:end], install=install,
                    tenants=tenants[start:end])
                self._active = None
                hits[start:end] = walk.hits
                if len(walk.miss_indices):
                    miss_parts.append(walk.miss_indices + start)
                evictions.extend(walk.evictions)
        miss_indices = (np.concatenate(miss_parts) if miss_parts
                        else np.empty(0, dtype=np.int64))
        self.hits += count - len(miss_indices)
        self.misses += len(miss_indices)
        return PageCacheBatchResult(hits=hits, miss_indices=miss_indices,
                                    evictions=evictions)

    def enable_tenant_tracking(self, tenant_count: int) -> None:
        if tenant_count != len(self.partitions):
            raise ValueError(
                f"partition count {len(self.partitions)} does not match "
                f"tenant count {tenant_count}")
        self._track_tenants = True
        for partition in self.partitions:
            partition.enable_tenant_tracking(tenant_count)

    def tenant_statistics(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant counters summed over the partitions.

        Cross-tenant evictions are structurally zero here: every install
        happens inside the installing tenant's private partition.
        """
        merged: Dict[int, Dict[str, int]] = {}
        for partition in self.partitions:
            for tenant, counters in partition.tenant_statistics().items():
                into = merged.setdefault(
                    tenant, {key: 0 for key in counters})
                for key, value in counters.items():
                    into[key] += value
        return merged

    def statistics(self, prefix: str = "page_cache") -> Dict[str, float]:
        # hits/misses are maintained on the wrapper; writebacks happen
        # inside the partitions' install calls.
        self.dirty_writebacks = sum(partition.dirty_writebacks
                                    for partition in self.partitions)
        return super().statistics(prefix)

    def resident_pages(self) -> List[int]:
        resident: List[int] = []
        for partition in self.partitions:
            resident.extend(partition.resident_pages())
        return resident

    def dirty_pages(self) -> List[int]:
        dirty: List[int] = []
        for partition in self.partitions:
            dirty.extend(partition.dirty_pages())
        return dirty


def partition_fractions(spec) -> List[float]:
    """Per-tenant capacity shares of a ``cache-partition`` scenario.

    ``policy_params["shares"]`` maps tenant names to fractional shares
    (normalised, so any positive weights work); unnamed tenants share the
    remainder equally — with no shares at all, the split is equal.
    """
    names = spec.tenant_names()
    shares = dict(spec.policy_params.get("shares", {}))
    unknown = sorted(set(shares) - set(names))
    if unknown:
        raise ValueError(
            f"cache-partition shares name unknown tenants {unknown}; "
            f"tenants are {names}")
    return [float(shares.get(name, 1.0)) for name in names]


def install_policy(platform, spec, tenant_count: int) -> List[str]:
    """Apply *spec*'s platform-shaping policy to a live *platform*.

    Enables tenant tracking on every partitionable page cache and — for
    ``cache-partition`` — swaps each one for a :class:`PartitionedPageCache`
    honouring the spec's shares.  Returns the attribute names touched, so
    the engine knows where to harvest per-tenant counters afterwards.
    Arrival-shaping policies (throttle, priority) were already applied by
    the merge and need nothing here.
    """
    cache_names = list(platform.page_caches())
    if spec.policy == "cache-partition":
        if not cache_names:
            raise ValueError(
                f"platform {platform.name!r} has no partitionable page "
                f"cache; the cache-partition policy applies to the "
                f"DRAM-cache platforms (nvdimm-C, optane-M, "
                f"bypass-ull-buff)")
        fractions = partition_fractions(spec)
        for name in cache_names:
            shared = getattr(platform, name)
            setattr(platform, name,
                    PartitionedPageCache.wrap(shared, fractions))
    for name in cache_names:
        getattr(platform, name).enable_tenant_tracking(tenant_count)
    return cache_names


# ---------------------------------------------------------------------------
# Fairness metrics
# ---------------------------------------------------------------------------


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``, in (0, 1].

    1.0 means perfectly equal *values*; ``1/n`` means one tenant takes
    everything.  The scenario report feeds it reciprocal slowdowns, so
    "fair" means every tenant is slowed equally by the mix.
    """
    data = [float(value) for value in values]
    if not data:
        return 1.0
    square_of_sum = sum(data) ** 2
    sum_of_squares = sum(value * value for value in data)
    if sum_of_squares == 0:
        return 1.0
    return square_of_sum / (len(data) * sum_of_squares)


def tenant_slowdowns(mixed_tenants: Dict[str, Dict[str, float]],
                     solo_results: Dict[str, "object"]
                     ) -> Dict[str, float]:
    """Per-tenant slowdown: mixed mean stall per access over solo.

    *mixed_tenants* is a scenario RunResult's ``tenants`` payload;
    *solo_results* maps tenant name -> the tenant's solo
    :class:`~repro.platforms.base.RunResult`.  Tenants whose solo run had
    no memory stall report a slowdown of 1.0 (nothing to slow down).
    """
    slowdowns: Dict[str, float] = {}
    for name, solo in solo_results.items():
        mixed = mixed_tenants.get(name)
        if mixed is None:
            continue
        accesses = mixed.get("accesses", 0.0)
        mixed_stall = (mixed.get("stall_ns", 0.0) / accesses
                       if accesses else 0.0)
        solo_stall = (solo.memory_stall_ns / solo.memory_accesses
                      if solo.memory_accesses else 0.0)
        slowdowns[name] = mixed_stall / solo_stall if solo_stall else 1.0
    return slowdowns
