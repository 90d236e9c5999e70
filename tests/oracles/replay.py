"""The per-access replay loop and one per-access service function per platform.

Each service function serves one off-chip access of its platform at
*at_ns* and returns ``(latency_ns, os_ns, storage_ns)``, classified as
``MemoryServiceBatch`` classifies its columns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.platforms.base import Platform, RunResult
from repro.platforms.bypass import BypassPlatform
from repro.platforms.flatflash import FlatFlashPlatform
from repro.platforms.hams_platform import HAMSPlatform
from repro.platforms.mmap_platform import MmapPlatform
from repro.platforms.nvdimm_c import NvdimmCPlatform
from repro.platforms.optane import OptanePlatform
from repro.platforms.oracle import OraclePlatform
from repro.units import KB
from repro.workloads.trace import WorkloadTrace

from .hams import hams_access

#: The 4 KB page every page-cached platform and the bypasses work in.
PAGE = KB(4)

Service = Tuple[float, float, float]


def run_scalar(platform: Platform, trace: WorkloadTrace) -> RunResult:
    """Replay *trace* on *platform* one access at a time."""
    platform.prepare(trace)
    now = 0.0
    compute_per_access = trace.compute_instructions_per_access
    cache_line = platform.config.caches.line_size
    cpu = platform.cpu
    caches = platform.caches
    offchip = 0
    stream = trace.stream

    for address, size_bytes, is_write in zip(stream.addresses.tolist(),
                                             stream.sizes.tolist(),
                                             stream.writes.tolist()):
        # Compute phase between memory references.
        compute_instructions = int(compute_per_access)
        if compute_instructions:
            now += cpu.execute_compute(compute_instructions)

        # Page-granular references (the mmap microbenchmark) stream
        # through the caches without reuse, so they are treated as
        # off-chip accesses directly; fine-grained references filter
        # through L1/L2 first.
        if size_bytes <= cache_line:
            cache_result = caches.access(address, is_write)
            if not cache_result.is_miss:
                now += cpu.execute_memory(cache_result.latency_ns)
                continue
            on_chip_ns = cache_result.latency_ns
        else:
            caches.record_bypass()
            on_chip_ns = platform.config.caches.l2_latency_ns

        offchip += 1
        latency_ns, os_ns, storage_ns = service_access(
            platform, address, size_bytes, is_write, now)
        stall_ns = on_chip_ns + latency_ns
        cpu.execute_memory(stall_ns)
        cpu.charge_os(os_ns)
        cpu.charge_storage(storage_ns)
        now += stall_ns + os_ns + storage_ns

    return platform._build_result(trace, now, offchip)


def service_access(platform: Platform, address: int, size_bytes: int,
                   is_write: bool, at_ns: float) -> Service:
    """Serve one off-chip access with *platform*'s per-access function."""
    for cls in type(platform).__mro__:
        service = SERVICES.get(cls)
        if service is not None:
            break
    else:
        raise TypeError(f"no per-access reference for {type(platform)!r}")
    latency_ns, os_ns, storage_ns = service(platform, address, size_bytes,
                                            is_write, at_ns)
    if latency_ns < 0 or os_ns < 0 or storage_ns < 0:
        raise ValueError("latencies cannot be negative")
    return latency_ns, os_ns, storage_ns


def serve_oracle(platform: OraclePlatform, address: int, size_bytes: int,
                 is_write: bool, at_ns: float) -> Service:
    result = platform.nvdimm.access(size_bytes, is_write)
    platform._nvdimm_busy_ns += result.latency_ns
    return result.latency_ns, 0.0, 0.0


def serve_bypass(platform: BypassPlatform, address: int, size_bytes: int,
                 is_write: bool, at_ns: float) -> Service:
    if platform.strategy == "nvdimm":
        result = platform.nvdimm.access(size_bytes, is_write)
        platform._nvdimm_busy_ns += result.latency_ns
        return result.latency_ns, 0.0, 0.0

    page = address // PAGE
    if (platform.strategy == "ull-buff"
            and platform.page_buffer.access(page, is_write)):
        result = platform.nvdimm.access(min(size_bytes, PAGE), is_write)
        platform._nvdimm_busy_ns += result.latency_ns
        return result.latency_ns, 0.0, 0.0

    with platform.ssd.walk() as step:
        latency = platform._flash_access(page, is_write, at_ns, step)
    if platform.strategy == "ull-buff":
        platform.page_buffer.install(page, dirty=is_write)
    return latency, 0.0, 0.0


def serve_optane(platform: OptanePlatform, address: int, size_bytes: int,
                 is_write: bool, at_ns: float) -> Service:
    optane = platform.optane
    if not platform.dram_cache_enabled:
        access = (optane.write(size_bytes) if is_write
                  else optane.read(size_bytes))
        latency = access.latency_ns
        if is_write:
            # App Direct persistence: clwb + sfence on the store path.
            latency += platform.config.optane.persist_write_overhead_ns
        return latency, 0.0, 0.0

    page = address // PAGE
    if platform.dram_cache.access(page, is_write):
        result = platform.dram.access(size_bytes, is_write)
        platform._dram_busy_ns += result.latency_ns
        return result.latency_ns, 0.0, 0.0

    # Memory-mode miss: fetch the 4 KB block from the media into DRAM,
    # write back the dirty victim if needed, then serve from DRAM.
    latency = optane.read(PAGE).latency_ns
    if platform.dram_cache.install(page, dirty=is_write) is not None:
        latency += optane.write(PAGE).latency_ns
    served = platform.dram.access(size_bytes, is_write)
    platform._dram_busy_ns += served.latency_ns
    latency += served.latency_ns
    return latency, 0.0, 0.0


def serve_nvdimm_c(platform: NvdimmCPlatform, address: int, size_bytes: int,
                   is_write: bool, at_ns: float) -> Service:
    page = address // PAGE
    if platform.dram_cache.access(page, is_write):
        result = platform.dram.access(size_bytes, is_write)
        platform._dram_busy_ns += result.latency_ns
        return result.latency_ns, 0.0, 0.0

    # Miss: a whole migration chunk moves from flash to DRAM, but only
    # during refresh windows — the flash read is cheap, the wait is not.
    # The chunk installs page by page; only its head takes the access's
    # dirtiness.
    platform.migrations += 1
    chunk = platform._pages_per_migration
    first = (page // chunk) * chunk
    victims = []
    for offset in range(chunk):
        victim = platform.dram_cache.install(first + offset,
                                             dirty=is_write and offset == 0)
        if victim is not None:
            victims.append(victim)
    window = platform.migration_latency_ns
    with platform.ssd.walk() as step:
        finish = step((False, first * PAGE,
                       platform.migration_granularity_bytes, at_ns, False))
        migration_ns = max(window, finish - at_ns)
        for victim in victims:
            # Each dirty victim's writeback issues once the migration so
            # far is over and mostly overlaps it: a tenth of a window shows.
            step((True, victim * PAGE, PAGE, at_ns + migration_ns, False))
            migration_ns += window * 0.1
    served = platform.dram.access(size_bytes, is_write)
    platform._dram_busy_ns += served.latency_ns
    return migration_ns + served.latency_ns, 0.0, 0.0


def serve_mmap(platform: MmapPlatform, address: int, size_bytes: int,
               is_write: bool, at_ns: float) -> Service:
    page = address // PAGE
    hit = platform.page_cache.access(page, is_write)
    if not hit:
        readahead, victims = platform._install_fault(page, is_write)
        with platform.ssd.walk() as step:
            os_ns, storage_ns = platform._fault_io(page, readahead, victims,
                                                   at_ns, step)
    # The reference completes from DRAM (after the fault, on a miss).
    dram = platform.nvdimm.access(min(size_bytes, PAGE), is_write)
    platform._nvdimm_busy_ns += dram.latency_ns
    if hit:
        return dram.latency_ns, 0.0, 0.0
    return dram.latency_ns, os_ns, storage_ns


def serve_flatflash(platform: FlatFlashPlatform, address: int,
                    size_bytes: int, is_write: bool, at_ns: float) -> Service:
    page = address // PAGE
    promoted = [False]
    if platform.host_cache is not None:
        if platform.host_cache.access(page, is_write):
            result = platform.dram.access(size_bytes, is_write)
            platform._dram_busy_ns += result.latency_ns
            return result.latency_ns, 0.0, 0.0
        promoted = []
        platform._promotion_policy(promoted)(page, is_write)
    device_hit = platform.device_cache.access(page, is_write)
    evictions: List[List[int]] = []
    if not device_hit:
        victim = platform.device_cache.install(page, dirty=is_write)
        evictions.append([] if victim is None else [victim])
    latency = platform._mmio_replay([page], [size_bytes], [is_write],
                                    [device_hit], evictions, promoted,
                                    at_ns, None, [0], [0.0])
    return latency[0], 0.0, 0.0


def serve_hams(platform: HAMSPlatform, address: int, size_bytes: int,
               is_write: bool, at_ns: float) -> Service:
    result = hams_access(platform.controller, address, size_bytes, is_write,
                         at_ns)
    return result.latency_ns, 0.0, 0.0


#: The per-access service function of each platform class.
SERVICES: Dict[type, Callable[..., Service]] = {
    OraclePlatform: serve_oracle,
    BypassPlatform: serve_bypass,
    OptanePlatform: serve_optane,
    NvdimmCPlatform: serve_nvdimm_c,
    MmapPlatform: serve_mmap,
    FlatFlashPlatform: serve_flatflash,
    HAMSPlatform: serve_hams,
}
