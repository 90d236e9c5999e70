"""Central configuration dataclasses for the HAMS reproduction.

The defaults mirror Table II of the paper (gem5 specification) plus the
device parameters quoted throughout Sections II, III and V:

* quad-core 2 GHz CPU, 64 KB L1I / 64 KB L1D / 2 MB L2,
* 8 GB DDR4 NVDIMM with 128 KB MoS pages,
* 800 GB ULL-Flash with a 512 MB internal DRAM buffer,
* Z-NAND latencies of 3 us read / 100 us program,
* PCIe 3.0 x4 for the loosely-coupled (baseline) HAMS,
* DDR4-2133 with ~20 GB/s per channel for the tightly-coupled HAMS.

Every subsystem receives its configuration explicitly so experiments can
sweep a single knob (page size, footprint, queue depth, ...) without
touching module-level globals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .units import GB, KB, MB, gb_per_s, mb_per_s, us


# ---------------------------------------------------------------------------
# Flash / SSD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashTiming:
    """Raw NAND array timing for a single die operation."""

    read_ns: float
    program_ns: float
    erase_ns: float

    @staticmethod
    def znand() -> "FlashTiming":
        """Z-NAND (SLC 3D V-NAND): 3 us read, 100 us program."""
        return FlashTiming(read_ns=us(3), program_ns=us(100), erase_ns=us(1000))

    @staticmethod
    def vnand_tlc() -> "FlashTiming":
        """Conventional V-NAND TLC: 15x read / 7x program slower than Z-NAND."""
        return FlashTiming(read_ns=us(45), program_ns=us(700), erase_ns=us(3500))


@dataclass(frozen=True)
class FlashGeometry:
    """Physical organisation of the flash complex.

    The capacity exposed to the host is
    ``channels * packages * dies * planes * blocks * pages * page_size``
    scaled down by the over-provisioning factor.
    """

    channels: int = 8
    packages_per_channel: int = 4
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256
    pages_per_block: int = 256
    page_size: int = KB(4)
    overprovision: float = 0.07

    @property
    def dies_total(self) -> int:
        return self.channels * self.packages_per_channel * self.dies_per_package

    @property
    def planes_total(self) -> int:
        return self.dies_total * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def raw_capacity_bytes(self) -> int:
        return self.planes_total * self.pages_per_plane * self.page_size

    @property
    def usable_capacity_bytes(self) -> int:
        return int(self.raw_capacity_bytes * (1.0 - self.overprovision))

    @property
    def physical_pages(self) -> int:
        return self.planes_total * self.pages_per_plane

    @property
    def logical_pages(self) -> int:
        return self.usable_capacity_bytes // self.page_size


@dataclass(frozen=True)
class SSDConfig:
    """Configuration for one simulated SSD device.

    ``split_channels`` reproduces the ULL-Flash datapath optimisation that
    splits one 4 KB host request into two half-page operations issued to two
    channels simultaneously, halving the on-chip DMA time (Section II-C).
    """

    name: str = "ull-flash"
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming.znand)
    split_channels: bool = True
    channel_bw_bytes_per_ns: float = mb_per_s(800)
    dram_buffer_bytes: int = MB(512)
    dram_buffer_hit_ns: float = 500.0
    dram_buffer_enabled: bool = True
    firmware_latency_ns: float = 800.0
    max_outstanding: int = 64
    # Fraction of the internal DRAM buffer reserved for the FTL mapping
    # table rather than data caching (FlatFlash discussion, Section VII).
    mapping_table_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_outstanding < 1:
            raise ValueError(f"max_outstanding must be at least 1, got "
                             f"{self.max_outstanding!r}")
        if self.dram_buffer_bytes < 0:
            raise ValueError(f"dram_buffer_bytes cannot be negative, got "
                             f"{self.dram_buffer_bytes!r}")
        for name, label in (("firmware_latency_ns", "firmware latency"),
                            ("dram_buffer_hit_ns", "buffer hit latency")):
            latency = getattr(self, name)
            if not (math.isfinite(latency) and latency >= 0):
                raise ValueError(f"{label} cannot be negative or non-finite "
                                 f"({name}={latency!r})")

    @staticmethod
    def ull_flash(capacity_bytes: int = GB(800)) -> "SSDConfig":
        """The 800 GB Z-SSD prototype used throughout the paper."""
        geometry = _geometry_for_capacity(capacity_bytes, channels=8)
        return SSDConfig(name="ull-flash", geometry=geometry,
                         timing=FlashTiming.znand())

    @staticmethod
    def nvme_ssd(capacity_bytes: int = GB(400)) -> "SSDConfig":
        """A conventional high-performance NVMe SSD (Intel 750-class)."""
        geometry = _geometry_for_capacity(capacity_bytes, channels=8)
        return SSDConfig(name="nvme-ssd", geometry=geometry,
                         timing=FlashTiming.vnand_tlc(),
                         split_channels=False,
                         firmware_latency_ns=3000.0)

    @staticmethod
    def sata_ssd(capacity_bytes: int = GB(256)) -> "SSDConfig":
        """A SATA SSD (Intel 535-class); link bandwidth capped at 550 MB/s."""
        geometry = _geometry_for_capacity(capacity_bytes, channels=4)
        return SSDConfig(name="sata-ssd", geometry=geometry,
                         timing=FlashTiming.vnand_tlc(),
                         split_channels=False,
                         channel_bw_bytes_per_ns=mb_per_s(400),
                         firmware_latency_ns=8000.0,
                         max_outstanding=32)


def _geometry_for_capacity(capacity_bytes: int, channels: int) -> FlashGeometry:
    """Derive a flash geometry whose usable capacity covers *capacity_bytes*.

    Channel/die/plane counts are fixed by the device class; the block count
    per plane is solved so that the raw capacity (plus over-provisioning)
    reaches the requested size.
    """
    base = FlashGeometry(channels=channels)
    pages_needed = capacity_bytes / (1.0 - base.overprovision) / base.page_size
    pages_per_plane = pages_needed / base.planes_total
    blocks_per_plane = max(1, int(pages_per_plane / base.pages_per_block) + 1)
    return replace(base, blocks_per_plane=blocks_per_plane)


# ---------------------------------------------------------------------------
# Interconnect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PCIeConfig:
    """PCIe link used between the MCH root complex and an NVMe SSD."""

    lanes: int = 4
    per_lane_bw_bytes_per_ns: float = gb_per_s(1.0)
    # Transaction-layer packet framing cost (encapsulation + header parsing).
    packet_overhead_ns: float = 250.0
    max_payload_bytes: int = 256

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        return self.lanes * self.per_lane_bw_bytes_per_ns


@dataclass(frozen=True)
class SATAConfig:
    """SATA 3.0 link (for the SATA SSD comparison point in Figure 6)."""

    bandwidth_bytes_per_ns: float = mb_per_s(550)
    command_overhead_ns: float = 5000.0


@dataclass(frozen=True)
class DDRConfig:
    """DDR4 channel timing (DDR4-2133 RDIMM, Table II / Section V)."""

    channel_bw_bytes_per_ns: float = gb_per_s(20.0)
    tCL_ns: float = 14.0
    tRCD_ns: float = 14.0
    tRP_ns: float = 14.0
    tBURST_ns: float = 3.75
    line_size: int = 64
    channels: int = 2
    ranks: int = 2
    # Extra cycles the advanced-HAMS register interface spends writing a 64 B
    # NVMe command into the data-buffer registers (8-beat burst, Section V-A).
    register_command_ns: float = 30.0
    lock_register_ns: float = 5.0


# ---------------------------------------------------------------------------
# Memory devices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NVDIMMConfig:
    """NVDIMM-N module: DRAM-speed access plus supercap-backed flash backup."""

    capacity_bytes: int = GB(8)
    ddr: DDRConfig = field(default_factory=DDRConfig)
    pinned_region_bytes: int = MB(512)
    backup_bandwidth_bytes_per_ns: float = mb_per_s(400)
    restore_bandwidth_bytes_per_ns: float = mb_per_s(800)

    @property
    def cacheable_bytes(self) -> int:
        """Capacity available to the MoS cache after the pinned region."""
        return self.capacity_bytes - self.pinned_region_bytes


@dataclass(frozen=True)
class OptaneConfig:
    """Optane DC PMM analytical model (numbers from [29], [66]).

    ``internal_block_bytes`` is the 256 B access granularity that wastes
    bandwidth for fine-grained requests; the XPBuffer is a small internal
    write-combining buffer.  The bandwidths are *effective* per-DIMM values
    under mixed access streams (well below the datasheet peak), and
    ``block_overhead_ns`` is the internal serialisation cost each additional
    256 B block adds — together these reproduce the paper's observation that
    the aggregated Optane throughput is ~4.5x lower than ULL-Flash and that
    NVDIMM-N beats it by a wide margin on write-intensive workloads.
    """

    capacity_bytes: int = GB(512)
    read_latency_ns: float = 400.0
    write_latency_ns: float = 94.0
    internal_block_bytes: int = 256
    block_overhead_ns: float = 150.0
    # App Direct persistence requires cache-line writeback + fencing on every
    # store to the media, which Memory mode avoids.
    persist_write_overhead_ns: float = 1200.0
    xpbuffer_bytes: int = KB(16)
    read_bw_bytes_per_ns: float = gb_per_s(2.2)
    write_bw_bytes_per_ns: float = gb_per_s(0.8)


# ---------------------------------------------------------------------------
# Host (CPU, caches, OS)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPUConfig:
    """Simplified in-order core model (one core of Table II's ARM v8 @ 2 GHz)."""

    frequency_ghz: float = 2.0
    base_cpi: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(f"frequency_ghz must be finite and positive, "
                             f"got {self.frequency_ghz!r}")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class CacheConfig:
    """Two-level cache hierarchy (64 KB L1I / 64 KB L1D / 2 MB L2)."""

    l1_size_bytes: int = KB(64)
    l1_latency_ns: float = 1.0
    l2_size_bytes: int = MB(2)
    l2_latency_ns: float = 5.0
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.line_size <= 0:
            raise ValueError("line_size must be positive")
        if min(self.l1_size_bytes, self.l2_size_bytes) < self.line_size:
            raise ValueError("each cache level must hold at least one line")
        for name in ("l1_latency_ns", "l2_latency_ns"):
            latency = getattr(self, name)
            if not (math.isfinite(latency) and latency >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class OSStackConfig:
    """Latency model of the Linux storage stack traversed by the MMF path.

    The paper measures 15-20 us of software time per page fault (Section
    III-B): page-fault handling + context switches + file system + blk-mq +
    NVMe driver.  The split below follows the Figure 7a decomposition.
    """

    page_fault_ns: float = us(4.0)
    context_switch_ns: float = us(5.0)
    filesystem_ns: float = us(3.0)
    blk_mq_ns: float = us(2.0)
    nvme_driver_ns: float = us(1.5)
    interrupt_ns: float = us(1.0)
    copy_bandwidth_bytes_per_ns: float = gb_per_s(10.0)
    readahead_pages: int = 8

    def __post_init__(self) -> None:
        for name in ("page_fault_ns", "context_switch_ns", "filesystem_ns",
                     "blk_mq_ns", "nvme_driver_ns", "interrupt_ns"):
            latency = getattr(self, name)
            if not (math.isfinite(latency) and latency >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        bandwidth = self.copy_bandwidth_bytes_per_ns
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(
                "copy_bandwidth_bytes_per_ns must be finite and positive")
        if self.readahead_pages < 1:
            raise ValueError("readahead_pages must be at least 1")

    @property
    def mmap_overhead_ns(self) -> float:
        """Software time charged to the mmap/page-fault portion."""
        return self.page_fault_ns + self.context_switch_ns

    @property
    def io_stack_ns(self) -> float:
        """Software time charged to the file system / block layer / driver."""
        return (self.filesystem_ns + self.blk_mq_ns + self.nvme_driver_ns
                + self.interrupt_ns)


# ---------------------------------------------------------------------------
# NVMe protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NVMeConfig:
    """NVMe protocol timing constants (Section II-C)."""

    doorbell_ns: float = 100.0
    msi_ns: float = 200.0
    controller_processing_ns: float = 500.0


# ---------------------------------------------------------------------------
# HAMS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HAMSConfig:
    """Configuration of the HAMS controller inside the MCH.

    ``integration`` selects the loosely-coupled baseline (``"loose"``:
    NVDIMM on DDR4, ULL-Flash behind PCIe/NVMe) or the aggressive
    integration (``"tight"``: ULL-Flash on the DDR4 bus behind the
    register-based interface, SSD-internal DRAM removed).

    ``mode`` selects ``"persist"`` (FUA-like, at most one outstanding flush)
    or ``"extend"`` (full NVMe parallelism + journal-tag persistency).
    """

    integration: str = "loose"       # "loose" | "tight"
    mode: str = "extend"             # "persist" | "extend"
    mos_page_bytes: int = KB(128)
    tag_check_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.integration not in ("loose", "tight"):
            raise ValueError(f"unknown integration {self.integration!r}")
        if self.mode not in ("persist", "extend"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mos_page_bytes <= 0 or self.mos_page_bytes % KB(4) != 0:
            raise ValueError("mos_page_bytes must be a positive multiple of 4 KB")

    @property
    def is_persist(self) -> bool:
        return self.mode == "persist"

    @property
    def is_tight(self) -> bool:
        return self.integration == "tight"


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyConfig:
    """Per-component power model (McPAT / MICRON calculator style).

    The absolute numbers are representative datasheet values; Figure 19 only
    depends on the relative contributions (CPU + system memory dominate the
    mmap baseline, SSD-internal DRAM adds ~17 % over the flash complex, ...).
    """

    cpu_active_w: float = 12.0
    cpu_idle_w: float = 3.0
    dram_active_w_per_gb: float = 0.375
    dram_idle_w_per_gb: float = 0.10
    ssd_internal_dram_active_w: float = 1.4
    ssd_internal_dram_idle_w: float = 0.45
    znand_read_nj_per_page: float = 3_000.0
    znand_program_nj_per_page: float = 15_000.0
    znand_idle_w: float = 1.2
    pcie_pj_per_byte: float = 15.0
    ddr_pj_per_byte: float = 6.0


# ---------------------------------------------------------------------------
# Whole-system configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundle handed to platforms."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    caches: CacheConfig = field(default_factory=CacheConfig)
    os_stack: OSStackConfig = field(default_factory=OSStackConfig)
    nvdimm: NVDIMMConfig = field(default_factory=NVDIMMConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig.ull_flash)
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    sata: SATAConfig = field(default_factory=SATAConfig)
    nvme: NVMeConfig = field(default_factory=NVMeConfig)
    hams: HAMSConfig = field(default_factory=HAMSConfig)
    optane: OptaneConfig = field(default_factory=OptaneConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def with_hams(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified HAMS parameters."""
        return replace(self, hams=replace(self.hams, **kwargs))

    def with_nvdimm(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified NVDIMM parameters."""
        return replace(self, nvdimm=replace(self.nvdimm, **kwargs))

    def with_ssd(self, ssd: SSDConfig) -> "SystemConfig":
        """Return a copy with a different SSD device."""
        return replace(self, ssd=ssd)


def default_config() -> SystemConfig:
    """The Table II configuration used by every paper experiment."""
    return SystemConfig()
