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
touching module-level globals.  Each field declares its valid values once,
as a :class:`Bound` in its ``field(metadata=...)``; constructing a section
(``replace`` included) validates it, so a bad value fails before any run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Optional, Tuple

from .units import GB, KB, MB, gb_per_s, mb_per_s, us


@dataclass(frozen=True)
class Bound:
    """The valid values of one config field: a finite ``float`` or an ``int``
    of at least ``minimum`` (above it if ``strict``) and below ``maximum`` if
    set; a ``bool``; a ``str`` (one of ``choices`` if set); or a section."""

    kind: type
    minimum: float = 0
    strict: bool = False
    maximum: Optional[float] = None
    choices: Tuple[str, ...] = ()

    def admits(self, value) -> bool:
        kind = {float: Real, int: Integral}.get(self.kind, self.kind)
        if not isinstance(value, kind) or (isinstance(value, bool)
                                           and kind is not bool):
            return False
        if kind not in (Real, Integral):
            return not self.choices or value in self.choices
        return (abs(value) <= sys.float_info.max  # False for NaN and inf
                and (value > self.minimum if self.strict
                     else value >= self.minimum)
                and (self.maximum is None or value < self.maximum))

    def describe(self) -> str:
        if self.kind not in (float, int):
            return (f"one of {self.choices}" if self.choices
                    else f"a {self.kind.__name__}")
        text = (f"{'a finite number' if self.kind is float else 'an integer'}"
                f" {'>' if self.strict else '>='} {self.minimum}")
        return text if self.maximum is None else f"{text} and < {self.maximum}"


def bounded(kind: type, default=MISSING, *, factory=MISSING, **limits):
    """A field whose valid values are ``Bound(kind, **limits)``."""
    return field(default=default, default_factory=factory,
                 metadata={"bound": Bound(kind, **limits)})


def real(default=MISSING, minimum: float = 0.0, *, strict: bool = False,
         maximum: Optional[float] = None):
    """A finite real >= *minimum* (> when *strict*), < *maximum* if set."""
    return bounded(float, default, minimum=minimum, strict=strict,
                   maximum=maximum)


def count(default, minimum: int, maximum: Optional[int] = None):
    """An integer >= *minimum*, < *maximum* if set."""
    return bounded(int, default, minimum=minimum, maximum=maximum)


class _Bounded:
    """Base of every config section: construction runs :meth:`validate`."""

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first field outside its bound,
        then run the cross-field :meth:`check`."""
        for item in fields(self):
            bound = item.metadata["bound"]
            value = getattr(self, item.name)
            if not bound.admits(value):
                raise ValueError(f"{type(self).__name__}.{item.name} must be "
                                 f"{bound.describe()}, got {value!r}")
        self.check()

    __post_init__ = validate

    def check(self) -> None:
        """A rule tying two fields together; none by default."""


# ---------------------------------------------------------------------------
# Flash / SSD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashTiming(_Bounded):
    """Raw NAND array timing for a single die operation."""

    read_ns: float = real()
    program_ns: float = real()
    erase_ns: float = real()

    @staticmethod
    def znand() -> "FlashTiming":
        """Z-NAND (SLC 3D V-NAND): 3 us read, 100 us program."""
        return FlashTiming(read_ns=us(3), program_ns=us(100), erase_ns=us(1000))

    @staticmethod
    def vnand_tlc() -> "FlashTiming":
        """Conventional V-NAND TLC: 15x read / 7x program slower than Z-NAND."""
        return FlashTiming(read_ns=us(45), program_ns=us(700), erase_ns=us(3500))


@dataclass(frozen=True)
class FlashGeometry(_Bounded):
    """Physical organisation of the flash complex.

    The capacity exposed to the host is
    ``channels * packages * dies * planes * blocks * pages * page_size``
    scaled down by the over-provisioning factor.
    """

    channels: int = count(8, 1)
    packages_per_channel: int = count(4, 1)
    dies_per_package: int = count(2, 1)
    planes_per_die: int = count(2, 1)
    blocks_per_plane: int = count(256, 1)
    pages_per_block: int = count(256, 1)
    page_size: int = count(KB(4), 1)
    # All spare: no usable capacity, and _geometry_for_capacity divides by
    # 1 - overprovision.
    overprovision: float = real(0.07, maximum=1.0)

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
    def logical_pages(self) -> int:
        return self.usable_capacity_bytes // self.page_size


@dataclass(frozen=True)
class SSDConfig(_Bounded):
    """Configuration for one simulated SSD device.

    ``split_channels`` reproduces the ULL-Flash datapath optimisation that
    splits one 4 KB host request into two half-page operations issued to two
    channels simultaneously, halving the on-chip DMA time (Section II-C).
    """

    name: str = bounded(str, "ull-flash")
    geometry: FlashGeometry = bounded(FlashGeometry, factory=FlashGeometry)
    timing: FlashTiming = bounded(FlashTiming, factory=FlashTiming.znand)
    split_channels: bool = bounded(bool, True)
    channel_bw_bytes_per_ns: float = real(mb_per_s(800), strict=True)
    dram_buffer_bytes: int = count(MB(512), 0)
    dram_buffer_hit_ns: float = real(500.0)
    dram_buffer_enabled: bool = bounded(bool, True)
    firmware_latency_ns: float = real(800.0)
    max_outstanding: int = count(64, 1)
    # Fraction of the internal DRAM buffer reserved for the FTL mapping
    # table rather than data caching (FlatFlash discussion, Section VII).
    mapping_table_fraction: float = real(0.25, maximum=1.0)

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
class PCIeConfig(_Bounded):
    """PCIe link used between the MCH root complex and an NVMe SSD."""

    lanes: int = count(4, 1)
    per_lane_bw_bytes_per_ns: float = real(gb_per_s(1.0), strict=True)
    # Transaction-layer packet framing cost (encapsulation + header parsing).
    packet_overhead_ns: float = real(250.0)
    max_payload_bytes: int = count(256, 1)

    def check(self) -> None:
        if not math.isfinite(self.bandwidth_bytes_per_ns):
            raise ValueError(f"lanes * per_lane_bw_bytes_per_ns must be "
                             f"finite, got {self.bandwidth_bytes_per_ns!r}")

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        return self.lanes * self.per_lane_bw_bytes_per_ns


@dataclass(frozen=True)
class SATAConfig(_Bounded):
    """SATA 3.0 link (for the SATA SSD comparison point in Figure 6)."""

    bandwidth_bytes_per_ns: float = real(mb_per_s(550), strict=True)
    command_overhead_ns: float = real(5000.0)


@dataclass(frozen=True)
class DDRConfig(_Bounded):
    """DDR4 channel timing (DDR4-2133 RDIMM, Table II / Section V)."""

    channel_bw_bytes_per_ns: float = real(gb_per_s(20.0), strict=True)
    tCL_ns: float = real(14.0)
    tRCD_ns: float = real(14.0)
    tRP_ns: float = real(14.0)
    tBURST_ns: float = real(3.75)
    line_size: int = count(64, 1)
    channels: int = count(2, 1)
    ranks: int = count(2, 1)
    # Extra cycles the advanced-HAMS register interface spends writing a 64 B
    # NVMe command into the data-buffer registers (8-beat burst, Section V-A).
    register_command_ns: float = real(30.0)
    lock_register_ns: float = real(5.0)


# ---------------------------------------------------------------------------
# Memory devices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NVDIMMConfig(_Bounded):
    """NVDIMM-N module: DRAM-speed access plus supercap-backed flash backup."""

    # The MoS tag array holds one host-memory entry per cacheable page.
    capacity_bytes: int = count(GB(8), 0, maximum=GB(2048))
    ddr: DDRConfig = bounded(DDRConfig, factory=DDRConfig)
    pinned_region_bytes: int = count(MB(512), 0)
    backup_bandwidth_bytes_per_ns: float = real(mb_per_s(400), strict=True)
    restore_bandwidth_bytes_per_ns: float = real(mb_per_s(800), strict=True)

    def check(self) -> None:
        if self.capacity_bytes < self.pinned_region_bytes:
            raise ValueError(f"capacity_bytes ({self.capacity_bytes}) must be "
                             f"no smaller than pinned_region_bytes "
                             f"({self.pinned_region_bytes})")

    @property
    def cacheable_bytes(self) -> int:
        """Capacity available to the MoS cache after the pinned region."""
        return self.capacity_bytes - self.pinned_region_bytes


@dataclass(frozen=True)
class OptaneConfig(_Bounded):
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

    # The oracle platform's DIMM mirrors this capacity (NVDIMM's bound).
    capacity_bytes: int = count(GB(512), 1, maximum=GB(2048))
    read_latency_ns: float = real(400.0)
    write_latency_ns: float = real(94.0)
    # Batched accesses round request sizes up to whole blocks in int64.
    internal_block_bytes: int = count(256, 1, maximum=GB(1))
    block_overhead_ns: float = real(150.0)
    # App Direct persistence requires cache-line writeback + fencing on every
    # store to the media, which Memory mode avoids.
    persist_write_overhead_ns: float = real(1200.0)
    xpbuffer_bytes: int = count(KB(16), 0)
    read_bw_bytes_per_ns: float = real(gb_per_s(2.2), strict=True)
    write_bw_bytes_per_ns: float = real(gb_per_s(0.8), strict=True)


# ---------------------------------------------------------------------------
# Host (CPU, caches, OS)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPUConfig(_Bounded):
    """Simplified in-order core model (one core of Table II's ARM v8 @ 2 GHz)."""

    frequency_ghz: float = real(2.0, strict=True)
    base_cpi: float = real(1.0)

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class CacheConfig(_Bounded):
    """Two-level cache hierarchy (64 KB L1I / 64 KB L1D / 2 MB L2)."""

    # Each line of a level is a slot in three host-memory columns (17 B).
    l1_size_bytes: int = count(KB(64), 1, maximum=GB(1))
    l1_latency_ns: float = real(1.0)
    l2_size_bytes: int = count(MB(2), 1, maximum=GB(1))
    l2_latency_ns: float = real(5.0)
    line_size: int = count(64, 1)

    def check(self) -> None:
        if min(self.l1_size_bytes, self.l2_size_bytes) < self.line_size:
            raise ValueError(f"each cache level must hold at least one line "
                             f"(l1_size_bytes, l2_size_bytes >= line_size="
                             f"{self.line_size})")


@dataclass(frozen=True)
class OSStackConfig(_Bounded):
    """Latency model of the Linux storage stack traversed by the MMF path.

    The paper measures 15-20 us of software time per page fault (Section
    III-B): page-fault handling + context switches + file system + blk-mq +
    NVMe driver.  The split below follows the Figure 7a decomposition.
    """

    page_fault_ns: float = real(us(4.0))
    context_switch_ns: float = real(us(5.0))
    filesystem_ns: float = real(us(3.0))
    blk_mq_ns: float = real(us(2.0))
    nvme_driver_ns: float = real(us(1.5))
    interrupt_ns: float = real(us(1.0))
    copy_bandwidth_bytes_per_ns: float = real(gb_per_s(10.0), strict=True)
    # A fault installs its whole window page by page (Linux's default
    # read_ahead_kb is 128 KB, 32 pages).
    readahead_pages: int = count(8, 1, maximum=65536)

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
class NVMeConfig(_Bounded):
    """NVMe protocol timing constants (Section II-C)."""

    doorbell_ns: float = real(100.0)
    msi_ns: float = real(200.0)
    controller_processing_ns: float = real(500.0)


# ---------------------------------------------------------------------------
# HAMS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HAMSConfig(_Bounded):
    """Configuration of the HAMS controller inside the MCH.

    ``integration`` selects the loosely-coupled baseline (``"loose"``:
    NVDIMM on DDR4, ULL-Flash behind PCIe/NVMe) or the aggressive
    integration (``"tight"``: ULL-Flash on the DDR4 bus behind the
    register-based interface, SSD-internal DRAM removed).

    ``mode`` selects ``"persist"`` (FUA-like, at most one outstanding flush)
    or ``"extend"`` (full NVMe parallelism + journal-tag persistency).
    """

    integration: str = bounded(str, "loose", choices=("loose", "tight"))
    mode: str = bounded(str, "extend", choices=("persist", "extend"))
    mos_page_bytes: int = count(KB(128), KB(4))
    tag_check_ns: float = real(10.0)

    def check(self) -> None:
        if self.mos_page_bytes % KB(4) != 0:
            raise ValueError(f"mos_page_bytes must be a multiple of 4 KB, "
                             f"got {self.mos_page_bytes}")

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
class EnergyConfig(_Bounded):
    """Per-component power model (McPAT / MICRON calculator style).

    The absolute numbers are representative datasheet values; Figure 19 only
    depends on the relative contributions (CPU + system memory dominate the
    mmap baseline, SSD-internal DRAM adds ~17 % over the flash complex, ...).
    """

    cpu_active_w: float = real(12.0)
    cpu_idle_w: float = real(3.0)
    dram_active_w_per_gb: float = real(0.375)
    dram_idle_w_per_gb: float = real(0.10)
    ssd_internal_dram_active_w: float = real(1.4)
    ssd_internal_dram_idle_w: float = real(0.45)
    znand_read_nj_per_page: float = real(3_000.0)
    znand_program_nj_per_page: float = real(15_000.0)
    znand_idle_w: float = real(1.2)
    pcie_pj_per_byte: float = real(15.0)
    ddr_pj_per_byte: float = real(6.0)


# ---------------------------------------------------------------------------
# Whole-system configuration
# ---------------------------------------------------------------------------


#: Most MoS tag-array entries (cacheable NVDIMM bytes // MoS page) a config
#: may ask for: each is 9 B of host memory, so this caps the array at 75 MB.
MAX_TAG_ENTRIES = 1 << 23


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

    def __post_init__(self) -> None:
        entries = self.nvdimm.cacheable_bytes // self.hams.mos_page_bytes
        if entries > MAX_TAG_ENTRIES:
            raise ValueError(
                f"nvdimm.capacity_bytes ({self.nvdimm.capacity_bytes}) over "
                f"hams.mos_page_bytes ({self.hams.mos_page_bytes}) gives "
                f"{entries} MoS tag-array entries; at most "
                f"{MAX_TAG_ENTRIES} are allowed")

    def with_hams(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified HAMS parameters."""
        return replace(self, hams=replace(self.hams, **kwargs))


def default_config() -> SystemConfig:
    """The Table II configuration used by every paper experiment."""
    return SystemConfig()
