"""HAMS address manager (Figure 9).

The address manager exposes a 64-bit byte-addressable MoS space whose size
equals the ULL-Flash capacity: the MMU issues plain physical addresses into
this space and never learns that most of it lives on flash.  The manager

* decomposes a MoS address into the (tag, index, offset) fields the
  tag-array uses,
* converts MoS pages to storage LBAs for the NVMe commands,
* lays out the NVDIMM: the cacheable region at the bottom and the pinned,
  MMU-invisible region (SQ/CQ rings, PRP pool, MSI table) at the top, and
* validates that incoming requests stay inside the MoS space.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import HAMSConfig, NVDIMMConfig
from .tag_array import MoSTagArray

LBA_BYTES = 512


@dataclass(frozen=True)
class DecomposedAddress:
    """A MoS address split into cache-addressing fields."""

    mos_page: int
    tag: int
    index: int
    offset: int


class AddressManager:
    """Maps the MoS address space onto the NVDIMM cache and ULL-Flash LBAs."""

    def __init__(self, hams: HAMSConfig, nvdimm: NVDIMMConfig,
                 storage_capacity_bytes: int) -> None:
        if storage_capacity_bytes <= 0:
            raise ValueError("storage capacity must be positive")
        self.hams = hams
        self.nvdimm = nvdimm
        self.mos_page_bytes = hams.mos_page_bytes
        self.storage_capacity_bytes = storage_capacity_bytes
        self.tag_array = MoSTagArray(nvdimm.cacheable_bytes, self.mos_page_bytes)

    # -- MoS address space -------------------------------------------------------

    @property
    def mos_capacity_bytes(self) -> int:
        """The byte-addressable space presented to the MMU."""
        return self.storage_capacity_bytes

    @property
    def mos_pages(self) -> int:
        return self.mos_capacity_bytes // self.mos_page_bytes

    def validate(self, address: int, size_bytes: int = 1) -> None:
        if address < 0 or size_bytes <= 0:
            raise ValueError("address must be non-negative and size positive")
        if address + size_bytes > self.mos_capacity_bytes:
            raise ValueError(
                f"access [{address}, {address + size_bytes}) exceeds the MoS "
                f"space of {self.mos_capacity_bytes} bytes")

    def decompose(self, address: int) -> DecomposedAddress:
        """Split *address* into MoS page, tag, index and in-page offset."""
        self.validate(address)
        mos_page = address // self.mos_page_bytes
        offset = address % self.mos_page_bytes
        return DecomposedAddress(mos_page=mos_page,
                                 tag=self.tag_array.tag_of(mos_page),
                                 index=self.tag_array.index_of(mos_page),
                                 offset=offset)

    # -- storage addressing ---------------------------------------------------------

    def lba_of(self, mos_page: int) -> int:
        """Starting LBA (512 B sectors) of a MoS page on the ULL-Flash."""
        if mos_page < 0 or mos_page >= self.mos_pages:
            raise ValueError(f"MoS page {mos_page} out of range")
        return mos_page * (self.mos_page_bytes // LBA_BYTES)

    # -- NVDIMM layout ---------------------------------------------------------------

    @property
    def pinned_region_base(self) -> int:
        return self.nvdimm.capacity_bytes - self.nvdimm.pinned_region_bytes
