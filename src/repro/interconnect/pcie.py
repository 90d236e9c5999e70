"""PCIe link model.

The loosely-coupled HAMS (and every conventional NVMe SSD) reaches the
ULL-Flash through a PCIe 3.0 x4 link: ~4 GB/s of raw bandwidth, far below
the ~20 GB/s of a DDR4 channel, plus per-packet encapsulation of the raw
NVDIMM data into transaction-layer packets (Section IV-C).  Both effects —
the bandwidth cap and the packetisation overhead — are what make the DMA
portion contribute up to ~39-47 % of the average memory access time in the
baseline design (Figure 10a).

Both are functions of the transfer size alone: the link's bandwidth is
read once at construction, and :meth:`~repro.interconnect.link.Link.transfer`
prices each size once.
"""

from __future__ import annotations

import math

from ..config import PCIeConfig
from .link import Link


class PCIeLink(Link):
    """PCIe 3.0 point-to-point link between the root complex and an SSD."""

    def __init__(self, config: PCIeConfig) -> None:
        super().__init__()
        self.config = config
        self.bandwidth_bytes_per_ns = config.bandwidth_bytes_per_ns

    def raw_transfer_time(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth_bytes_per_ns

    def per_transfer_overhead(self, size_bytes: int) -> float:
        """Packetisation cost: one TLP per ``max_payload_bytes`` chunk.

        The first packet pays the full framing latency; subsequent packets of
        the same transfer pipeline behind it and only add a small header
        serialisation cost.
        """
        packets = max(1, math.ceil(size_bytes / self.config.max_payload_bytes))
        header_time = (packets - 1) * (
            24 / self.bandwidth_bytes_per_ns)  # 24 B TLP header/CRC
        return self.config.packet_overhead_ns + header_time
