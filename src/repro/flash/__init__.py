"""ULL-Flash / SSD simulation substrate.

This package models the full SSD datapath the paper relies on (Section II-C
and the Amber simulator): Z-NAND dies and planes, channel DMA scheduling, a
page-mapping flash translation layer with garbage collection, the flash
interface layer and the SSD-internal DRAM write-back buffer.  Every
per-request operation — the host interface's request split and parse
cost included — runs in one resumable walk, :meth:`SSD.walk`; the layer
classes hold the state it advances.  Three device presets are provided —
ULL-Flash (Z-NAND), a conventional NVMe SSD (V-NAND TLC) and a SATA SSD —
matching the comparison points of Figures 5 and 6.
"""

from .znand import FlashOperation, ZNANDArray
from .channel import ChannelScheduler
from .ftl import FlashTranslationLayer, PhysicalAddress
from .dram_buffer import InternalDRAMBuffer
from .fil import FlashInterfaceLayer
from .ssd import SSD, IORequest, IOResult, make_ssd

__all__ = [
    "FlashOperation",
    "ZNANDArray",
    "ChannelScheduler",
    "FlashTranslationLayer",
    "PhysicalAddress",
    "InternalDRAMBuffer",
    "FlashInterfaceLayer",
    "SSD",
    "IORequest",
    "IOResult",
    "make_ssd",
]
