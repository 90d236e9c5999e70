"""Evaluation platforms.

One class per system configuration evaluated in Section VI:

=============  =================================================================
``mmap``        MMF baseline: NVDIMM page cache + ULL-Flash behind the OS stack
``optane-P``    Optane DC PMM in App Direct mode (persistent, no DRAM cache)
``optane-M``    Optane DC PMM in Memory mode (DRAM cache, not persistent)
``flatflash-P`` FlatFlash: cache-line MMIO access to ULL-Flash (persistent)
``flatflash-M`` FlatFlash with hot pages promoted to host DRAM
``nvdimm-C``    ULL-Flash on the DRAM PHY, migration only during refresh
``hams-LP``     baseline (loose) HAMS, persist mode
``hams-LE``     baseline (loose) HAMS, extend mode
``hams-TP``     advanced (tight) HAMS, persist mode
``hams-TE``     advanced (tight) HAMS, extend mode
``oracle``      a 512 GB NVDIMM that holds every dataset entirely
=============  =================================================================
"""

from .base import Platform, RunResult
from .oracle import OraclePlatform
from .mmap_platform import MmapPlatform
from .bypass import BypassPlatform
from .optane import OptanePlatform
from .flatflash import FlatFlashPlatform
from .nvdimm_c import NvdimmCPlatform
from .hams_platform import HAMSPlatform
from .registry import PLATFORM_NAMES, create_platform

__all__ = [
    "Platform",
    "RunResult",
    "OraclePlatform",
    "MmapPlatform",
    "BypassPlatform",
    "OptanePlatform",
    "FlatFlashPlatform",
    "NvdimmCPlatform",
    "HAMSPlatform",
    "PLATFORM_NAMES",
    "create_platform",
]
