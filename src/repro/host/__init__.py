"""Host-side substrate: CPU, cache hierarchy, and the OS storage stack.

These models replace the gem5 full-system simulation of the paper with a
functional equivalent: the CPU issues an abstract instruction stream whose
load/store mix comes from Table III, the cache hierarchy filters memory
references, and the OS stack charges the software latencies (page-fault
handling, context switches, file system, blk-mq, NVMe driver) that
Figure 7a decomposes.
"""

from .cpu import CPUModel
from .caches import CacheHierarchy, CacheLevel
from .os_stack import OSStorageStack, PageCache, PageCacheBatchResult

__all__ = [
    "CPUModel",
    "CacheHierarchy",
    "CacheLevel",
    "OSStorageStack",
    "PageCache",
    "PageCacheBatchResult",
]
