"""Workload models: the twelve data-intensive benchmarks of Table III.

The paper evaluates three suites:

* **MMF microbenchmark** — seqRd / rndRd / seqWr / rndWr: page-granular
  sequential or random accesses over a 16 GB memory-mapped file,
* **SQLite benchmark** — seqSel / rndSel / seqIns / rndIns / update:
  fine-grained (8–100 B) accesses with DBMS-style locality over ~11 GB,
* **Rodinia** — BFS / KMN / NN: compute-heavy kernels with 5–9 GB footprints.

Because the real suites need hours of full-system simulation, this package
generates *synthetic traces* that preserve the characteristics Table III
reports — instruction counts, load/store ratios, dataset sizes — plus the
qualitative access patterns the text describes (coarse page-granular for the
microbenchmark, fine-grained with poor locality for SQLite, compute-bound
for Rodinia).  Instruction counts and footprints are scaled down together so
the footprint-to-NVDIMM ratio (and therefore every hit rate) is preserved at
laptop scale.
"""

from .trace import AccessStream, MemoryAccess, WorkloadTrace
from .generators import (
    AccessPatternGenerator,
    HotspotPattern,
    SequentialPattern,
    StridedPattern,
    ZipfianPattern,
)
from .registry import (
    ExperimentScale,
    WorkloadCharacteristics,
    WorkloadSpec,
    all_workload_names,
    build_trace,
    get_workload,
    scale_system_config,
    MICROBENCH_WORKLOADS,
    SQLITE_WORKLOADS,
    RODINIA_WORKLOADS,
)

__all__ = [
    "AccessStream",
    "MemoryAccess",
    "WorkloadTrace",
    "AccessPatternGenerator",
    "SequentialPattern",
    "HotspotPattern",
    "ZipfianPattern",
    "StridedPattern",
    "ExperimentScale",
    "WorkloadCharacteristics",
    "WorkloadSpec",
    "all_workload_names",
    "get_workload",
    "build_trace",
    "scale_system_config",
    "MICROBENCH_WORKLOADS",
    "SQLITE_WORKLOADS",
    "RODINIA_WORKLOADS",
]
