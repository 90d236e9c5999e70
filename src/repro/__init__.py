"""repro: a functional reproduction of HAMS (ISCA 2021).

HAMS — the Hardware Automated Memory-over-Storage solution — aggregates the
capacity of an NVDIMM-N and an ultra-low-latency flash SSD into one flat,
OS-transparent, persistent memory space managed entirely by hardware inside
the memory controller hub.  This library rebuilds the full system described
in the paper as a trace-driven Python simulation: the Z-NAND SSD substrate,
the NVMe protocol, the DDR4/PCIe interconnects, the NVDIMM, the host/OS
model, the HAMS controller itself (baseline and advanced integrations,
persist and extend modes), every baseline platform of the evaluation, and
the twelve workloads of Table III.

Quick start (see :mod:`repro.api` for the full facade)::

    from repro import Session

    session = Session()
    result = session.simulate("hams-TE", "seqRd")
    print(result.operations_per_second)
"""

from .api import (
    AdaptiveSweepResult,
    ServeClient,
    Session,
    adaptive_sweep,
    compare,
    simulate,
    sweep,
)
from .exec import (
    Event,
    Executor,
    ExperimentCancelled,
    ExperimentHandle,
    PoolExecutor,
    ProgressSnapshot,
    SerialExecutor,
    ShardedExecutor,
    StreamedRun,
)
from .config import (
    CPUConfig,
    DDRConfig,
    EnergyConfig,
    HAMSConfig,
    NVDIMMConfig,
    NVMeConfig,
    OptaneConfig,
    PCIeConfig,
    SSDConfig,
    SystemConfig,
    default_config,
)
from .analysis.experiments import ExperimentResult
from .core.hams_controller import HAMSAccessResult, HAMSController
from .platforms.base import (
    MemoryRequest,
    MemoryRequestBatch,
    MemoryServiceBatch,
    MemoryServiceResult,
    Platform,
    RunResult,
)
from .platforms.registry import PLATFORM_NAMES, create_platform
from .runner import ParallelExperimentRunner, RunSpec
from .workloads.registry import (
    ExperimentScale,
    all_workload_names,
    build_trace,
    get_workload,
    scale_system_config,
)
from .workloads.trace import AccessStream, MemoryAccess, WorkloadTrace
from .trace import (
    FileAccessStream,
    TraceReader,
    TraceWriter,
    build_trace_file,
    import_binary,
    import_csv,
    load_trace_file,
)
from .scenario import (
    ScenarioSpec,
    TenantSpec,
    build_mixed_trace,
    run_scenario,
    scenario_run_spec,
)

__version__ = "1.0.0"

__all__ = [
    "Session",
    "ServeClient",
    "simulate",
    "compare",
    "sweep",
    "adaptive_sweep",
    "AdaptiveSweepResult",
    "Event",
    "Executor",
    "ExperimentCancelled",
    "ExperimentHandle",
    "PoolExecutor",
    "ProgressSnapshot",
    "SerialExecutor",
    "ShardedExecutor",
    "StreamedRun",
    "AccessStream",
    "MemoryAccess",
    "WorkloadTrace",
    "FileAccessStream",
    "TraceReader",
    "TraceWriter",
    "build_trace_file",
    "import_binary",
    "import_csv",
    "load_trace_file",
    "ScenarioSpec",
    "TenantSpec",
    "build_mixed_trace",
    "run_scenario",
    "scenario_run_spec",
    "MemoryRequest",
    "MemoryRequestBatch",
    "MemoryServiceBatch",
    "MemoryServiceResult",
    "CPUConfig",
    "DDRConfig",
    "EnergyConfig",
    "HAMSConfig",
    "NVDIMMConfig",
    "NVMeConfig",
    "OptaneConfig",
    "PCIeConfig",
    "SSDConfig",
    "SystemConfig",
    "default_config",
    "ExperimentResult",
    "HAMSAccessResult",
    "HAMSController",
    "Platform",
    "RunResult",
    "PLATFORM_NAMES",
    "create_platform",
    "ParallelExperimentRunner",
    "RunSpec",
    "ExperimentScale",
    "all_workload_names",
    "build_trace",
    "get_workload",
    "scale_system_config",
    "__version__",
]
