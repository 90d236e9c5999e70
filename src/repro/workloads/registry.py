"""Workload registry: Table III characteristics and trace construction.

Every workload of the evaluation is described by a
:class:`WorkloadCharacteristics` record copied from Table III (instruction
count, load/store instruction ratios, dataset size) plus the modelling
parameters this reproduction adds (access granularity, access pattern,
write fraction of dataset accesses, compute instructions per access, and the
conversion from memory accesses to application-level operations).

Because the real datasets (5–16 GB) and instruction counts (tens to hundreds
of billions) are far too large for a pure-Python functional simulation, an
:class:`ExperimentScale` shrinks *both* the instruction stream and all
capacities (dataset, NVDIMM, SSD, Optane) by the same factors, preserving
the footprint-to-cache ratios — and therefore the hit rates and relative
platform ordering — that the figures depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..config import SSDConfig, SystemConfig
from ..units import GB, KB, MB
from .generators import (
    AccessPatternGenerator,
    HotspotPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfianPattern,
)
from .trace import AccessStream, MemoryAccess, WorkloadTrace


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """The Table III row for one workload (paper-scale numbers)."""

    name: str
    suite: str
    total_instructions: int
    load_ratio: float
    store_ratio: float
    dataset_bytes: int


@dataclass(frozen=True)
class WorkloadSpec:
    """Full description used to synthesise a trace."""

    characteristics: WorkloadCharacteristics
    pattern: str                       # sequential | random | zipfian | strided
    access_size_bytes: int
    write_fraction: float              # fraction of dataset accesses that store
    compute_instructions_per_access: float
    accesses_per_operation: float
    operation_unit: str                # "pages" | "ops"

    @property
    def name(self) -> str:
        return self.characteristics.name

    @property
    def suite(self) -> str:
        return self.characteristics.suite


@dataclass(frozen=True)
class ExperimentScale:
    """Scale factors applied to instructions and capacities.

    ``capacity_scale`` shrinks the dataset, the NVDIMM, the SSD and the
    Optane DIMM together; ``instruction_scale`` shrinks the instruction
    stream (and hence the trace length).  ``min_accesses``/``max_accesses``
    bound the trace so that very long (Update, seqSel) and very short
    workloads stay tractable without distorting their relative behaviour.
    """

    instruction_scale: float = 1e-3
    capacity_scale: float = 1.0 / 64.0
    min_accesses: int = 2_000
    max_accesses: int = 24_000
    seed: int = 42

    def scaled_instructions(self, total_instructions: int) -> int:
        return max(1, int(total_instructions * self.instruction_scale))

    def scaled_bytes(self, size_bytes: int) -> int:
        return max(KB(256), int(size_bytes * self.capacity_scale))


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------

_G = 1_000_000_000

_TABLE_III: List[WorkloadCharacteristics] = [
    WorkloadCharacteristics("seqRd", "microbench", 67 * _G, 0.28, 0.43, GB(16)),
    WorkloadCharacteristics("rndRd", "microbench", 69 * _G, 0.27, 0.37, GB(16)),
    WorkloadCharacteristics("seqWr", "microbench", 67 * _G, 0.28, 0.43, GB(16)),
    WorkloadCharacteristics("rndWr", "microbench", 69 * _G, 0.27, 0.37, GB(16)),
    WorkloadCharacteristics("seqSel", "sqlite", 213 * _G, 0.26, 0.20, GB(11)),
    WorkloadCharacteristics("rndSel", "sqlite", 213 * _G, 0.26, 0.20, GB(11)),
    WorkloadCharacteristics("seqIns", "sqlite", 40 * _G, 0.25, 0.21, GB(11)),
    WorkloadCharacteristics("rndIns", "sqlite", 44 * _G, 0.25, 0.21, GB(11)),
    WorkloadCharacteristics("update", "sqlite", 244 * _G, 0.26, 0.20, GB(11)),
    WorkloadCharacteristics("BFS", "rodinia", 192 * _G, 0.21, 0.04, GB(9)),
    WorkloadCharacteristics("KMN", "rodinia", 38 * _G, 0.27, 0.03, GB(5)),
    WorkloadCharacteristics("NN", "rodinia", 145 * _G, 0.16, 0.05, GB(7)),
]

_CHARACTERISTICS: Dict[str, WorkloadCharacteristics] = {
    row.name: row for row in _TABLE_III
}


def _spec(name: str, pattern: str, access_size: int, write_fraction: float,
          compute_per_access: float, accesses_per_op: float,
          unit: str) -> WorkloadSpec:
    return WorkloadSpec(characteristics=_CHARACTERISTICS[name],
                        pattern=pattern, access_size_bytes=access_size,
                        write_fraction=write_fraction,
                        compute_instructions_per_access=compute_per_access,
                        accesses_per_operation=accesses_per_op,
                        operation_unit=unit)


# The microbenchmark touches the memory-mapped file page by page; SQLite and
# Rodinia issue fine-grained (8-100 B) references (Section VI-A).
_PAGE = KB(4)
_FINE = 64

_SPECS: Dict[str, WorkloadSpec] = {
    # -- MMF microbenchmark ---------------------------------------------------
    # The "random" variants are random at the request level but concentrate
    # on a hot region (see HotspotPattern); purely uniform traffic over a
    # footprint twice the NVDIMM would contradict the ~94 % MoS hit rate the
    # paper measures.
    "seqRd": _spec("seqRd", "sequential", _PAGE, 0.05, 4000.0, 1.0, "pages"),
    "rndRd": _spec("rndRd", "hotspot", _PAGE, 0.05, 4000.0, 1.0, "pages"),
    "seqWr": _spec("seqWr", "sequential", _PAGE, 0.90, 4000.0, 1.0, "pages"),
    "rndWr": _spec("rndWr", "hotspot", _PAGE, 0.90, 4000.0, 1.0, "pages"),
    # -- SQLite (DBMS computation dominates each transaction; dataset
    #    references are fine-grained with strong internal locality) ----------
    "seqSel": _spec("seqSel", "sequential", _FINE, 0.10, 4000.0, 30.0, "ops"),
    "rndSel": _spec("rndSel", "hotspot", _FINE, 0.10, 4000.0, 30.0, "ops"),
    "seqIns": _spec("seqIns", "sequential", _FINE, 0.60, 3000.0, 30.0, "ops"),
    "rndIns": _spec("rndIns", "hotspot", _FINE, 0.60, 3000.0, 30.0, "ops"),
    "update": _spec("update", "zipfian", _FINE, 0.50, 4000.0, 30.0, "ops"),
    # -- Rodinia (compute-heavy kernels) ----------------------------------------
    "BFS": _spec("BFS", "zipfian", _FINE, 0.10, 2000.0, 64.0, "pages"),
    "KMN": _spec("KMN", "strided", _FINE, 0.10, 4000.0, 64.0, "pages"),
    "NN": _spec("NN", "strided", _FINE, 0.15, 3000.0, 64.0, "pages"),
}

MICROBENCH_WORKLOADS = ("seqRd", "rndRd", "seqWr", "rndWr")
SQLITE_WORKLOADS = ("seqSel", "rndSel", "seqIns", "rndIns", "update")
RODINIA_WORKLOADS = ("BFS", "KMN", "NN")


def all_workload_names() -> List[str]:
    """Every workload of Table III, in the paper's order."""
    return [row.name for row in _TABLE_III]


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload spec by its Table III name."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {all_workload_names()}"
        ) from None


def table_iii() -> List[WorkloadCharacteristics]:
    """The raw Table III rows (paper-scale)."""
    return list(_TABLE_III)


# ---------------------------------------------------------------------------
# Trace construction
# ---------------------------------------------------------------------------


def _pattern_generator(spec: WorkloadSpec, dataset_bytes: int,
                       seed: int) -> AccessPatternGenerator:
    fine_grained = spec.access_size_bytes < _PAGE
    run_length = 16 if fine_grained else 1
    if spec.pattern == "sequential":
        return SequentialPattern(dataset_bytes, spec.access_size_bytes, seed)
    if spec.pattern == "random":
        return RandomPattern(dataset_bytes, spec.access_size_bytes, seed)
    if spec.pattern == "hotspot":
        return HotspotPattern(dataset_bytes, spec.access_size_bytes, seed,
                              hot_fraction=0.20, hot_probability=0.90,
                              run_length=run_length)
    if spec.pattern == "zipfian":
        return ZipfianPattern(dataset_bytes, spec.access_size_bytes, seed,
                              run_length=run_length)
    if spec.pattern == "strided":
        return StridedPattern(dataset_bytes, spec.access_size_bytes, seed,
                              stride_slots=17)
    raise ValueError(f"unknown access pattern {spec.pattern!r}")


@dataclass(frozen=True)
class TracePlan:
    """Everything needed to emit one workload's trace, without the trace.

    The in-memory path (:func:`build_trace`) and the disk path
    (:func:`repro.trace.writer.build_trace_file`) both start from the same
    plan, which is what keeps them bit-identical: same generator, same
    access count, same write RNG seeding.
    """

    spec: WorkloadSpec
    generator: AccessPatternGenerator
    access_count: int
    write_fraction: float
    dataset_bytes: int
    scaled_instructions: int
    seed: int

    def write_rng(self):
        """The write-mask generator ``build_trace`` seeds (seed + 1000)."""
        import numpy as np
        return np.random.default_rng(self.seed + 1000)

    @property
    def meta(self) -> dict:
        """The :class:`~repro.workloads.trace.WorkloadTrace` metadata."""
        return {
            "name": self.spec.name,
            "suite": self.spec.suite,
            "dataset_bytes": self.dataset_bytes,
            "compute_instructions_per_access":
                self.spec.compute_instructions_per_access,
            "accesses_per_operation": self.spec.accesses_per_operation,
            "operation_unit": self.spec.operation_unit,
            "total_instructions": self.scaled_instructions,
        }


def trace_plan(name: str, scale: Optional[ExperimentScale] = None,
               dataset_bytes_override: Optional[int] = None) -> TracePlan:
    """Resolve workload *name* at *scale* into a ready-to-emit plan."""
    scale = scale if scale is not None else ExperimentScale()
    spec = get_workload(name)
    characteristics = spec.characteristics

    dataset_bytes = (dataset_bytes_override
                     if dataset_bytes_override is not None
                     else scale.scaled_bytes(characteristics.dataset_bytes))

    scaled_instructions = scale.scaled_instructions(
        characteristics.total_instructions)
    raw_accesses = int(scaled_instructions
                       / (1.0 + spec.compute_instructions_per_access))
    access_count = min(scale.max_accesses, max(scale.min_accesses, raw_accesses))
    generator = _pattern_generator(spec, dataset_bytes, scale.seed)
    return TracePlan(spec=spec, generator=generator,
                     access_count=access_count,
                     write_fraction=spec.write_fraction,
                     dataset_bytes=dataset_bytes,
                     scaled_instructions=scaled_instructions,
                     seed=scale.seed)


def build_trace(name: str, scale: Optional[ExperimentScale] = None,
                dataset_bytes_override: Optional[int] = None) -> WorkloadTrace:
    """Synthesise the trace for workload *name* under the given scale.

    ``dataset_bytes_override`` (already scaled) supports the Figure 20b
    stress test, which grows the footprint to 44 GB at paper scale.

    A ``trace:<path>`` name replays a ``repro.trace/1`` file instead of a
    Table III generator: the returned trace is file-backed (its stream
    reads chunk-at-a-time off disk, see :mod:`repro.trace`), *scale* is
    ignored — the file already fixes the accesses — and the override still
    applies on top of the file's recorded dataset size.  Every execution
    tier reaches traces through this function, so ``trace:`` workloads
    work unchanged on the serial, pool, sharded and serve paths.
    """
    if name.startswith("trace:"):
        # Lazy: repro.trace imports from this package.
        from ..trace.format import trace_source_path
        from ..trace.reader import load_trace_file
        return load_trace_file(trace_source_path(name),
                               dataset_bytes_override=dataset_bytes_override)
    if name.startswith("scenario:"):
        # Lazy: repro.scenario imports from this package.  A scenario
        # source carries its own per-tenant dataset overrides, so the
        # spec-level override has no meaning here.
        from ..scenario.mix import build_mixed_trace
        from ..scenario.spec import parse_scenario_source
        return build_mixed_trace(parse_scenario_source(name),
                                 scale if scale is not None
                                 else ExperimentScale())
    plan = trace_plan(name, scale, dataset_bytes_override)
    # The stream is built columnar end-to-end: generator addresses and the
    # write mask stay numpy arrays, no per-access record objects exist.
    stream = plan.generator.stream(plan.access_count, plan.write_fraction,
                                   plan.write_rng())
    return WorkloadTrace(accesses=stream, **plan.meta)


@dataclass(frozen=True)
class TraceSpec:
    """A picklable, lazily buildable description of one workload trace.

    Worker processes of the parallel experiment runner receive these instead
    of live :class:`~repro.workloads.trace.WorkloadTrace` objects: shipping
    the spec costs a few hundred bytes, and :meth:`build` reconstructs the
    exact trace deterministically (the generators are fully seeded by
    ``scale.seed``), so a trace built in a worker is bit-identical to the one
    the serial runner builds in-process.
    """

    workload: str
    scale: ExperimentScale
    dataset_bytes_override: Optional[int] = None

    def build(self) -> WorkloadTrace:
        """Synthesise the trace this spec describes."""
        return build_trace(self.workload, self.scale,
                           dataset_bytes_override=self.dataset_bytes_override)

    @property
    def cache_key(self) -> tuple:
        """Key under which per-process trace caches memoise the build."""
        return (self.workload, self.dataset_bytes_override)


# ---------------------------------------------------------------------------
# System scaling
# ---------------------------------------------------------------------------


def scale_system_config(config: SystemConfig,
                        scale: ExperimentScale) -> SystemConfig:
    """Shrink every capacity in *config* by ``scale.capacity_scale``.

    The NVDIMM (and its pinned region), the ULL-Flash, the Optane DIMM and
    the HAMS PRP pool all shrink together so that the footprint ratios of
    the paper's Table II setup are preserved at laptop scale.
    """
    factor = scale.capacity_scale
    nvdimm = replace(
        config.nvdimm,
        capacity_bytes=max(MB(16), int(config.nvdimm.capacity_bytes * factor)),
        pinned_region_bytes=max(MB(1),
                                int(config.nvdimm.pinned_region_bytes * factor)))
    ssd_capacity = max(MB(64), int(GB(800) * factor))
    ssd = SSDConfig.ull_flash(ssd_capacity)
    optane = replace(
        config.optane,
        capacity_bytes=max(MB(32), int(config.optane.capacity_bytes * factor)))
    hams = replace(
        config.hams,
        prp_pool_bytes=max(config.hams.mos_page_bytes * 8,
                           int(config.hams.prp_pool_bytes * factor)))
    return replace(config, nvdimm=nvdimm, ssd=ssd, optane=optane, hams=hams)
