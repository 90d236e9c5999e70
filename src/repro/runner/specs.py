"""Picklable run specifications for the parallel experiment runner.

A :class:`RunSpec` is the unit of work the runner fans out: it names a
platform (by registry name), a workload (by Table III name) and the optional
knobs the figure harnesses sweep — a dataset override (Fig. 20b), per-section
config overrides (Fig. 20a's MoS page-size sweep) and platform constructor
keyword arguments (the oracle DIMM capacity).  Everything in a spec is plain
data, so it pickles cheaply to worker processes and serialises canonically
for the content-addressed run cache; workers rebuild the live platform and
trace objects locally from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..config import SystemConfig

#: Config sections a RunSpec may override, mirroring SystemConfig's fields.
CONFIG_SECTIONS = ("cpu", "caches", "os_stack", "nvdimm", "ssd", "pcie",
                   "sata", "nvme", "hams", "optane", "energy")


@dataclass(frozen=True)
class RunSpec:
    """One (platform, workload) replay, fully described by plain data.

    ``label`` renames the platform axis of the experiment result — parameter
    sweeps run the same platform several times under different keys (e.g.
    ``"4KB"`` ... ``"1024KB"`` for the page-size sweep).  ``workload_label``
    renames the workload axis the same way: file-backed ``trace:<path>``
    workloads use it to report under the trace's recorded workload name, so
    their rows line up with (and diff cleanly against) in-memory baselines.
    """

    platform: str
    workload: str
    dataset_bytes_override: Optional[int] = None
    config_overrides: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)
    platform_kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    workload_label: Optional[str] = None

    @property
    def result_key(self) -> Tuple[str, str]:
        """Key under which this run lands in an ``ExperimentResult``."""
        return (self.label if self.label is not None else self.platform,
                self.workload_label if self.workload_label is not None
                else self.workload)

    def canonical(self) -> Dict[str, Any]:
        """A deterministically ordered dict used for hashing and artifacts."""
        return {
            "platform": self.platform,
            "workload": self.workload,
            "dataset_bytes_override": self.dataset_bytes_override,
            "config_overrides": {
                section: dict(sorted(fields.items()))
                for section, fields in sorted(self.config_overrides.items())
            },
            "platform_kwargs": dict(sorted(self.platform_kwargs.items())),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON form: the canonical payload plus the result-key label.

        The labels rename the experiment-result key but do not change what
        is executed, so they stay out of :meth:`canonical` (and hence out of
        the run-cache key) while shard manifests still need them to
        reproduce the exact experiment layout.
        """
        payload = self.canonical()
        payload["label"] = self.label
        payload["workload_label"] = self.workload_label
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "RunSpec":
        """Rebuild the exact spec :meth:`to_dict` serialised."""
        return RunSpec(
            platform=payload["platform"],
            workload=payload["workload"],
            dataset_bytes_override=payload.get("dataset_bytes_override"),
            config_overrides={
                section: dict(fields)
                for section, fields in
                dict(payload.get("config_overrides") or {}).items()
            },
            platform_kwargs=dict(payload.get("platform_kwargs") or {}),
            label=payload.get("label"),
            workload_label=payload.get("workload_label"),
        )


def apply_config_overrides(config: SystemConfig,
                           overrides: Mapping[str, Mapping[str, Any]]
                           ) -> SystemConfig:
    """Return *config* with per-section field overrides applied.

    ``overrides`` maps a :data:`CONFIG_SECTIONS` name to ``{field: value}``,
    e.g. ``{"hams": {"mos_page_bytes": 4096}}``.  The input config is frozen
    and never mutated.  An unknown section or field raises ``ValueError``.
    """
    sections = {}
    for section, values in overrides.items():
        if section not in CONFIG_SECTIONS:
            raise ValueError(
                f"unknown config section {section!r}; "
                f"expected one of {CONFIG_SECTIONS}")
        current = getattr(config, section)
        known = tuple(f.name for f in fields(current) if f.init)
        unknown = sorted(set(values) - set(known))
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(map(repr, unknown))} in config "
                f"section {section!r}; expected one of {known}")
        sections[section] = replace(current, **dict(values))
    # One replace, so a cross-section rule sees every override at once.
    return replace(config, **sections)


def matrix_specs(platform_names, workloads) -> list:
    """Specs for the full (platform x workload) matrix.

    Iteration order is workloads outer, platforms inner, so every
    execution tier enumerates — and therefore reports — runs identically.

    ``trace:<path>`` workloads are annotated with a ``workload_label``
    taken from the trace file's recorded workload name (provenance first,
    then footer metadata), so a file-backed run reports under the same
    result key as the in-memory run it replays — which is what lets CI
    threshold-diff a trace-smoke artifact against the committed baseline.
    Unreadable or unnamed files simply keep the ``trace:`` key.
    """
    return [RunSpec(platform=platform, workload=workload,
                    workload_label=workload_display_label(workload))
            for workload in workloads
            for platform in platform_names]


def workload_display_label(workload: str) -> Optional[str]:
    """A human-readable label for non-registry workload sources.

    ``trace:`` sources report the trace file's recorded workload name
    (provenance first, then footer metadata); ``scenario:`` sources report
    the scenario's name.  Registry names — already readable — and
    unreadable/unnamed files return ``None``, keeping the raw key.
    Report tables and ``repro list`` use this so tenant mixes and trace
    files never print as canonical paths or JSON blobs.
    """
    if workload.startswith("scenario:"):
        from ..scenario.spec import parse_scenario_source  # lazy import
        try:
            return parse_scenario_source(workload).name
        except ValueError:
            return None  # execution will surface the real error
    if not workload.startswith("trace:"):
        return None
    from ..trace.format import (  # lazy: keeps spec import featherweight
        TraceFormatError,
        trace_source_path,
        trace_summary,
    )
    try:
        summary = trace_summary(trace_source_path(workload))
    except TraceFormatError:
        return None  # execution will surface the real error with context
    provenance = summary.get("provenance") or {}
    return provenance.get("workload") or summary["meta"].get("name")
