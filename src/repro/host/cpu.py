"""Simplified CPU core model.

The evaluation metrics that involve the CPU — IPC (Figure 7b), MIPS
(the headline 97 %/119 % claim), execution-time breakdowns (Figure 17) — all
derive from an in-order, blocking-memory model: non-memory instructions
retire at a base CPI, memory instructions stall for however long the memory
system below takes.  This matches the paper's observation that "the
application is always stalled until the OS fetches data from storage".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CPUConfig


@dataclass
class ExecutionAccount:
    """Accumulated cycle/time accounting for one workload run."""

    instructions: int = 0
    memory_instructions: int = 0
    compute_ns: float = 0.0
    memory_stall_ns: float = 0.0
    os_ns: float = 0.0
    storage_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.compute_ns + self.memory_stall_ns + self.os_ns + self.storage_ns

    @property
    def app_ns(self) -> float:
        """Time attributed to the application itself (compute + memory stalls)."""
        return self.compute_ns + self.memory_stall_ns


class CPUModel:
    """An in-order core with a fixed base CPI and blocking memory accesses."""

    def __init__(self, config: CPUConfig) -> None:
        self.config = config
        self.account = ExecutionAccount()

    @property
    def cycle_ns(self) -> float:
        return self.config.cycle_ns

    # -- charging time -------------------------------------------------------------

    def execute_compute(self, instruction_count: int) -> float:
        """Retire *instruction_count* non-memory instructions; returns the time."""
        if instruction_count < 0:
            raise ValueError("instruction count cannot be negative")
        duration = instruction_count * self.config.base_cpi * self.cycle_ns
        self.account.instructions += instruction_count
        self.account.compute_ns += duration
        return duration

    def execute_memory(self, stall_ns: float) -> float:
        """Retire one memory instruction that stalls for *stall_ns*."""
        if stall_ns < 0:
            raise ValueError("stall time cannot be negative")
        self.account.instructions += 1
        self.account.memory_instructions += 1
        self.account.memory_stall_ns += stall_ns
        return stall_ns

    def charge_os(self, duration_ns: float) -> None:
        """Charge OS/software-stack time that keeps the core busy but not useful."""
        if duration_ns < 0:
            raise ValueError("duration cannot be negative")
        self.account.os_ns += duration_ns

    def charge_storage(self, duration_ns: float) -> None:
        """Charge raw device wait time (the "SSD" slice of Figure 17)."""
        if duration_ns < 0:
            raise ValueError("duration cannot be negative")
        self.account.storage_ns += duration_ns

    # -- derived metrics -------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        return self.account.total_ns / self.cycle_ns

    @property
    def ipc(self) -> float:
        """Instructions per cycle over everything charged so far."""
        cycles = self.total_cycles
        if cycles <= 0:
            return 0.0
        return self.account.instructions / cycles

    @property
    def mips(self) -> float:
        """Million instructions per second of wall-clock simulation time."""
        total_s = self.account.total_ns / 1e9
        if total_s <= 0:
            return 0.0
        return self.account.instructions / 1e6 / total_s
