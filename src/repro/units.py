"""Unit helpers shared across the simulation library.

All simulated *time* is expressed in **nanoseconds** (floats), all *sizes*
in **bytes** (ints), all *energy* in **nanojoules** and all *power* in
**watts**.  Keeping a single canonical unit per dimension avoids the classic
simulator bug of silently mixing microseconds and nanoseconds; the helpers
below exist so call-sites can still be written in the unit the datasheet or
the paper uses (``us(3)`` for the 3 microsecond Z-NAND read, ``GB(800)`` for
the 800 GB ULL-Flash capacity) while the stored value stays canonical.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Time (canonical unit: nanoseconds)
# --------------------------------------------------------------------------

NS_PER_US = 1_000.0
NS_PER_MS = 1_000_000.0
NS_PER_S = 1_000_000_000.0


def us(value: float) -> float:
    """Convert microseconds to nanoseconds."""
    return float(value) * NS_PER_US


def to_us(value_ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return value_ns / NS_PER_US


def to_ms(value_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return value_ns / NS_PER_MS


# --------------------------------------------------------------------------
# Size (canonical unit: bytes)
# --------------------------------------------------------------------------

BYTES_PER_KB = 1024
BYTES_PER_MB = 1024 ** 2
BYTES_PER_GB = 1024 ** 3


def KB(value: float) -> int:
    """Convert kibibytes to bytes."""
    return int(value * BYTES_PER_KB)


def MB(value: float) -> int:
    """Convert mebibytes to bytes."""
    return int(value * BYTES_PER_MB)


def GB(value: float) -> int:
    """Convert gibibytes to bytes."""
    return int(value * BYTES_PER_GB)


def to_GB(value_bytes: int) -> float:
    """Convert bytes to gibibytes."""
    return value_bytes / BYTES_PER_GB


def to_MB(value_bytes: int) -> float:
    """Convert bytes to mebibytes."""
    return value_bytes / BYTES_PER_MB


# --------------------------------------------------------------------------
# Bandwidth helpers
# --------------------------------------------------------------------------


def gb_per_s(value: float) -> float:
    """Convert GB/s into bytes per nanosecond."""
    return value * BYTES_PER_GB / NS_PER_S


def mb_per_s(value: float) -> float:
    """Convert MB/s into bytes per nanosecond."""
    return value * BYTES_PER_MB / NS_PER_S


def transfer_time_ns(size_bytes: int, bandwidth_bytes_per_ns: float) -> float:
    """Time to move *size_bytes* over a link of the given bandwidth.

    A zero or negative bandwidth is treated as "infinitely fast" which is
    convenient for disabling a link stage in experiments.
    """
    if bandwidth_bytes_per_ns <= 0:
        return 0.0
    return size_bytes / bandwidth_bytes_per_ns


def bandwidth_gbps(size_bytes: int, elapsed_ns: float) -> float:
    """Achieved bandwidth in GB/s for *size_bytes* moved in *elapsed_ns*."""
    if elapsed_ns <= 0:
        return 0.0
    return (size_bytes / BYTES_PER_GB) / (elapsed_ns / NS_PER_S)
