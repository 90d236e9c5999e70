"""Statistics collection shared by the device and platform models."""

from .stats import Counter, LatencyStat, StatRegistry

__all__ = [
    "Counter",
    "LatencyStat",
    "StatRegistry",
]
