"""Statistics collection shared by the device and platform models."""

from .stats import Counter, Histogram, LatencyStat, StatRegistry

__all__ = [
    "Counter",
    "Histogram",
    "LatencyStat",
    "StatRegistry",
]
