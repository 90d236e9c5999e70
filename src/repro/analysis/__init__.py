"""Analysis and reporting: turning run results into the paper's tables/figures."""

from .breakdown import (
    execution_breakdown_table,
    memory_delay_table,
    normalised_energy_table,
)
from .reporting import format_table, series_to_rows
from .experiments import ExperimentResult

__all__ = [
    "execution_breakdown_table",
    "memory_delay_table",
    "normalised_energy_table",
    "format_table",
    "series_to_rows",
    "ExperimentResult",
]
