"""Common interface for point-to-point data links.

Both HAMS integrations move pages between the NVDIMM and the ULL-Flash: the
baseline crosses a PCIe link (with packet encapsulation), the advanced design
crosses the DDR4 bus directly.  The two are interchangeable behind this
small :class:`Link` interface so the HAMS controller code is identical for
both and only the datapath object differs — exactly the architectural point
of Section IV-C.

A transfer is one reservation recurrence over floats,
:meth:`Link.transfer`: ``start = max(at, busy)``, ``finish = (start +
overhead) + raw``.  A transfer's protocol cost depends on its size alone,
so each size's ``(overhead, raw)`` pair is computed once, on first use, and
no per-transfer record is built.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple


class Link(abc.ABC):
    """A shared, serialising data link with a fixed bandwidth and overhead."""

    def __init__(self) -> None:
        self.bytes_transferred = 0
        self.transfers = 0
        self._busy_until_ns = 0.0
        # size_bytes -> (per_transfer_overhead, raw_transfer_time).
        self._costs: Dict[int, Tuple[float, float]] = {}

    @abc.abstractmethod
    def raw_transfer_time(self, size_bytes: int) -> float:
        """Bus occupancy time for *size_bytes*, excluding queueing."""

    @abc.abstractmethod
    def per_transfer_overhead(self, size_bytes: int) -> float:
        """Protocol overhead added once per transfer (packetisation etc.)."""

    def _cost_of(self, size_bytes: int) -> Tuple[float, float]:
        """``(overhead, raw)`` of one *size_bytes* transfer, memoised."""
        if size_bytes <= 0:
            raise ValueError("transfer size must be positive")
        costs = (self.per_transfer_overhead(size_bytes),
                 self.raw_transfer_time(size_bytes))
        self._costs[size_bytes] = costs
        return costs

    def transfer(self, size_bytes: int, at_ns: float) -> Tuple[float, float]:
        """Move *size_bytes* starting no earlier than *at_ns*; returns the
        transfer's ``(start_ns, finish_ns)``.

        Transfers serialize on the link: a new transfer waits for the
        previous one to drain.
        """
        costs = self._costs.get(size_bytes)
        if costs is None:
            costs = self._cost_of(size_bytes)
        busy = self._busy_until_ns
        start = busy if busy > at_ns else at_ns
        finish = (start + costs[0]) + costs[1]
        self._busy_until_ns = finish
        self.bytes_transferred += size_bytes
        self.transfers += 1
        return start, finish

    @property
    def busy_until_ns(self) -> float:
        """Current reservation horizon (when the link next goes idle)."""
        return self._busy_until_ns

    def commit_transfers(self, count: int, bytes_moved: int,
                         busy_until_ns: float) -> None:
        """Fold the accounting of *count* externally-computed transfers.

        FlatFlash's MMIO replay and bypass-ull's miss loop inline the exact
        :meth:`transfer` recurrence (``start = max(at, busy); finish =
        (start + overhead) + raw``) into their service loops and commit the
        side effects here in one call.  ``busy_until_ns`` must be the
        horizon after the last inlined transfer.
        """
        if count < 0 or bytes_moved < 0:
            raise ValueError("transfer accounting cannot decrease")
        if busy_until_ns < self._busy_until_ns:
            raise ValueError("link reservation horizon cannot move backwards")
        self.bytes_transferred += bytes_moved
        self.transfers += count
        self._busy_until_ns = busy_until_ns

    def statistics(self) -> Dict[str, float]:
        return {
            "bytes_transferred": float(self.bytes_transferred),
            "transfers": float(self.transfers),
            "busy_until_ns": self._busy_until_ns,
        }
