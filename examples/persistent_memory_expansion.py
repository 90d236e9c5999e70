#!/usr/bin/env python3
"""Persistent-memory expansion: power failure and recovery on HAMS.

This example drives the HAMS controller directly (below the platform layer)
to show the persistency machinery of Sections IV-B and V-C:

1. a working set is written through the MoS address space, dirtying NVDIMM
   cache entries and pushing evictions to the ULL-Flash,
2. NVMe write commands are left *in flight* (journal tag set, no completion)
   when the power fails,
3. the supercapacitors flush the volatile buffers, and
4. on power-up the recovery procedure scans the pinned region, finds the
   interrupted commands and replays them, leaving a consistent device.

Run with::

    python examples/persistent_memory_expansion.py
"""

from __future__ import annotations

from repro import ExperimentScale, Session
from repro.core.hams_controller import HAMSController
from repro.nvme.commands import build_write
from repro.units import KB, to_ms


def main() -> None:
    # The session owns the scaled Table II configuration; this example
    # drives the controller below the platform layer, so it only borrows
    # the config.
    session = Session(ExperimentScale(capacity_scale=1 / 256))
    config = session.config.with_hams(integration="tight", mode="extend")
    hams = HAMSController(config)
    hams.ssd.precondition(0, 4096)

    print("MoS address space:",
          f"{hams.mos_capacity_bytes / 2**30:.1f} GiB backed by ULL-Flash,")
    print("NVDIMM cache:",
          f"{hams.nvdimm.cacheable_bytes / 2**20:.0f} MiB "
          f"({hams.tag_array.entries_count} direct-mapped 128 KiB entries)\n")

    # -- phase 1: dirty a working set through the MoS space -------------------
    now = 0.0
    page = hams.mos_page_bytes
    for index in range(64):
        result = hams.access(index * page, 64, is_write=True, at_ns=now)
        now = result.finish_ns
    print(f"phase 1: wrote 64 MoS pages, "
          f"{hams.tag_array.dirty_count()} dirty cache entries, "
          f"hit rate {hams.hit_rate:.2f}")

    # -- phase 2: leave NVMe writes in flight and pull the plug ---------------
    in_flight = []
    for index in range(3):
        command = build_write(lba=hams.address_manager.lba_of(index),
                              length_bytes=KB(128),
                              prp=hams.address_manager.pinned_region_base)
        hams.sq.submit(command)
        command.mark_submitted(now)
        in_flight.append(command)
    print(f"phase 2: {len(in_flight)} eviction commands issued but not yet "
          "completed (journal tags = 1)")

    down_at = hams.power_failure(at_ns=now)
    print(f"power failure at {to_ms(now):.2f} ms; supercap flush and NVDIMM "
          f"backup complete at {to_ms(down_at):.2f} ms")

    # -- phase 3: power restore and recovery ----------------------------------
    report = hams.recover(at_ns=down_at)
    print("\nrecovery report:")
    print(f"  interrupted commands found : {report.pending_commands_found}")
    print(f"  commands replayed          : {report.commands_reissued}")
    print(f"  NVDIMM restore time        : {to_ms(report.nvdimm_restore_ns):.2f} ms")
    print(f"  replay time                : {report.replay_ns / 1e3:.1f} us")
    print(f"  consistent                 : {report.consistent}")

    # -- phase 4: the MoS space is usable again --------------------------------
    result = hams.access(0, 64, is_write=False, at_ns=down_at + report.total_recovery_ns)
    print(f"\nphase 4: first access after recovery completed in "
          f"{result.latency_ns / 1e3:.1f} us (hit={result.hit})")
    assert report.consistent


if __name__ == "__main__":
    main()
