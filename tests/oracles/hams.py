"""The per-request HAMS reference: scalar tag-array sequence + miss replay."""

from __future__ import annotations

from typing import Tuple

from repro.core.hams_controller import HAMSAccessResult, HAMSController


def hams_classify(controller: HAMSController, address: int, size_bytes: int,
                  is_write: bool) -> Tuple[bool, int, int, int, float]:
    """The clock-free half of one HAMS request, on its own.

    Probes the tag array (one NVDIMM line access plus the comparator),
    then serves a hit from the cache entry (marking it dirty on a store)
    or, on a miss, charges the victim clone (read + write) when a dirty
    victim is evicted, the critical-chunk landing and the serve, and
    installs the page.  Returns ``(hit, mos_page, offset, victim_page,
    serve_ns)``, *victim_page* ``-1`` when the miss evicts nothing.
    """
    controller.accesses += 1
    decomposed = controller.address_manager.decompose(address)
    nvdimm = controller.nvdimm
    tag_array = controller.tag_array

    nvdimm.access(controller._line_size, is_write=False)
    lookup = tag_array.lookup(decomposed.mos_page)
    serve_ns = controller._nvdimm_serve_ns(size_bytes)
    victim_page = -1
    if lookup.hit:
        nvdimm.access(size_bytes, is_write=is_write)
        if is_write:
            tag_array.mark_dirty(decomposed.mos_page)
    else:
        # Installing before the clocked replay is exact: the replay never
        # reads the entry, only the ints taken from the lookup before it.
        page_bytes = controller.mos_page_bytes
        if lookup.needs_eviction:
            victim_page = tag_array.page_from(lookup.index,
                                              lookup.victim_tag)
            nvdimm.access(page_bytes, is_write=False)
            nvdimm.access(page_bytes, is_write=True)
        nvdimm.access(page_bytes, is_write=True)
        nvdimm.access(size_bytes, is_write=is_write)
        tag_array.install(decomposed.mos_page, dirty=is_write)
    return (lookup.hit, decomposed.mos_page, decomposed.offset, victim_page,
            serve_ns)


def hams_access(controller: HAMSController, address: int, size_bytes: int,
                is_write: bool, at_ns: float) -> HAMSAccessResult:
    """Serve one MMU request: :func:`hams_classify`, then a hit's NVDIMM
    latency or the miss's ``replay_miss`` on a batch-of-one walk."""
    controller.address_manager.validate(address, size_bytes)
    hit, mos_page, offset, victim_page, serve_ns = hams_classify(
        controller, address, size_bytes, is_write)
    probe_ns = controller._probe_ns
    if hit:
        result = HAMSAccessResult(address=address, is_write=is_write,
                                  hit=True, start_ns=at_ns,
                                  finish_ns=(at_ns + probe_ns) + serve_ns,
                                  nvdimm_ns=probe_ns + serve_ns)
    else:
        with controller.ssd.walk() as step:
            finish, nvdimm_ns, dma_ns, ssd_ns, wait_ns = \
                controller.replay_miss(mos_page, offset, victim_page,
                                       serve_ns, at_ns, step)
        result = HAMSAccessResult(
            address=address, is_write=is_write, hit=False, start_ns=at_ns,
            finish_ns=finish, nvdimm_ns=nvdimm_ns, dma_ns=dma_ns,
            ssd_ns=ssd_ns, wait_ns=wait_ns, evicted=victim_page >= 0)

    delays = controller.delays
    delays.nvdimm_ns += result.nvdimm_ns
    delays.dma_ns += result.dma_ns
    delays.ssd_ns += result.ssd_ns
    delays.wait_ns += result.wait_ns
    return result
