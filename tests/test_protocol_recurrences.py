"""The miss path's protocol layers against an independent per-call reference.

The link, the register interface, the NVMe round trip, the hardware
engine's issue, the OS stack's fault and writeback charges, the mmap
fault's storage side and FlatFlash's MMIO loop are float recurrences over
constants fixed at construction (each transfer size priced once, no
record objects).  The
reference below recomputes every cost from the config on every call, in
the order the layers were specified (``finish = start + overhead + raw``,
lock acquire -> bus reservation -> lock release, doorbell + fetch/parse
in, MSI out), and keeps its own counters.  Every float is compared by
``float.hex`` and every counter exactly, so a re-associated sum or a
reordered counter update fails here even where it rounds the same way on
the defaults.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.config import (
    DDRConfig,
    HAMSConfig,
    NVMeConfig,
    OSStackConfig,
    PCIeConfig,
    SATAConfig,
    default_config,
)
from repro.core.nvme_engine import HardwareNVMeEngine
from repro.core.register_interface import RegisterInterface
from repro.host.os_stack import OSStorageStack
from repro.interconnect.ddr_bus import DDR4Bus
from repro.interconnect.pcie import PCIeLink
from repro.interconnect.sata import SATALink
from repro.nvme.controller import NVMeController
from repro.platforms.flatflash import FlatFlashPlatform
from repro.platforms.mmap_platform import MmapPlatform
from repro.runner.presets import SMOKE_SCALE
from repro.workloads.registry import scale_system_config

PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target,
          Phase.shrink)


def hexes(*values):
    return tuple(float(value).hex() for value in values)


# -- the reference ------------------------------------------------------------


class RefLink:
    """A serialising link that prices every transfer from scratch."""

    def __init__(self, overhead_of, raw_of):
        self.overhead_of = overhead_of
        self.raw_of = raw_of
        self.busy = 0.0
        self.bytes = 0
        self.count = 0

    def transfer(self, size, at):
        if size <= 0:
            raise ValueError("transfer size must be positive")
        overhead = self.overhead_of(size)
        raw = self.raw_of(size)
        start = max(at, self.busy)
        finish = start + overhead + raw
        self.busy = finish
        self.bytes += size
        self.count += 1
        return start, finish

    def state(self):
        return (self.bytes, self.count) + hexes(self.busy)


def ref_pcie(config: PCIeConfig) -> RefLink:
    def overhead(size):
        packets = max(1, math.ceil(size / config.max_payload_bytes))
        bandwidth = config.lanes * config.per_lane_bw_bytes_per_ns
        return config.packet_overhead_ns + (packets - 1) * (24 / bandwidth)

    return RefLink(overhead, lambda size: size / (
        config.lanes * config.per_lane_bw_bytes_per_ns))


class RefRegisterInterface:
    """Lock acquire, DDR4 reservation and lock release as three calls."""

    def __init__(self, ddr: DDRConfig):
        self.ddr = ddr
        self.bus = RefLink(lambda size: ddr.tRCD_ns + ddr.tCL_ns,
                           lambda size: size / ddr.channel_bw_bytes_per_ns)
        self.commands = 0
        self.release_at = 0.0
        self.held_since = 0.0
        self.acquisitions = 0
        self.contended = 0
        self.total_held = 0.0
        self.bytes = 0
        self.count = 0
        self.busy = 0.0

    def acquire(self, at):
        grant = at
        if self.release_at > at:
            self.contended += 1
            grant = max(at, self.release_at)
        self.held_since = grant
        self.acquisitions += 1
        return grant + self.ddr.lock_register_ns

    def release(self, at):
        self.release_at = at + self.ddr.lock_register_ns
        self.total_held += max(0.0, at - self.held_since)

    def transfer(self, size, at):
        if size <= 0:
            raise ValueError("transfer size must be positive")
        start, finish = self.bus.transfer(size, self.acquire(at))
        self.release(finish)
        self.bytes += size
        self.count += 1
        self.busy = finish
        return start, finish

    def deliver(self, at):
        self.commands += 1
        start = max(at, self.bus.busy)
        finish = (start + self.ddr.register_command_ns
                  + 64 / self.ddr.channel_bw_bytes_per_ns)
        self.bus.busy = finish
        self.bus.bytes += 64
        self.bus.count += 1
        return finish

    def state(self):
        return ((self.bytes, self.count, self.commands, self.acquisitions,
                 self.contended) + self.bus.state()
                + hexes(self.busy, self.release_at, self.held_since,
                        self.total_held))


def interface_state(interface: RegisterInterface):
    bus = interface.ddr_bus
    lock = bus.lock
    return ((interface.bytes_transferred, interface.transfers,
             interface.commands_delivered, lock.acquisitions,
             lock.contended_acquisitions, bus.bytes_transferred,
             bus.transfers)
            + hexes(bus.busy_until_ns, interface.busy_until_ns,
                    lock.release_at_ns, lock.held_since_ns,
                    lock.total_held_ns))


def link_state(link):
    return (link.bytes_transferred, link.transfers) + hexes(
        link.busy_until_ns)


def fake_device(log):
    """A deterministic stand-in for an open walk's step that logs its
    requests: the protocol layers, not the flash, are under test."""

    def step(request):
        is_write, offset, length, now, fua = request
        log.append((is_write, offset, length, now.hex(), fua))
        service = 700.25 + (offset % 4093) * 0.37 + length / 3.1
        return now + (service * 9.5 if is_write else service)

    return step


def ref_round_trip(link, nvme: NVMeConfig, step, is_write, offset, length,
                   fua, at):
    protocol_in = nvme.doorbell_ns + nvme.controller_processing_ns
    now = at + protocol_in
    transfer_ns = 0.0
    if is_write:
        start, finish = link.transfer(length, now)
        transfer_ns = finish - start
        now = finish
    finish = step((is_write, offset, length, now, fua))
    device_ns = finish - now
    now = finish
    if not is_write:
        start, finish = link.transfer(length, now)
        transfer_ns = finish - start
        now = finish
    protocol_out = nvme.msi_ns
    return (now + protocol_out, protocol_in + protocol_out, transfer_ns,
            device_ns)


# -- strategies ---------------------------------------------------------------

latency = st.floats(0.0, 5_000.0)
bandwidth = st.floats(0.01, 64.0)
pcie_configs = st.builds(
    PCIeConfig, lanes=st.integers(1, 16), per_lane_bw_bytes_per_ns=bandwidth,
    packet_overhead_ns=latency,
    max_payload_bytes=st.sampled_from([64, 128, 256, 512, 4096]))
ddr_configs = st.builds(
    DDRConfig, channel_bw_bytes_per_ns=bandwidth, tCL_ns=latency,
    tRCD_ns=latency, register_command_ns=latency,
    lock_register_ns=st.floats(0.0, 50.0))
nvme_configs = st.builds(NVMeConfig, doorbell_ns=latency, msi_ns=latency,
                         controller_processing_ns=latency)


def around_payload(payload: int):
    """Sizes on and next to multiples of *payload*, plus arbitrary ones."""
    return st.one_of(
        st.builds(lambda k, d: max(1, k * payload + d),
                  st.integers(0, 600), st.integers(-1, 1)),
        st.integers(1, 1 << 20))


# -- the differentials --------------------------------------------------------


class TestLinkRecurrence:
    @settings(max_examples=150, deadline=None, phases=PHASES)
    @given(data=st.data(), config=pcie_configs)
    def test_pcie_matches_per_call_pricing(self, data, config):
        link = PCIeLink(config)
        ref = ref_pcie(config)
        sizes = data.draw(st.lists(around_payload(config.max_payload_bytes),
                                   min_size=1, max_size=25))
        for size in sizes:
            at = ref.busy + data.draw(st.floats(-1e4, 1e4))
            assert hexes(*link.transfer(size, at)) == hexes(
                *ref.transfer(size, at))
            assert link_state(link) == ref.state()

    @pytest.mark.parametrize("size", [0, -1, -4096])
    def test_non_positive_sizes_raise_and_change_nothing(self, size):
        config = default_config()
        for link in (PCIeLink(config.pcie), SATALink(SATAConfig()),
                     RegisterInterface(DDR4Bus(DDRConfig()))):
            link.transfer(4096, 100.0)
            before = link.statistics()
            with pytest.raises(ValueError, match="positive"):
                link.transfer(size, 0.0)
            # A second attempt raises too: a bad size is never memoised.
            with pytest.raises(ValueError, match="positive"):
                link.transfer(size, 0.0)
            assert link.statistics() == before


class TestRegisterInterfaceRecurrence:
    @settings(max_examples=150, deadline=None, phases=PHASES)
    @given(data=st.data(), config=ddr_configs)
    def test_dma_and_commands_under_lock_contention(self, data, config):
        interface = RegisterInterface(DDR4Bus(config))
        ref = RefRegisterInterface(config)
        operations = data.draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from([1, 64, 4096, 4097,
                                                      131072]),
                      st.floats(-300.0, 300.0)),
            min_size=1, max_size=30))
        for is_dma, size, delta in operations:
            # Arrive around the last release, so some acquisitions contend.
            at = max(0.0, ref.release_at + delta)
            if is_dma:
                assert hexes(*interface.transfer(size, at)) == hexes(
                    *ref.transfer(size, at))
            else:
                assert hexes(interface.deliver_command(at)) == hexes(
                    ref.deliver(at))
            assert interface_state(interface) == ref.state()
        stats = interface.statistics()
        assert stats["lock.acquisitions"] == ref.acquisitions
        assert stats["lock.contended_acquisitions"] == ref.contended
        assert stats["lock.total_held_ns"].hex() == ref.total_held.hex()


class TestRoundTripAndIssue:
    @settings(max_examples=120, deadline=None, phases=PHASES)
    @given(data=st.data(), nvme=nvme_configs, pcie=pcie_configs,
           ddr=ddr_configs, tight=st.booleans())
    def test_mixed_round_trips(self, data, nvme, pcie, ddr, tight):
        if tight:
            link, ref_link = (RegisterInterface(DDR4Bus(ddr)),
                              RefRegisterInterface(ddr))
        else:
            link, ref_link = PCIeLink(pcie), ref_pcie(pcie)
        controller = NVMeController(None, link, nvme)
        log, ref_log = [], []
        step, ref_step = fake_device(log), fake_device(ref_log)
        commands = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 1 << 30),
                      st.sampled_from([512, 4096, 8192, 131072]),
                      st.booleans(), st.floats(0.0, 1e6)),
            min_size=1, max_size=20))
        dma = 0
        for is_write, offset, length, fua, at in commands:
            timing = controller.round_trip(step, is_write, offset, length,
                                           fua, at)
            expected = ref_round_trip(ref_link, nvme, ref_step, is_write,
                                      offset, length, fua, at)
            assert hexes(*timing) == hexes(*expected)
            dma += length
        assert log == ref_log
        assert controller.commands_executed == len(commands)
        assert controller.bytes_dma == dma
        if tight:
            assert interface_state(link) == ref_link.state()
        else:
            assert link_state(link) == ref_link.state()

    @settings(max_examples=120, deadline=None, phases=PHASES)
    @given(data=st.data(), nvme=nvme_configs, pcie=pcie_configs,
           ddr=ddr_configs, tight=st.booleans(), persist=st.booleans())
    def test_engine_issue(self, data, nvme, pcie, ddr, tight, persist):
        if tight:
            link, ref_link = (RegisterInterface(DDR4Bus(ddr)),
                              RefRegisterInterface(ddr))
        else:
            link, ref_link = PCIeLink(pcie), ref_pcie(pcie)
        hams = HAMSConfig(integration="tight" if tight else "loose",
                          mode="persist" if persist else "extend")
        engine = HardwareNVMeEngine(NVMeController(None, link, nvme), hams,
                                    register_interface=link if tight
                                    else None)
        log, ref_log = [], []
        step, ref_step = fake_device(log), fake_device(ref_log)
        busy = 0.0
        commands = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 1 << 20),
                      st.sampled_from([4096, 126976, 131072]),
                      st.floats(0.0, 1e6)),
            min_size=1, max_size=20))
        for is_write, lba, length, at in commands:
            timing = engine.issue(step, is_write, lba, length, at)
            start = max(at, busy) if persist else at
            if tight:
                start = ref_link.deliver(start)
            expected = ref_round_trip(ref_link, nvme, ref_step, is_write,
                                      lba * 512, length,
                                      is_write and persist, start)
            busy = max(busy, expected[0])
            assert hexes(*timing) == hexes(*expected)
            assert hexes(engine.next_available(0.0)) == hexes(
                busy if persist else 0.0)
        assert log == ref_log
        writes = sum(1 for command in commands if command[0])
        assert engine.statistics() == {
            "commands_issued": float(len(commands)),
            "fills_issued": float(len(commands) - writes),
            "evictions_issued": float(writes)}
        if tight:
            assert interface_state(link) == ref_link.state()
        else:
            assert link_state(link) == ref_link.state()


os_configs = st.builds(
    OSStackConfig, page_fault_ns=latency, context_switch_ns=latency,
    filesystem_ns=latency, blk_mq_ns=latency, nvme_driver_ns=latency,
    interrupt_ns=latency, copy_bandwidth_bytes_per_ns=bandwidth)


class RefOSStack:
    def __init__(self, config: OSStackConfig, page_size: int):
        self.config = config
        self.page_size = page_size
        self.faults = 0
        self.switches = 0
        self.mmap = 0.0
        self.io = 0.0
        self.copy = 0.0

    def fault(self, needs_io=True):
        config = self.config
        mmap_ns = config.page_fault_ns + config.context_switch_ns
        io_ns = (config.filesystem_ns + config.blk_mq_ns
                 + config.nvme_driver_ns + config.interrupt_ns
                 if needs_io else 0.0)
        copy_ns = (self.page_size / config.copy_bandwidth_bytes_per_ns
                   if needs_io else 0.0)
        self.faults += 1
        self.switches += 2 if needs_io else 1
        self.mmap += mmap_ns
        self.io += io_ns
        self.copy += copy_ns
        return mmap_ns + io_ns + copy_ns

    def writeback(self):
        config = self.config
        io_ns = (config.filesystem_ns + config.blk_mq_ns
                 + config.nvme_driver_ns + config.interrupt_ns)
        copy_ns = self.page_size / config.copy_bandwidth_bytes_per_ns
        self.io += io_ns
        self.copy += copy_ns
        return io_ns + copy_ns

    def statistics(self):
        return {"page_faults_serviced": float(self.faults),
                "context_switches": float(self.switches),
                "total_mmap_ns": self.mmap,
                "total_io_stack_ns": self.io,
                "total_copy_ns": self.copy}


def hex_values(stats):
    return {key: float(value).hex() for key, value in stats.items()}


class TestOSStackCharges:
    @settings(max_examples=120, deadline=None, phases=PHASES)
    @given(config=os_configs, page=st.sampled_from([512, 3000, 4096, 65536]),
           calls=st.lists(st.sampled_from(["major", "minor", "writeback"]),
                          max_size=40))
    def test_fault_and_writeback_counters(self, config, page, calls):
        stack = OSStorageStack(config, page)
        ref = RefOSStack(config, page)
        for call in calls:
            if call == "writeback":
                got, expected = stack.writeback_cost(), ref.writeback()
            else:
                needs_io = call == "major"
                got = stack.fault_cost(needs_io=needs_io)
                expected = ref.fault(needs_io)
            assert got.hex() == expected.hex()
        assert hex_values(stack.statistics()) == hex_values(ref.statistics())

    @settings(max_examples=60, deadline=None, phases=PHASES)
    @given(data=st.data(), os_config=os_configs, nvme=nvme_configs,
           pcie=pcie_configs)
    def test_mmap_fault_io(self, data, os_config, nvme, pcie):
        """``MmapPlatform._fault_io``: the OS charges, the read of the
        faulting page (and its readahead) and each dirty writeback."""
        config = dataclasses.replace(
            scale_system_config(default_config(), SMOKE_SCALE),
            os_stack=os_config, nvme=nvme, pcie=pcie)
        platform = MmapPlatform(config)
        ref_os = RefOSStack(os_config, 4096)
        ref_link = ref_pcie(pcie)
        log, ref_log = [], []
        step, ref_step = fake_device(log), fake_device(ref_log)
        faults = data.draw(st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(1, 8),
                      st.lists(st.integers(0, 1 << 16), max_size=3),
                      st.floats(0.0, 1e7)),
            min_size=1, max_size=12))
        for page, readahead, victims, at in faults:
            got = platform._fault_io(page, readahead,
                                     [(victim, True) for victim in victims],
                                     at, step)
            os_ns = ref_os.fault()
            read_at = at + os_ns
            storage_ns = ref_round_trip(
                ref_link, nvme, ref_step, False, page * 4096,
                4096 * readahead, False, read_at)[0] - read_at
            writeback_at = at + os_ns + storage_ns
            writeback_os_ns = 0.0
            for victim in victims:
                software_ns = ref_os.writeback()
                finish = ref_round_trip(ref_link, nvme, ref_step, True,
                                        victim * 4096, 4096, False,
                                        writeback_at)[0]
                writeback_os_ns += (software_ns
                                    + (finish - writeback_at) * 0.1)
            assert hexes(*got) == hexes(os_ns + writeback_os_ns, storage_ns)
        assert log == ref_log
        assert platform.major_faults == len(faults)
        assert platform.writebacks == sum(len(f[2]) for f in faults)
        assert hex_values(platform.os_stack.statistics()) == hex_values(
            ref_os.statistics())
        assert link_state(platform.link) == ref_link.state()


# -- FlatFlash's MMIO loop ----------------------------------------------------


def ref_mmio(link, step, hit_ns, page, size, is_write, device_hit, victims,
             promoted, at):
    """One MMIO reference, as FlatFlash specifies it: one 64 B round trip,
    the device cache's hit time or a flash page (then its dirty victims'
    write-backs), one more round trip priced for each further line, and a
    promotion's page read plus 4 KB link transfer, a quarter of it
    exposed."""
    start, finish = link.transfer(64, at)
    latency = finish - start
    if device_hit:
        latency = latency + hit_ns
    else:
        issue = at + latency
        done = step((is_write, page * 4096, 4096, issue, False))
        latency = latency + (done - issue)
        for victim, dirty in victims:
            if dirty:
                step((True, victim * 4096, 4096, done, False))
    lines = max(1, size // 64)
    if lines > 1:
        start, finish = link.transfer(64, at + latency)
        per_line = (finish - start) + hit_ns
        latency = latency + (lines - 1) * per_line
    if promoted:
        issue = at + latency
        done = step((False, page * 4096, 4096, issue, False))
        start, finish = link.transfer(4096, done)
        latency = latency + (done - issue + (finish - start)) * 0.25
    return latency


mmio_references = st.lists(st.tuples(
    st.integers(0, 1 << 16),                       # page
    st.one_of(st.sampled_from([64, 65, 127, 128, 4095, 4096]),
              st.integers(64, 4096)),               # size
    st.booleans(),                                  # is_write
    st.booleans(),                                  # device hit
    st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
             max_size=2),                           # victims of a miss
    st.booleans(),                                  # promoted
    st.one_of(st.lists(st.floats(0.0, 5e4), max_size=3),
              # A stretch of 64+ addends, folded by sequential_add.
              st.builds(lambda count, base: [base * (k % 7 + 1) / 3
                                             for k in range(count)],
                        st.integers(64, 70), st.floats(0.0, 5e4))),
    st.floats(0.0, 50.0)),                          # on-chip latency
    min_size=1, max_size=12)


class TestFlatFlashMMIO:
    @settings(max_examples=150, deadline=None, phases=PHASES)
    @given(data=st.data(), pcie=pcie_configs, hit_ns=latency,
           start=st.floats(0.0, 1e7))
    def test_mmio_replay_matches_per_access_reference(self, data, pcie,
                                                      hit_ns, start):
        smoke = scale_system_config(default_config(), SMOKE_SCALE)
        config = dataclasses.replace(smoke, pcie=pcie, ssd=dataclasses.replace(
            smoke.ssd, dram_buffer_hit_ns=hit_ns))
        platform = FlatFlashPlatform(config, mode="memory")
        log, ref_log = [], []
        step, ref_step = fake_device(log), fake_device(ref_log)
        platform.ssd.walk = lambda: contextlib.nullcontext(step)
        ref_link = ref_pcie(pcie)
        now = start
        promotions = 0
        for _ in range(data.draw(st.integers(1, 3))):
            references = data.draw(mmio_references)
            # The batch timeline: each reference's gap addends, then its
            # own slot (a NaN the loop must never read).
            addends, slots = [], []
            for reference in references:
                addends.extend(reference[6])
                slots.append(len(addends))
                addends.append(math.nan)
            expected = []
            for (page, size, is_write, device_hit, victims, promoted, gap,
                 on_chip) in references:
                for addend in gap:
                    now += addend
                lat = ref_mmio(ref_link, ref_step, hit_ns, page, size,
                               is_write, device_hit,
                               [] if device_hit else victims, promoted, now)
                expected.append(lat)
                promotions += promoted
                now += on_chip + lat
            columns = list(zip(*references))
            got = platform._mmio_replay(
                list(columns[0]), list(columns[1]), list(columns[2]),
                list(columns[3]),
                [victims for hit, victims in zip(columns[3], columns[4])
                 if not hit],
                list(columns[5]), start, np.array(addends), slots,
                list(columns[7]))
            assert hexes(*got) == hexes(*expected)
            assert log == ref_log
            assert link_state(platform.link) == ref_link.state()
            start = now
        assert platform.promotions == promotions
