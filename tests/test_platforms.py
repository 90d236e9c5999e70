"""Platform models: construction, replay, and per-platform behaviour.

The per-access checks serve single accesses through the per-access
reference of ``tests/oracles/``, which calls each platform's own device
helpers.
"""

import numpy as np
import pytest

from oracles import service_access
from repro.config import default_config
from repro.platforms.base import MemoryServiceBatch
from repro.platforms.bypass import BypassPlatform
from repro.platforms.flatflash import FlatFlashPlatform
from repro.platforms.hams_platform import HAMSPlatform
from repro.platforms.mmap_platform import MmapPlatform
from repro.platforms.nvdimm_c import NvdimmCPlatform
from repro.platforms.optane import OptanePlatform
from repro.platforms.oracle import OraclePlatform
from repro.platforms.registry import PLATFORM_NAMES, available_platforms, create_platform
from repro.units import KB
from repro.workloads.registry import ExperimentScale, build_trace, scale_system_config

SCALE = ExperimentScale(capacity_scale=1 / 512, min_accesses=200,
                        max_accesses=400)
CONFIG = scale_system_config(default_config(), SCALE)


def small_trace(name: str = "seqRd"):
    return build_trace(name, SCALE)


class TestRegistry:
    def test_all_paper_platforms_constructible(self):
        for name in PLATFORM_NAMES:
            platform = create_platform(name, CONFIG)
            assert platform.name == name

    def test_available_platforms_superset_of_paper_list(self):
        assert set(PLATFORM_NAMES).issubset(set(available_platforms()))

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            create_platform("warp-drive", CONFIG)

    def test_default_config_used_when_omitted(self):
        platform = create_platform("oracle")
        assert platform.config.nvdimm.capacity_bytes == \
            default_config().nvdimm.capacity_bytes


class TestMemoryServiceBatch:
    def test_rejects_negative_latencies(self):
        with pytest.raises(ValueError):
            MemoryServiceBatch(latency_ns=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            MemoryServiceBatch(latency_ns=np.zeros(2),
                               storage_ns=np.array([0.0, -1.0]))


class TestOracle:
    def test_every_access_is_dram_speed(self):
        platform = OraclePlatform(CONFIG)
        latency_ns, os_ns, storage_ns = service_access(platform, 0, 64,
                                                       False, 0.0)
        assert latency_ns < 200.0
        assert os_ns == 0.0
        assert storage_ns == 0.0

    def test_run_produces_result(self):
        result = OraclePlatform(CONFIG).run(small_trace())
        assert result.platform == "oracle"
        assert result.operations_per_second > 0
        assert result.os_ns == 0.0
        assert result.energy.total_nj > 0


class TestMmap:
    def test_page_fault_charges_os_and_storage(self):
        platform = MmapPlatform(CONFIG)
        platform.prepare(small_trace())
        _, os_ns, storage_ns = service_access(platform, 0, KB(4), False, 0.0)
        assert os_ns > 0
        assert storage_ns > 0

    def test_resident_page_is_cheap(self):
        platform = MmapPlatform(CONFIG)
        platform.prepare(small_trace())
        service_access(platform, 0, KB(4), False, 0.0)
        latency_ns, os_ns, _ = service_access(platform, 0, KB(4), False, 1e6)
        assert os_ns == 0.0
        assert latency_ns < 5_000.0

    def test_sequential_faults_use_readahead(self):
        platform = MmapPlatform(CONFIG)
        platform.prepare(small_trace())
        service_access(platform, 0, KB(4), False, 0.0)
        service_access(platform, KB(4), KB(4), False, 1e6)
        assert platform.readahead_fills > 0

    def test_run_has_significant_os_share(self):
        """Figure 7a / 17: the mmap path is dominated by software overhead."""
        result = MmapPlatform(CONFIG).run(small_trace("rndRd"))
        fractions = result.breakdown_fractions()
        assert fractions["os"] > 0.2

    def test_ssd_kinds(self):
        for kind in ("ull-flash", "nvme-ssd", "sata-ssd"):
            platform = MmapPlatform(CONFIG, ssd_kind=kind)
            assert platform.ssd.config.name == kind

    def test_ull_faster_than_sata_for_mmap(self):
        """Figure 6 shape: the MMF system is fastest on ULL-Flash."""
        trace = small_trace("rndRd")
        ull = MmapPlatform(CONFIG, ssd_kind="ull-flash").run(trace)
        sata = MmapPlatform(CONFIG, ssd_kind="sata-ssd").run(trace)
        assert ull.operations_per_second > sata.operations_per_second


class TestBypass:
    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            BypassPlatform(CONFIG, strategy="bogus")

    def test_ipc_ordering_matches_figure_7b(self):
        """NVDIMM >> ULL-buff > ULL in IPC."""
        trace = small_trace("rndRd")
        ipc = {}
        for strategy in ("nvdimm", "ull", "ull-buff"):
            platform = BypassPlatform(CONFIG, strategy=strategy)
            ipc[strategy] = platform.run(trace).ipc
        assert ipc["nvdimm"] > ipc["ull-buff"] > ipc["ull"]
        assert ipc["ull"] < 0.5 * ipc["nvdimm"]


class TestOptane:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            OptanePlatform(CONFIG, mode="bogus")

    def test_persist_mode_has_no_dram_cache(self):
        platform = OptanePlatform(CONFIG, mode="persist")
        assert platform.dram_cache is None

    def test_memory_mode_beats_persist_on_fine_grained(self):
        """Fine-grained workloads benefit from the DRAM cache (Section VI-B)."""
        trace = small_trace("update")
        persist = OptanePlatform(CONFIG, mode="persist").run(trace)
        memory = OptanePlatform(CONFIG, mode="memory").run(trace)
        assert memory.operations_per_second >= persist.operations_per_second * 0.95

    def test_fine_grained_wastes_optane_bandwidth(self):
        platform = OptanePlatform(CONFIG, mode="persist")
        platform.run(small_trace("update"))
        assert platform.optane.bandwidth_waste_ratio > 1.5


class TestFlatFlash:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            FlatFlashPlatform(CONFIG, mode="bogus")

    def test_page_granular_access_is_very_slow(self):
        """Figure 16a: flatflash-P underperforms mmap on the microbenchmark."""
        trace = small_trace("seqRd")
        flatflash = FlatFlashPlatform(CONFIG, mode="persist").run(trace)
        mmap = MmapPlatform(CONFIG).run(trace)
        assert flatflash.operations_per_second < mmap.operations_per_second

    def test_memory_mode_promotes_hot_pages(self):
        platform = FlatFlashPlatform(CONFIG, mode="memory")
        result = platform.run(small_trace("update"))
        assert platform.promotions > 0
        assert result.operations_per_second > 0


class TestNvdimmC:
    def test_migration_latency_dominates_misses(self):
        platform = NvdimmCPlatform(CONFIG)
        platform.prepare(small_trace())
        latency_ns, _, _ = service_access(platform, 0, 64, False, 0.0)
        assert latency_ns >= platform.migration_latency_ns

    def test_hit_after_migration_is_fast(self):
        platform = NvdimmCPlatform(CONFIG)
        platform.prepare(small_trace())
        service_access(platform, 0, 64, False, 0.0)
        latency_ns, _, _ = service_access(platform, 0, 64, False, 1e6)
        assert latency_ns < 1_000.0


class TestHAMSPlatform:
    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            HAMSPlatform(CONFIG, variant="hams-XX")

    def test_variant_configuration(self):
        platform = HAMSPlatform(CONFIG, variant="hams-TP")
        assert platform.controller.hams_config.is_tight
        assert platform.controller.hams_config.is_persist

    def test_no_os_time_in_breakdown(self):
        """HAMS serves every request in hardware: no OS or SSD slices."""
        result = HAMSPlatform(CONFIG, variant="hams-TE").run(small_trace())
        assert result.os_ns == 0.0
        assert result.ssd_ns == 0.0

    def test_memory_delay_breakdown_present(self):
        result = HAMSPlatform(CONFIG, variant="hams-LE").run(small_trace())
        assert result.memory_delay["total_ns"] > 0

    def test_extend_beats_persist(self):
        trace = small_trace("seqWr")
        persist = HAMSPlatform(CONFIG, variant="hams-TP").run(trace)
        extend = HAMSPlatform(CONFIG, variant="hams-TE").run(trace)
        assert extend.operations_per_second > persist.operations_per_second

    def test_power_failure_passthrough(self):
        platform = HAMSPlatform(CONFIG, variant="hams-LE")
        platform.run(small_trace())
        down = platform.power_failure(at_ns=1e9)
        report = platform.recover(at_ns=down)
        assert report.consistent


class TestCrossPlatformShape:
    def test_hams_te_beats_mmap_on_microbench(self):
        trace = small_trace("seqRd")
        hams = HAMSPlatform(CONFIG, variant="hams-TE").run(trace)
        mmap = MmapPlatform(CONFIG).run(trace)
        assert hams.operations_per_second > mmap.operations_per_second

    def test_oracle_is_best(self):
        trace = small_trace("seqRd")
        oracle = OraclePlatform(CONFIG).run(trace)
        hams = HAMSPlatform(CONFIG, variant="hams-TE").run(trace)
        assert oracle.operations_per_second >= hams.operations_per_second

    def test_run_result_breakdown_sums_to_total(self):
        for name in ("mmap", "hams-TE", "oracle"):
            result = create_platform(name, CONFIG).run(small_trace())
            assert result.total_ns == pytest.approx(
                result.app_ns + result.os_ns + result.ssd_ns, rel=1e-6)

    def test_run_result_serialisable_fields(self):
        result = create_platform("hams-TE", CONFIG).run(small_trace())
        assert result.instructions > 0
        assert result.memory_accesses == len(small_trace())
        assert 0 < result.ipc <= 4
        assert result.kilo_pages_per_second == pytest.approx(
            result.operations_per_second / 1e3)
