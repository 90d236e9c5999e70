"""Configuration dataclasses: defaults mirror Table II and validate inputs."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CPUConfig,
    DDRConfig,
    FlashGeometry,
    FlashTiming,
    HAMSConfig,
    NVDIMMConfig,
    NVMeConfig,
    OptaneConfig,
    OSStackConfig,
    PCIeConfig,
    SSDConfig,
    SystemConfig,
    default_config,
)
from repro.units import GB, KB, MB


class TestFlashTiming:
    def test_znand_latencies_match_paper(self):
        timing = FlashTiming.znand()
        assert timing.read_ns == 3_000.0
        assert timing.program_ns == 100_000.0

    def test_vnand_is_slower_than_znand(self):
        znand = FlashTiming.znand()
        vnand = FlashTiming.vnand_tlc()
        assert vnand.read_ns > znand.read_ns
        assert vnand.program_ns > znand.program_ns

    def test_vnand_ratios_match_paper(self):
        # Z-NAND read/write are 15x / 7x lower than V-NAND.
        znand = FlashTiming.znand()
        vnand = FlashTiming.vnand_tlc()
        assert vnand.read_ns / znand.read_ns == pytest.approx(15.0)
        assert vnand.program_ns / znand.program_ns == pytest.approx(7.0)


class TestFlashGeometry:
    def test_capacity_composition(self):
        geometry = FlashGeometry()
        expected_raw = (geometry.channels * geometry.packages_per_channel
                        * geometry.dies_per_package * geometry.planes_per_die
                        * geometry.blocks_per_plane * geometry.pages_per_block
                        * geometry.page_size)
        assert geometry.raw_capacity_bytes == expected_raw

    def test_usable_capacity_reflects_overprovisioning(self):
        geometry = FlashGeometry()
        assert geometry.usable_capacity_bytes < geometry.raw_capacity_bytes

    def test_logical_pages(self):
        geometry = FlashGeometry()
        assert geometry.logical_pages == (geometry.usable_capacity_bytes
                                          // geometry.page_size)


class TestSSDConfig:
    def test_ull_flash_capacity(self):
        config = SSDConfig.ull_flash(GB(800))
        assert config.geometry.usable_capacity_bytes >= GB(800)
        assert config.name == "ull-flash"
        assert config.split_channels is True

    def test_nvme_ssd_uses_slower_flash(self):
        ull = SSDConfig.ull_flash()
        nvme = SSDConfig.nvme_ssd()
        assert nvme.timing.read_ns > ull.timing.read_ns
        assert nvme.split_channels is False

    def test_sata_ssd_has_lower_channel_bandwidth(self):
        sata = SSDConfig.sata_ssd()
        ull = SSDConfig.ull_flash()
        assert sata.channel_bw_bytes_per_ns < ull.channel_bw_bytes_per_ns

    def test_default_buffer_is_512mb(self):
        assert SSDConfig().dram_buffer_bytes == MB(512)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_queue_holds_a_request(self, depth):
        with pytest.raises(ValueError, match="max_outstanding"):
            SSDConfig(max_outstanding=depth)
        assert SSDConfig(max_outstanding=1).max_outstanding == 1

    def test_buffer_size_is_non_negative(self):
        with pytest.raises(ValueError, match="dram_buffer_bytes"):
            SSDConfig(dram_buffer_bytes=-KB(4))
        assert SSDConfig(dram_buffer_bytes=0).dram_buffer_bytes == 0

    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["firmware_latency_ns",
                                      "dram_buffer_hit_ns"])
    def test_latencies_are_finite_and_non_negative(self, name, latency):
        with pytest.raises(ValueError, match=name):
            SSDConfig(**{name: latency})
        assert getattr(SSDConfig(**{name: 0.0}), name) == 0.0


class TestCPUConfig:
    @pytest.mark.parametrize("frequency", [0.0, -2.0, float("nan"),
                                           float("inf")])
    def test_frequency_is_finite_and_positive(self, frequency):
        with pytest.raises(ValueError, match="frequency_ghz"):
            CPUConfig(frequency_ghz=frequency)
        assert CPUConfig(frequency_ghz=0.5).cycle_ns == 2.0


class TestOSStackConfig:
    @pytest.mark.parametrize("latency", [-5.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["page_fault_ns", "context_switch_ns",
                                      "filesystem_ns", "blk_mq_ns",
                                      "nvme_driver_ns", "interrupt_ns"])
    def test_latencies_are_finite_and_non_negative(self, name, latency):
        with pytest.raises(ValueError, match=name):
            OSStackConfig(**{name: latency})
        assert getattr(OSStackConfig(**{name: 0.0}), name) == 0.0

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_copy_bandwidth_is_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="copy_bandwidth_bytes_per_ns"):
            OSStackConfig(copy_bandwidth_bytes_per_ns=bandwidth)

    def test_readahead_covers_the_faulting_page(self):
        with pytest.raises(ValueError, match="readahead_pages"):
            OSStackConfig(readahead_pages=0)
        assert OSStackConfig(readahead_pages=1).readahead_pages == 1


class TestNVDIMMConfig:
    def test_default_capacity_is_8gb(self):
        assert NVDIMMConfig().capacity_bytes == GB(8)

    @pytest.mark.parametrize("capacity", [float("nan"), -1, MB(1),
                                          1.5 * GB(1), True, "8GB"])
    def test_capacity_is_an_integer_covering_the_pinned_region(self,
                                                               capacity):
        with pytest.raises(ValueError, match="capacity_bytes"):
            NVDIMMConfig(capacity_bytes=capacity)
        assert NVDIMMConfig(capacity_bytes=MB(512)).cacheable_bytes == 0

    @pytest.mark.parametrize("pinned", [-1, float("nan")])
    def test_pinned_region_is_a_non_negative_integer(self, pinned):
        with pytest.raises(ValueError, match="pinned_region_bytes"):
            NVDIMMConfig(pinned_region_bytes=pinned)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"),
                                           float("inf")])
    @pytest.mark.parametrize("name", ["backup_bandwidth_bytes_per_ns",
                                      "restore_bandwidth_bytes_per_ns"])
    def test_bandwidths_are_finite_and_positive(self, name, bandwidth):
        with pytest.raises(ValueError, match=name):
            NVDIMMConfig(**{name: bandwidth})

    def test_pinned_region_is_512mb(self):
        assert NVDIMMConfig().pinned_region_bytes == MB(512)

    def test_cacheable_excludes_pinned(self):
        config = NVDIMMConfig()
        assert config.cacheable_bytes == GB(8) - MB(512)


class TestHAMSConfig:
    def test_defaults(self):
        config = HAMSConfig()
        assert config.mos_page_bytes == KB(128)
        assert config.integration == "loose"
        assert config.mode == "extend"

    def test_invalid_integration_rejected(self):
        with pytest.raises(ValueError):
            HAMSConfig(integration="bogus")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            HAMSConfig(mode="bogus")

    def test_mos_page_must_be_multiple_of_4k(self):
        with pytest.raises(ValueError):
            HAMSConfig(mos_page_bytes=KB(3))

    def test_mode_properties(self):
        assert HAMSConfig(mode="persist").is_persist
        assert not HAMSConfig(mode="extend").is_persist
        assert HAMSConfig(integration="tight").is_tight


class TestCacheConfig:
    def test_defaults_are_valid(self):
        config = CacheConfig()
        assert (config.line_size, config.l1_size_bytes) == (64, KB(64))

    @pytest.mark.parametrize("line_size", [0, -64])
    def test_line_size_must_be_positive(self, line_size):
        with pytest.raises(ValueError, match="line_size"):
            CacheConfig(line_size=line_size)

    @pytest.mark.parametrize("level", ["l1_size_bytes", "l2_size_bytes"])
    def test_each_level_holds_a_line(self, level):
        with pytest.raises(ValueError, match="at least one line"):
            CacheConfig(**{level: 32})
        assert getattr(CacheConfig(**{level: 64}), level) == 64

    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("level", ["l1_latency_ns", "l2_latency_ns"])
    def test_latencies_are_finite_and_non_negative(self, level, latency):
        with pytest.raises(ValueError, match=level):
            CacheConfig(**{level: latency})
        assert getattr(CacheConfig(**{level: 0.0}), level) == 0.0


class TestPCIeConfig:
    def test_default_is_four_lane_gen3(self):
        config = PCIeConfig()
        assert config.lanes == 4
        # ~4 GB/s aggregate.
        assert config.bandwidth_bytes_per_ns == pytest.approx(
            4 * config.per_lane_bw_bytes_per_ns)


    @pytest.mark.parametrize("lanes", [0, -4, 1.5, float("nan")])
    def test_lanes_are_a_positive_integer(self, lanes):
        with pytest.raises(ValueError, match="lanes"):
            PCIeConfig(lanes=lanes)
        assert PCIeConfig(lanes=1).lanes == 1

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"),
                                           float("inf"), 1e308])
    def test_bandwidth_is_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="per_lane_bw_bytes_per_ns"):
            PCIeConfig(per_lane_bw_bytes_per_ns=bandwidth)

    @pytest.mark.parametrize("overhead", [-1.0, float("nan"), float("inf")])
    def test_packet_overhead_is_finite_and_non_negative(self, overhead):
        with pytest.raises(ValueError, match="packet_overhead_ns"):
            PCIeConfig(packet_overhead_ns=overhead)
        assert PCIeConfig(packet_overhead_ns=0.0).packet_overhead_ns == 0.0

    @pytest.mark.parametrize("payload", [0, -256, 64.5])
    def test_max_payload_is_a_positive_integer(self, payload):
        with pytest.raises(ValueError, match="max_payload_bytes"):
            PCIeConfig(max_payload_bytes=payload)


class TestNVMeConfig:
    @pytest.mark.parametrize("latency", [-5.0, float("nan"), float("inf"),
                                         "fast"])
    @pytest.mark.parametrize("name", ["doorbell_ns", "msi_ns",
                                      "controller_processing_ns"])
    def test_latencies_are_finite_and_non_negative(self, name, latency):
        with pytest.raises(ValueError, match=name):
            NVMeConfig(**{name: latency})
        assert getattr(NVMeConfig(**{name: 0.0}), name) == 0.0


class TestSystemConfig:
    def test_default_config_builds(self):
        config = default_config()
        assert isinstance(config, SystemConfig)
        assert config.nvdimm.capacity_bytes == GB(8)

    def test_with_hams_returns_modified_copy(self):
        config = default_config()
        modified = config.with_hams(mode="persist")
        assert modified.hams.mode == "persist"
        assert config.hams.mode == "extend"

    def test_configs_are_frozen(self):
        config = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.nvdimm.capacity_bytes = 1  # type: ignore[misc]


class TestOptaneConfig:
    def test_default_capacity(self):
        assert OptaneConfig().capacity_bytes == GB(512)

    def test_internal_block_granularity(self):
        assert OptaneConfig().internal_block_bytes == 256


class TestDDRConfig:
    def test_channel_bandwidth_is_about_20gbps(self):
        config = DDRConfig()
        # 20 GB/s/channel as quoted in Section IV-C.
        assert config.channel_bw_bytes_per_ns == pytest.approx(
            20 * 1024 ** 3 / 1e9)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_bandwidth_is_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="channel_bw_bytes_per_ns"):
            DDRConfig(channel_bw_bytes_per_ns=bandwidth)

    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["tCL_ns", "tRCD_ns", "tRP_ns",
                                      "tBURST_ns", "register_command_ns",
                                      "lock_register_ns"])
    def test_latencies_are_finite_and_non_negative(self, name, latency):
        with pytest.raises(ValueError, match=name):
            DDRConfig(**{name: latency})
        assert getattr(DDRConfig(**{name: 0.0}), name) == 0.0
