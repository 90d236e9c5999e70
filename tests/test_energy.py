"""Energy models and accounting (Figure 19 machinery)."""

import pytest

from repro.config import EnergyConfig
from repro.energy.accounting import EnergyAccount, EnergyBreakdown
from repro.energy.models import ComponentPowerModel, EnergyModel
from repro.units import GB, KB, MB


class TestComponentPowerModel:
    def test_energy_is_power_times_time(self):
        model = ComponentPowerModel("cpu", active_w=10.0, idle_w=2.0)
        assert model.energy_nj(1000.0, 500.0) == pytest.approx(11_000.0)

    def test_negative_durations_rejected(self):
        model = ComponentPowerModel("cpu", 10.0, 2.0)
        with pytest.raises(ValueError):
            model.energy_nj(-1.0, 0.0)


class TestEnergyModel:
    def test_cpu_idle_cheaper_than_active(self):
        model = EnergyModel(EnergyConfig(), GB(8))
        active = model.cpu_energy_nj(1e9, 0.0)
        idle = model.cpu_energy_nj(0.0, 1e9)
        assert idle < active

    def test_nvdimm_energy_scales_with_capacity(self):
        small = EnergyModel(EnergyConfig(), GB(8))
        large = EnergyModel(EnergyConfig(), GB(64))
        duration = 1e8
        assert (large.nvdimm_energy_nj(duration, 0.0, 0)
                > small.nvdimm_energy_nj(duration, 0.0, 0))

    def test_internal_dram_removed_in_advanced_hams(self):
        with_buffer = EnergyModel(EnergyConfig(), GB(8),
                                  ssd_internal_dram_present=True)
        without_buffer = EnergyModel(EnergyConfig(), GB(8),
                                     ssd_internal_dram_present=False)
        assert with_buffer.internal_dram_energy_nj(1e9, MB(1)) > 0
        assert without_buffer.internal_dram_energy_nj(1e9, MB(1)) == 0

    def test_znand_program_costs_more_than_read(self):
        model = EnergyModel(EnergyConfig(), GB(8))
        read = model.znand_energy_nj(100, 0, 0.0)
        program = model.znand_energy_nj(0, 100, 0.0)
        assert program > read

    def test_znand_rejects_negative_counts(self):
        model = EnergyModel(EnergyConfig(), GB(8))
        with pytest.raises(ValueError):
            model.znand_energy_nj(-1, 0, 0.0)

    def test_pcie_costs_more_per_byte_than_ddr(self):
        model = EnergyModel(EnergyConfig(), GB(8))
        assert (model.interconnect_energy_nj(pcie_bytes=MB(1), ddr_bytes=0)
                > model.interconnect_energy_nj(pcie_bytes=0, ddr_bytes=MB(1)))


class TestEnergyBreakdown:
    def test_total(self):
        breakdown = EnergyBreakdown(cpu_nj=1.0, nvdimm_nj=2.0,
                                    internal_dram_nj=3.0, znand_nj=4.0)
        assert breakdown.total_nj == 10.0

    def test_normalised_to_baseline(self):
        baseline = EnergyBreakdown(cpu_nj=5.0, nvdimm_nj=5.0,
                                   internal_dram_nj=0.0, znand_nj=0.0)
        other = EnergyBreakdown(cpu_nj=2.0, nvdimm_nj=2.0,
                                internal_dram_nj=1.0, znand_nj=0.0)
        normalised = other.normalised_to(baseline)
        assert normalised["total"] == pytest.approx(0.5)
        assert normalised["cpu"] == pytest.approx(0.2)

    def test_normalise_to_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            EnergyBreakdown().normalised_to(EnergyBreakdown())


class TestEnergyAccount:
    def test_finalise_derives_idle_time(self):
        account = EnergyAccount()
        account.charge_cpu(busy_ns=300.0)
        account.charge_nvdimm(active_ns=100.0, bytes_moved=KB(4))
        account.finalise(1000.0)
        assert account.cpu_idle_ns == pytest.approx(700.0)
        assert account.nvdimm_idle_ns == pytest.approx(900.0)

    def test_finalise_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            EnergyAccount().finalise(-1.0)

    def test_breakdown_uses_all_categories(self):
        account = EnergyAccount()
        account.charge_cpu(busy_ns=1000.0)
        account.charge_nvdimm(active_ns=500.0, bytes_moved=KB(128))
        account.charge_internal_dram(KB(128))
        account.charge_flash(page_reads=10, page_programs=2)
        account.charge_link(pcie_bytes=KB(128))
        account.finalise(2000.0)
        breakdown = account.breakdown(EnergyModel(EnergyConfig(), GB(8)))
        assert breakdown.cpu_nj > 0
        assert breakdown.nvdimm_nj > 0
        assert breakdown.internal_dram_nj > 0
        assert breakdown.znand_nj > 0

    def test_longer_runtime_increases_idle_energy(self):
        """The core of the paper's energy argument: mmap's longer runtime
        costs CPU/DRAM idle energy even with identical device activity."""
        model = EnergyModel(EnergyConfig(), GB(8))

        def breakdown_for(duration_ns):
            account = EnergyAccount()
            account.charge_cpu(busy_ns=1_000_000.0)
            account.charge_flash(page_reads=100, page_programs=10)
            account.finalise(duration_ns)
            return account.breakdown(model)

        short = breakdown_for(2_000_000.0)
        long = breakdown_for(10_000_000.0)
        assert long.total_nj > short.total_nj
