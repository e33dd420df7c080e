"""CostModel: structure, derived costs, and replace()."""

import dataclasses

import pytest

from repro.calibration import DEFAULT_COSTS, CostModel


class TestDerivedCosts:
    def test_copy_cost_linear(self):
        assert DEFAULT_COSTS.copy_cost(0) == 0
        assert DEFAULT_COSTS.copy_cost(2000) == pytest.approx(
            2 * DEFAULT_COSTS.copy_cost(1000)
        )

    def test_wire_time_includes_frame_overhead(self):
        c = DEFAULT_COSTS
        assert c.wire_time(0) == pytest.approx(c.wire_frame_overhead / c.wire_bps)
        # a 1500-byte frame on 1 Gbps takes ~12 us
        assert 11e-6 < c.wire_time(1500) < 14e-6

    def test_checksum_and_dma(self):
        c = DEFAULT_COSTS
        assert c.checksum_cost(4096) > 0
        assert c.dma_cost(4096) < c.copy_cost(4096)  # DMA beats memcpy


class TestReplace:
    def test_replace_returns_new_instance(self):
        other = DEFAULT_COSTS.replace(discovery_period=1.0)
        assert other.discovery_period == 1.0
        assert DEFAULT_COSTS.discovery_period == 5.0
        assert other is not DEFAULT_COSTS

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COSTS.discovery_period = 2.0

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            DEFAULT_COSTS.replace(nonexistent_knob=1.0)


class TestPaperDefaults:
    def test_paper_constants(self):
        """Values the paper states explicitly."""
        assert DEFAULT_COSTS.discovery_period == 5.0  # Sect. 3.2
        assert DEFAULT_COSTS.bootstrap_retries == 3  # Sect. 3.3
        assert DEFAULT_COSTS.wire_bps == 125e6  # 1 Gbps testbed
        assert DEFAULT_COSTS.ring_size == 256

    def test_all_times_positive(self):
        for field in dataclasses.fields(CostModel):
            assert getattr(DEFAULT_COSTS, field.name) >= 0, field.name
