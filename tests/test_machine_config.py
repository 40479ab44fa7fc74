"""Unit tests for machine configuration validation."""

import pytest

from repro.hardware import IBM_3350
from repro.machine import MachineConfig


class TestMachineConfig:
    def test_defaults_match_paper_baseline(self):
        config = MachineConfig()
        assert config.n_query_processors == 25
        assert config.cache_frames == 100
        assert config.n_data_disks == 2
        assert not config.parallel_data_disks
        assert config.disk is IBM_3350

    def test_database_must_fit_usable_region(self):
        with pytest.raises(ValueError):
            MachineConfig(db_pages=10**9)

    def test_reserved_region_geometry(self):
        config = MachineConfig(reserved_cylinders=50)
        assert config.reserved_start_cylinder == 505
        # 505 usable cylinders of 120 pages on each of the two data disks.
        assert MachineConfig(db_pages=505 * 120 * 2).db_pages == 505 * 120 * 2
        with pytest.raises(ValueError):
            MachineConfig(db_pages=505 * 120 * 2 + 1)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            MachineConfig(n_query_processors=0)
        with pytest.raises(ValueError):
            MachineConfig(mpl=0)
        with pytest.raises(ValueError):
            MachineConfig(prefetch_window=0)
        with pytest.raises(ValueError):
            MachineConfig(cache_frames=2, mpl=3)

    def test_with_overrides(self):
        config = MachineConfig().with_overrides(n_query_processors=75)
        assert config.n_query_processors == 75
        assert config.cache_frames == 100

    def test_cost_model_override(self):
        from repro.hardware import CostModel

        config = MachineConfig(cost=CostModel(scan_page=1000))
        assert config.cost.scan_page == 1000


class TestResilienceFields:
    def test_defaults(self):
        config = MachineConfig()
        assert not config.mirrored_data_disks
        assert not config.scrub_enabled
        assert config.scrub_io_share == 0.1
        assert config.scrub_interval_ms == 50.0

    def test_round_trip_through_overrides(self):
        config = MachineConfig().with_overrides(
            mirrored_data_disks=True,
            scrub_enabled=True,
            scrub_io_share=0.25,
            scrub_interval_ms=0.0,
        )
        assert config.mirrored_data_disks
        assert config.scrub_enabled
        assert config.scrub_io_share == 0.25
        assert config.scrub_interval_ms == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(scrub_io_share=0.0)
        with pytest.raises(ValueError):
            MachineConfig(scrub_io_share=1.5)
        with pytest.raises(ValueError):
            MachineConfig(scrub_interval_ms=-1.0)
