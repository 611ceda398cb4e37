"""ZFTL behaviour: zone residency, switches, first-tier buffering."""

import random

import pytest

from repro.config import CacheConfig, SimulationConfig, SSDConfig
from repro.experiments.common import ExperimentScale, simulation_config
from repro.experiments.runner import RunSpec, build_spec_trace
from repro.ftl import ZFTL, make_ftl
from repro.recovery import verify_recovery
from repro.ssd import simulate


def make_zftl(budget: int = 600, switch_threshold: int = 4,
              logical_pages: int = 512) -> ZFTL:
    """A ZFTL whose zone spans a controllable number of pages."""
    ssd = SSDConfig(logical_pages=logical_pages, page_size=256,
                    pages_per_block=8)
    config = SimulationConfig(
        ssd=ssd, cache=CacheConfig(budget_bytes=ssd.gtd_bytes + budget))
    return ZFTL(config, switch_threshold=switch_threshold)


class TestZoneResidency:
    def test_first_access_activates_a_zone(self):
        ftl = make_zftl()
        ftl.read_page(10)
        assert ftl.active_zone == ftl.zone_of(10)
        assert ftl.zone_switches == 1

    def test_in_zone_accesses_always_hit(self):
        ftl = make_zftl()
        ftl.read_page(0)   # activates zone 0
        hits_before = ftl.metrics.hits
        reads_before = ftl.metrics.translation_page_reads
        span = ftl.zone_tpages * ftl.geometry.entries_per_page
        for lpn in range(0, min(span, 64), 3):
            ftl.read_page(lpn)
        assert ftl.metrics.hits > hits_before
        assert ftl.metrics.translation_page_reads == reads_before

    def test_zone_sized_from_budget(self):
        small = make_zftl(budget=300)
        large = make_zftl(budget=1200)
        assert large.zone_tpages >= small.zone_tpages


class TestZoneSwitching:
    def test_single_stray_does_not_switch(self):
        ftl = make_zftl(switch_threshold=4)
        ftl.read_page(0)
        zone0 = ftl.active_zone
        far = ftl.zone_tpages * ftl.geometry.entries_per_page * 2
        ftl.read_page(far % 512)
        assert ftl.active_zone == zone0

    def test_sustained_strays_switch(self):
        ftl = make_zftl(switch_threshold=3)
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        for _ in range(3):
            ftl.read_page(far)
        assert ftl.active_zone == ftl.zone_of(far)
        assert ftl.zone_switches == 2

    def test_switch_flushes_dirty_zone(self):
        ftl = make_zftl(switch_threshold=2)
        ftl.write_page(0)
        new_ppn = ftl.cache_peek(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        for _ in range(2):
            ftl.read_page(far)
        assert ftl.flash_table[0] == new_ppn  # persisted by the flush
        assert not ftl.zone_dirty

    def test_switch_cost_visible_in_translation_reads(self):
        ftl = make_zftl(switch_threshold=1)
        ftl.read_page(0)
        reads_after_first = ftl.metrics.trans_reads_load
        assert reads_after_first >= ftl.zone_tpages


class TestFirstTier:
    def test_out_of_zone_write_lands_in_tier1(self):
        ftl = make_zftl(switch_threshold=100)  # effectively pinned zone
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        ftl.write_page(far)
        assert far in ftl.tier1

    def test_tier1_overflow_batch_evicts(self):
        ftl = make_zftl(budget=300, switch_threshold=10_000)
        ftl.read_page(0)
        span = ftl.zone_tpages * ftl.geometry.entries_per_page
        writes_before = ftl.metrics.trans_writes_writeback
        lpn = span
        wrote = 0
        while wrote <= ftl.tier1_capacity:
            if ftl.zone_of(lpn % 512) != ftl.active_zone:
                ftl.write_page(lpn % 512)
                wrote += 1
            lpn += 1
        assert ftl.metrics.trans_writes_writeback > writes_before

    def test_tier1_entry_is_a_hit(self):
        ftl = make_zftl(switch_threshold=10_000)
        ftl.read_page(0)
        far = (ftl.zone_tpages * ftl.geometry.entries_per_page) % 512
        if ftl.zone_of(far) == ftl.active_zone:
            pytest.skip("zone covers the whole device at this budget")
        ftl.write_page(far)
        hits = ftl.metrics.hits
        ftl.read_page(far)
        assert ftl.metrics.hits == hits + 1

    def _far_zone_lpns(self, ftl):
        """Two LPNs of one zone other than the active zone 0."""
        span = ftl.zone_tpages * ftl.geometry.entries_per_page
        if span * 2 > 512:
            pytest.skip("zone covers the whole device at this budget")
        return span, span + 1

    def test_switch_absorbs_the_incoming_zones_tier1_entries(self):
        """Regression: a switch into a zone left its buffered updates in
        tier1 while translation served the stale on-flash mapping."""
        ftl = make_zftl(switch_threshold=4)
        ftl.read_page(0)
        far, neighbour = self._far_zone_lpns(ftl)
        ftl.write_page(far)
        newest = ftl.tier1[far]
        while ftl.active_zone != ftl.zone_of(far):
            ftl.read_page(neighbour)
        assert far not in ftl.tier1
        assert ftl.zone_dirty[far] == newest
        assert ftl.lookup_current(far) == newest
        ftl.read_page(far)
        ftl.check_consistency()

    def test_tier1_hit_that_switches_zones_serves_the_newest_ppn(self):
        """The access that triggers the switch is itself a tier1 hit:
        its PPN is read before the switch moves the entry."""
        ftl = make_zftl(switch_threshold=4)
        ftl.read_page(0)
        far, neighbour = self._far_zone_lpns(ftl)
        ftl.write_page(far)
        newest = ftl.tier1[far]
        # the write was the first stray access of the streak
        for _ in range(ftl.switch_threshold - 2):
            ftl.read_page(neighbour)
        assert ftl.active_zone == 0
        reads = ftl.flash.stats.data_reads
        ftl.read_page(far)  # the switching access
        assert ftl.active_zone == ftl.zone_of(far)
        assert ftl.flash.stats.data_reads == reads + 1
        assert ftl.lookup_current(far) == newest
        ftl.check_consistency()


class TestEndToEnd:
    def test_msr_trace_at_parity_scale_stays_consistent(self):
        """Regression: msr-ts and msr-src at 2,500 requests crashed
        invalidating an already-invalid page (stale zone mapping)."""
        scale = ExperimentScale(num_requests=2_500, warmup_requests=500)
        for workload in ("msr-ts", "msr-src"):
            trace = build_spec_trace(RunSpec(workload=workload,
                                             ftl="zftl", scale=scale))
            ftl = make_ftl("zftl", simulation_config(trace))
            result = simulate(ftl, trace, warmup_requests=500)
            assert result.requests == 2_000
            ftl.check_consistency()

    def test_consistency_and_recovery_after_stress(self):
        ftl = make_zftl(switch_threshold=4)
        rng = random.Random(19)
        for _ in range(700):
            lpn = rng.randrange(512)
            if rng.random() < 0.7:
                ftl.write_page(lpn)
            else:
                ftl.read_page(lpn)
        ftl.flush()
        ftl.check_consistency()
        verify_recovery(ftl)

    def test_zoned_locality_wins_over_scattered(self):
        """ZFTL's signature: great when the working set fits one zone,
        poor when accesses ping-pong across zones."""
        rng = random.Random(23)
        zoned = make_zftl(switch_threshold=4)
        span = zoned.zone_tpages * zoned.geometry.entries_per_page
        for _ in range(500):
            zoned.read_page(rng.randrange(min(span, 512)))
        scattered = make_zftl(switch_threshold=4)
        for _ in range(500):
            scattered.read_page(rng.randrange(512))
        assert (zoned.metrics.hit_ratio
                > scattered.metrics.hit_ratio)
