"""Crash recovery: flash scans rebuild the exact live mapping."""

import random

import pytest

from repro.errors import FTLError
from repro.ftl import make_ftl
from repro.recovery import (recover, recovery_report, scan_flash,
                            verify_recovery)

from conftest import per_op_ftl
from test_integration import ALL_FTLS, config_for


def stress(ftl, steps=400, seed=1):
    rng = random.Random(seed)
    for _ in range(steps):
        lpn = rng.randrange(512)
        if rng.random() < 0.7:
            ftl.write_page(lpn)
        else:
            ftl.read_page(lpn)


class TestScan:
    def test_prefilled_device_fully_recoverable(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        state = recover(ftl)
        assert state.mapped_pages() == ftl.ssd.logical_pages
        assert len(state.gtd) == ftl.geometry.translation_pages

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_recovery_matches_live_view_after_stress(self, name):
        ftl = make_ftl(name, config_for(name))
        stress(ftl)
        verify_recovery(ftl)

    def test_duplicate_lpn_detected(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        # forge a duplicate claim by programming a second page for LPN 0
        from repro.types import PageKind
        ftl.flash.program(PageKind.DATA, meta=0)
        with pytest.raises(FTLError):
            scan_flash(ftl.flash, ftl.ssd.logical_pages)

    def test_out_of_range_lpn_detected(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        from repro.types import PageKind
        ftl.flash.program(PageKind.DATA, meta=99999)
        with pytest.raises(FTLError):
            scan_flash(ftl.flash, ftl.ssd.logical_pages)

    def test_negative_lpn_detected(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        from repro.types import PageKind
        ftl.flash.program(PageKind.DATA, meta=-1)
        with pytest.raises(FTLError):
            scan_flash(ftl.flash, ftl.ssd.logical_pages)

    def test_gtd_double_claim_detected(self, tiny_config):
        """Two valid translation pages claiming one VTPN make recovery
        ambiguous, exactly like a duplicate LPN."""
        ftl = make_ftl("dftl", tiny_config)
        from repro.types import PageKind
        # the prefilled device already has a page for VTPN 0
        ftl.flash.program(PageKind.TRANSLATION, meta=0)
        with pytest.raises(FTLError, match="VTPN 0"):
            scan_flash(ftl.flash, ftl.ssd.logical_pages)

    def test_retired_blocks_are_skipped(self, tiny_config):
        """A retired block's leftover page states must not pollute the
        scan (its live data was migrated before retirement)."""
        ftl = per_op_ftl("dftl", tiny_config)
        stress(ftl, steps=200, seed=9)
        # force-retire exactly one GC victim: its erase "fails"
        fails = iter([True])
        ftl.flash.injector.erase_fails = (
            lambda: next(fails, False))
        stress(ftl, steps=200, seed=10)
        assert ftl.flash.retired_block_count == 1
        verify_recovery(ftl)

    def test_verify_recovery_raises_on_forged_mismatch(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        stress(ftl, steps=100, seed=2)
        # desynchronise the live table from flash
        ftl.flash_table[0], ftl.flash_table[1] = (
            ftl.flash_table[1], ftl.flash_table[0])
        with pytest.raises(FTLError, match="mismatch"):
            verify_recovery(ftl)


class TestReport:
    def test_clean_cache_has_no_stale_entries(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        stress(ftl)
        ftl.flush()
        report = recovery_report(ftl)
        assert report.stale_translation_entries == 0
        assert report.stale_fraction == 0.0

    def test_dirty_cache_shows_consistency_debt(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        ftl.write_page(0)  # dirty in cache, stale on flash
        report = recovery_report(ftl)
        assert report.stale_translation_entries >= 1
        assert report.recovered_pages == ftl.ssd.logical_pages

    def test_tpftl_batch_updates_shrink_debt(self, tiny_config):
        """The b technique's side benefit: fewer dirty entries in RAM
        means less to lose in a crash."""
        dftl = make_ftl("dftl", tiny_config)
        tpftl = make_ftl("tpftl", tiny_config)
        for ftl in (dftl, tpftl):
            stress(ftl, steps=600, seed=4)
        assert (recovery_report(tpftl).stale_translation_entries
                <= recovery_report(dftl).stale_translation_entries)

    def test_optimal_always_consistent_with_itself(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        stress(ftl)
        # optimal's flash_table IS its RAM table: scan equals it
        assert recovery_report(ftl).stale_translation_entries == 0
