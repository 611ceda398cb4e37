"""The execution core against its golden digests.

There is one execution core: the ideal :class:`~repro.flash.FlashMemory`
under :meth:`~repro.ssd.DeviceModel.run` and its deferred timing fold.
Its contract is that every cell of ``golden_cells`` reproduces the
digest committed in ``golden_digests.json`` — sha256 of the run cache's
JSON encoding, so byte-identical metrics, response statistics (Welford
internals included), sampler series, timings and fault counters.  The
digests were recorded on the per-operation reference core the batched
core replaced, and cross-checked against that batched core.

One live cross-check stays: :class:`~repro.flash.FaultyFlashMemory`,
the per-operation array, must digest-equal the ideal array under a
no-op fault plan.  Alongside are the regression tests for the
accounting and sampling bugs fixed with the batched core:

* ``CacheSampler.maybe_sample`` previously fired on every request after
  a multi-page request jumped the access counter past several
  boundaries at once (catch-up oversampling);
* ``RunResult.gc_time_fraction`` previously divided by request service
  time only, so background GC could push the "fraction" past 1.
"""

import dataclasses

import pytest

from repro.config import CacheConfig, SimulationConfig
from repro.errors import CacheCapacityError
from repro.experiments.common import simulation_config
from repro.experiments.runner import (RunSpec, build_spec_trace,
                                      decode_result, encode_result,
                                      execute_spec)
from repro.flash import FaultyFlashMemory, FlashMemory
from repro.ftl import FTL_NAMES, OptimalFTL, make_ftl
from repro.gc import GreedyPolicy, WearLeveler
from repro.metrics import CacheSampler
from repro.ssd import SSDevice

from conftest import make_trace, per_op_ftl, random_ops
from golden_cells import (DEVICE_CELLS, PARITY_SCALE, SPEC_CELLS,
                          TIER1_WORKLOADS, bursty_write_trace, digest,
                          load_golden, tier1_spec, tiny_ssd)

GOLDEN = load_golden()


def replay(name: str):
    """Run a device-level golden cell and return its result."""
    device, trace, warmup = DEVICE_CELLS[name]()
    return device.run(trace, warmup_requests=warmup)


def test_golden_file_covers_every_cell():
    assert set(GOLDEN) == set(SPEC_CELLS) | set(DEVICE_CELLS)


class TestTier1Parity:
    """Every tier-1 cell reproduces its golden digest."""

    @pytest.mark.parametrize("workload", TIER1_WORKLOADS)
    @pytest.mark.parametrize("ftl", FTL_NAMES)
    def test_cell_parity(self, workload, ftl):
        label = f"{workload}:{ftl}"
        assert digest(execute_spec(SPEC_CELLS[label])) == GOLDEN[label]

    def test_parity_survives_decode_roundtrip(self):
        result = execute_spec(tier1_spec("financial2", "dftl"))
        decoded = decode_result(encode_result(result))
        assert digest(decoded) == GOLDEN["financial2:dftl"]

    def test_multichannel_parity(self):
        for label in ("financial2:dftl:ch=4", "msr-ts:optimal:ch=4"):
            result = execute_spec(SPEC_CELLS[label])
            assert result.channels == 4
            assert digest(result) == GOLDEN[label]

    def test_fair_traffic_parity(self):
        label = "mix:dftl:2t:fair"
        result = execute_spec(SPEC_CELLS[label])
        assert result.qos == "fair" and len(result.tenants) == 2
        assert digest(result) == GOLDEN[label]

    def test_cdftl_financial_cells_need_their_cache_fraction(self):
        """CDFTL's default CTP area cannot hold one Financial
        translation page at this scale; the golden cells pin it with a
        fraction that does, rather than dropping the cells."""
        with pytest.raises(CacheCapacityError):
            execute_spec(RunSpec(workload="financial1", ftl="cdftl",
                                 scale=PARITY_SCALE))


class TestDeviceLevelParity:
    """Hand-built devices reproduce their golden digests."""

    def test_warmup_parity(self):
        assert digest(replay("device:dftl:warmup")) \
            == GOLDEN["device:dftl:warmup"]

    def test_background_gc_parity(self):
        for name in ("device:optimal:background-gc",
                     "device:dftl:background-gc"):
            result = replay(name)
            assert result.background_collections > 0
            assert digest(result) == GOLDEN[name]

    def test_fault_plan_falls_back_to_reference(self):
        """A live fault plan runs on the per-operation array and
        reproduces the digests the reference core recorded."""
        for name in ("device:optimal:read-faults",
                     "device:dftl:media-faults"):
            device, trace, warmup = DEVICE_CELLS[name]()
            assert type(device.ftl.flash) is FaultyFlashMemory
            result = device.run(trace, warmup_requests=warmup)
            assert result.faults["read_retries"] > 0
            assert digest(result) == GOLDEN[name]

    def test_sanitizer_sees_every_op(self, sanitized_config):
        """FTLSan runs in the policy slice: full per-op coverage."""
        name = "device:tpftl:sanitized"
        assert digest(replay(name)) == GOLDEN[name]
        ops = random_ops(800, 512, seed=5)
        ftl = make_ftl("tpftl", sanitized_config)
        SSDevice(ftl).run(make_trace(ops))
        assert ftl.sanitizer is not None
        assert ftl.sanitizer.op_seq == sum(n for _, _, n in ops)


class TestPerOpCrossCheck:
    """The per-operation array under a no-op plan digest-equals the
    ideal array: the batched GC helpers and chunked prefill change
    nothing observable."""

    @pytest.mark.parametrize("workload, ftl", [
        ("financial1", "dftl"), ("msr-ts", "tpftl"),
        ("financial2", "hybrid")])
    def test_tier1_cell(self, workload, ftl):
        spec = tier1_spec(workload, ftl)
        trace = build_spec_trace(spec)
        config = simulation_config(trace)
        results = []
        for ideal in (True, False):
            engine = (make_ftl(ftl, config) if ideal
                      else per_op_ftl(ftl, config))
            assert (type(engine.flash) is FlashMemory) == ideal
            results.append(SSDevice(engine, sample_interval=400).run(
                trace, warmup_requests=PARITY_SCALE.warmup_requests))
        assert digest(results[0]) == digest(results[1])
        assert digest(results[0]) == GOLDEN[f"{workload}:{ftl}"]


class TestEraseSpread:
    """The running erase-count spread the wear-leveling prefilter reads
    is exact on both arrays, so skipping the nominate scan when the
    spread is under the threshold never skips a nomination."""

    @pytest.mark.parametrize("faults", ({}, {"erase_fail_rate": 0.004,
                                             "program_fail_rate": 0.001}))
    def test_running_spread_is_exact(self, faults):
        config = SimulationConfig(ssd=tiny_ssd(fault_seed=3, **faults))
        leveler = WearLeveler(threshold=2)
        ftl = make_ftl("optimal", config, wear_leveler=leveler)
        flash = ftl.flash
        for op, lpn, npages in random_ops(300, 512, seed=9,
                                          write_ratio=0.9):
            for page in range(lpn, lpn + npages):
                ftl.write_page(page)
                counts = [block.erase_count for block in flash.blocks]
                assert flash.max_erase == max(counts)
                assert flash.min_erase == min(counts)
        assert leveler.forced_collections > 0
        assert bool(faults) == (type(flash) is FaultyFlashMemory)


class TestGCTimeFractionInvariant:
    """Regression: background GC used to push the fraction past 1."""

    @pytest.mark.parametrize("per_op", (False, True))
    def test_fraction_bounded_with_background_gc(self, tiny_config,
                                                 per_op):
        ftl = (per_op_ftl("optimal", tiny_config) if per_op
               else OptimalFTL(tiny_config))
        device = SSDevice(ftl, background_gc=True)
        result = device.run(bursty_write_trace(bursts=80))
        # the setup reproduces the bug: plenty of background GC time
        # relative to request service time
        assert result.background_gc_time_us > 0.0
        assert result.gc_time_us >= result.background_gc_time_us
        assert 0.0 <= result.gc_time_fraction <= 1.0
        # the old denominator (request service time only) blows past 1
        assert (result.gc_time_us / result.service_time_us) > 1.0

    def test_background_time_disjoint_from_service(self, tiny_config):
        device = SSDevice(OptimalFTL(tiny_config), background_gc=True)
        result = device.run(bursty_write_trace(bursts=80))
        # foreground GC is part of service time; background GC is not
        assert result.service_time_us > 0.0
        assert (result.gc_time_us
                <= result.service_time_us + result.background_gc_time_us)


class TestSamplerCatchUp:
    """Regression: multi-page jumps used to trigger oversampling."""

    def test_multiboundary_jump_samples_once(self):
        sampler = CacheSampler(interval=10)
        # one giant request jumps the counter across 5 boundaries
        assert sampler.maybe_sample(52, [(4, 1)])
        assert len(sampler.samples) == 1
        # the very next requests must NOT all sample (the old bug:
        # _next_at lagged at 20 and every call >= 20 fired)
        assert not sampler.maybe_sample(53, [(4, 1)])
        assert not sampler.maybe_sample(59, [(4, 1)])
        assert sampler.maybe_sample(60, [(4, 1)])
        assert [s.access_number for s in sampler.samples] == [52, 60]

    def test_exact_boundary_keeps_cadence(self):
        sampler = CacheSampler(interval=10)
        fired = [n for n in range(1, 51)
                 if sampler.maybe_sample(n, [(1, 0)])]
        assert fired == [10, 20, 30, 40, 50]

    def test_due_matches_maybe_sample(self):
        probe = CacheSampler(interval=7)
        mirror = CacheSampler(interval=7)
        jumps = [3, 7, 8, 20, 21, 22, 49, 50, 90]
        for n in jumps:
            would = probe.due(n)
            did = mirror.maybe_sample(n, [(1, 0)])
            assert would == did
            if did:
                probe.maybe_sample(n, [(1, 0)])

    def test_disabled_sampler_never_due(self):
        sampler = CacheSampler(interval=0)
        assert not sampler.due(10 ** 9)
        assert not sampler.maybe_sample(10 ** 9, [(1, 0)])


class TestVictimHeapEquivalence:
    """The flash array's victim heap picks what a greedy scan picks."""

    def test_greedy_selection_matches(self, tiny_config):
        config = dataclasses.replace(
            tiny_config, cache=CacheConfig(budget_bytes=1024))
        ftl = make_ftl("dftl", config)
        policy = GreedyPolicy()
        checked = 0
        select = ftl._select_victim

        def checked_select():
            nonlocal checked
            expected = policy.select(ftl._gc_candidates(),
                                     now_seq=ftl.flash.op_seq)
            victim = select()
            assert victim is expected
            checked += 1
            return victim

        ftl._select_victim = checked_select
        ops = random_ops(2_000, 512, seed=21, write_ratio=0.9)
        result = SSDevice(ftl).run(make_trace(ops))
        assert result.metrics.gc_data_collections > 0
        assert checked >= result.metrics.gc_data_collections
        name = "device:dftl:greedy-gc"
        assert digest(result) == GOLDEN[name]

    def test_greedy_selection_matches_under_faults(self):
        """Bad pages and retired blocks leave the heap exact."""
        config = SimulationConfig(ssd=tiny_ssd(
            read_error_rate=0.01, program_fail_rate=0.002,
            erase_fail_rate=0.01, fault_seed=17))
        ftl = make_ftl("optimal", config)
        policy = GreedyPolicy()
        for op, lpn, npages in random_ops(600, 512, seed=4):
            for page in range(lpn, lpn + npages):
                expected = policy.select(ftl._gc_candidates())
                assert ftl._select_victim() is expected
                ftl.write_page(page)
        assert ftl.flash.retired_block_count > 0
