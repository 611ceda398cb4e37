"""The golden-digest matrix: cells whose results every refactor keeps.

Each cell is a deterministic simulation; its golden value is
``result_digest`` of the :class:`~repro.ssd.RunResult` (sha256 of the
run cache's JSON encoding), committed in ``golden_digests.json``.  A
byte-identical encoding means every field the cache can observe —
metrics, response statistics including the Welford internals, sampler
series, timings, fault counters — is unchanged.

Two kinds of cell:

* ``SPEC_CELLS`` — :class:`~repro.experiments.runner.RunSpec` cells run
  through ``execute_spec``: every tier-1 workload x every FTL at
  ``PARITY_SCALE`` with the cache sampler on, a 4-channel device and a
  two-tenant fair-share traffic mix;
* ``DEVICE_CELLS`` — hand-built devices on the tiny test geometry for
  what a spec cannot express: background GC, an FTLSan-sanitized run,
  live fault plans, and warmup and GC-heavy replays.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.config import (CacheConfig, SanitizerConfig, SimulationConfig,
                          SSDConfig)
from repro.experiments.common import ExperimentScale
from repro.experiments.fastbench import result_digest as digest
from repro.experiments.runner import RunSpec
from repro.ftl import FTL_NAMES, make_ftl
from repro.ssd import DeviceModel, SSDevice
from repro.types import Op, Request, Trace
from repro.workloads import ArrivalModel, uniform_mix

from conftest import make_trace, random_ops

#: committed digests, keyed by cell name
GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: CI-sized cells: big enough to cycle GC on every FTL, small enough
#: that the whole matrix stays a few seconds per cell
PARITY_SCALE = ExperimentScale(num_requests=2_500, warmup_requests=500)
TIER1_WORKLOADS = ("financial1", "financial2", "msr-src", "msr-ts")
#: CDFTL's default CTP area (3277 B) at the Financial parity geometry
#: is smaller than one 4104 B translation page; this fraction fits one
CDFTL_FINANCIAL_FRACTION = 1 / 64

#: device-level cells: a zero-argument builder of (device, trace, warmup)
DeviceCell = Callable[[], Tuple[DeviceModel, Trace, int]]


def load_golden() -> Dict[str, str]:
    """The committed cell -> digest table."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def tier1_spec(workload: str, ftl: str) -> RunSpec:
    """One cell of the tier-1 matrix (sampler on)."""
    fraction = (CDFTL_FINANCIAL_FRACTION
                if ftl == "cdftl" and workload.startswith("financial")
                else None)
    return RunSpec(workload=workload, ftl=ftl, scale=PARITY_SCALE,
                   cache_fraction=fraction, sample_interval=400)


def _spec_cells() -> Dict[str, RunSpec]:
    cells = {f"{workload}:{ftl}": tier1_spec(workload, ftl)
             for workload in TIER1_WORKLOADS for ftl in FTL_NAMES}
    cells["financial2:dftl:ch=4"] = RunSpec(
        workload="financial2", ftl="dftl", scale=PARITY_SCALE,
        channels=4)
    cells["msr-ts:optimal:ch=4"] = RunSpec(
        workload="msr-ts", ftl="optimal", scale=PARITY_SCALE,
        channels=4)
    mix = uniform_mix("mix", "financial1", 2, 600, 2_048,
                      arrival=ArrivalModel(mean_interarrival_us=250.0),
                      weights=(3.0, 1.0), seed=5)
    cells["mix:dftl:2t:fair"] = RunSpec(
        workload="mix", ftl="dftl", scale=PARITY_SCALE, traffic=mix,
        qos="fair", keep_response_samples=True)
    return cells


SPEC_CELLS: Dict[str, RunSpec] = _spec_cells()


# ----------------------------------------------------------------------
# Device-level cells (tiny geometry)
# ----------------------------------------------------------------------
def tiny_ssd(**faults) -> SSDConfig:
    """The test suite's tiny geometry, optionally with fault rates."""
    return SSDConfig(logical_pages=512, page_size=256, pages_per_block=8,
                     **faults)


def random_trace(count: int, seed: int,
                 write_ratio: float = 0.7) -> Trace:
    """Deterministic random requests at an even 100 us spacing."""
    return make_trace(random_ops(count, 512, seed=seed,
                                 write_ratio=write_ratio))


def bursty_write_trace(pages: int = 512, bursts: int = 40,
                       burst_len: int = 20, gap_us: float = 50_000.0,
                       seed: int = 3) -> Trace:
    """Write bursts separated by idle gaps (drives background GC)."""
    rng = random.Random(seed)
    requests = []
    clock = 0.0
    for _ in range(bursts):
        for _ in range(burst_len):
            clock += 50.0
            requests.append(Request(arrival=clock, op=Op.WRITE,
                                    lpn=rng.randrange(pages), npages=1))
        clock += gap_us
    return Trace(requests=requests, logical_pages=pages)


def _background_gc(ftl: str) -> DeviceCell:
    def build():
        config = SimulationConfig(ssd=tiny_ssd())
        device = SSDevice(make_ftl(ftl, config), background_gc=True)
        return device, bursty_write_trace(bursts=60), 0
    return build


def _sanitized():
    config = SimulationConfig(
        ssd=tiny_ssd(), cache=CacheConfig(budget_bytes=2048),
        sanitizer=SanitizerConfig(enabled=True, interval=1,
                                  full_every=32))
    return SSDevice(make_ftl("tpftl", config)), random_trace(800, 5), 0


def _fault_plan(ftl: str, **faults) -> DeviceCell:
    def build():
        config = SimulationConfig(ssd=tiny_ssd(**faults),
                                  cache=CacheConfig(budget_bytes=2048))
        return SSDevice(make_ftl(ftl, config)), random_trace(600, 11), 0
    return build


def _warmup():
    config = SimulationConfig(ssd=tiny_ssd(),
                              cache=CacheConfig(budget_bytes=2048))
    device = SSDevice(make_ftl("dftl", config), sample_interval=200)
    return device, random_trace(1_500, 11), 300


def _greedy_gc():
    config = SimulationConfig(ssd=tiny_ssd(),
                              cache=CacheConfig(budget_bytes=1024))
    device = SSDevice(make_ftl("dftl", config))
    return device, random_trace(2_000, 21, write_ratio=0.9), 0


DEVICE_CELLS: Dict[str, DeviceCell] = {
    "device:optimal:background-gc": _background_gc("optimal"),
    "device:dftl:background-gc": _background_gc("dftl"),
    "device:tpftl:sanitized": _sanitized,
    "device:optimal:read-faults": _fault_plan(
        "optimal", read_error_rate=0.01),
    "device:dftl:media-faults": _fault_plan(
        "dftl", read_error_rate=0.01, program_fail_rate=0.002,
        erase_fail_rate=0.01, fault_seed=17),
    "device:dftl:warmup": _warmup,
    "device:dftl:greedy-gc": _greedy_gc,
}
