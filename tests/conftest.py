"""Shared fixtures: tiny device geometries that keep tests fast.

The *tiny* geometry shrinks pages to 256B so one translation page holds
64 entries and the device spans 8 translation pages — enough structure
to exercise every FTL mechanism (multi-node caches, GC of both block
kinds, prefetch page-boundary clipping) while each test runs in
milliseconds.
"""

from __future__ import annotations

import random

import pytest

from repro.config import (CacheConfig, SanitizerConfig, SimulationConfig,
                          SSDConfig)
from repro.flash import FaultyFlashMemory
from repro.ftl import make_ftl
from repro.types import Op, Request, Trace


@pytest.fixture
def tiny_ssd() -> SSDConfig:
    return SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)


@pytest.fixture
def tiny_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    return SimulationConfig(ssd=tiny_ssd)


@pytest.fixture
def roomy_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    """Same geometry with a cache big enough for page-granular FTLs."""
    return SimulationConfig(
        ssd=tiny_ssd,
        cache=CacheConfig(budget_bytes=2048))


@pytest.fixture
def sanitized_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    """Roomy config with FTLSan armed at full rate (checks every op)."""
    return SimulationConfig(
        ssd=tiny_ssd,
        cache=CacheConfig(budget_bytes=2048),
        sanitizer=SanitizerConfig(enabled=True, interval=1,
                                  full_every=32))


def make_trace(ops, logical_pages: int = 512, name: str = "test",
               spacing_us: float = 100.0) -> Trace:
    """Build a trace from (op, lpn, npages) tuples with even arrivals."""
    requests = []
    for index, (op, lpn, npages) in enumerate(ops):
        requests.append(Request(arrival=index * spacing_us, op=op,
                                lpn=lpn, npages=npages))
    return Trace(requests=requests, logical_pages=logical_pages,
                 name=name)


def random_ops(count: int, logical_pages: int, seed: int = 0,
               write_ratio: float = 0.7, max_pages: int = 4):
    """Deterministic random (op, lpn, npages) tuples for stress tests."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        op = Op.WRITE if rng.random() < write_ratio else Op.READ
        npages = rng.randint(1, max_pages)
        lpn = rng.randrange(logical_pages - npages)
        ops.append((op, lpn, npages))
    return ops


def per_op_ftl(name: str, config: SimulationConfig):
    """An FTL prefilled on the per-operation (fault-injecting) array.

    A no-op fault plan selects the ideal array, which never consults
    an injector; tests that arm a power cut or patch an injector method
    after construction need this one instead.
    """
    ftl = make_ftl(name, config, prefill=False)
    ftl.flash = FaultyFlashMemory(config.ssd)
    ftl.prefill()
    return ftl
