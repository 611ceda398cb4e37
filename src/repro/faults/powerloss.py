"""Power-loss torture harness: cut power everywhere, recover everywhere.

The paper's §1 motivates demand-based FTLs partly by the "vulnerability
to a power failure" of large RAM mapping caches.  This harness turns the
simulator's crash-recovery story from a report into a verified
guarantee: it replays a workload against a fresh FTL, cuts power after
the N-th flash operation for a sweep of N, rebuilds the mapping state
with :func:`repro.recovery.scan_flash`, and asserts two invariants at
every cut point:

* **invalidate-before-publish** — the scan is unambiguous: at most one
  valid physical page claims each logical page (``scan_flash`` raises
  otherwise).  This is what the program-then-invalidate pairing in
  every write path guarantees.
* **read-your-writes** — every *acknowledged* operation survives the
  crash: an acknowledged write's LPN is still mapped, an acknowledged
  TRIM's LPN stays unmapped.  The single in-flight operation (the one
  the cut interrupted) is exempt, exactly like a real disk's contract.

The cut fires at the *start* of a flash operation, so the recovered
state is precisely "everything that completed".  GC, merges and
translation-page writebacks all run under the same countdown, which is
what makes the sweep a torture test: cut points land inside collections,
cache writebacks and hybrid merges, not just between user requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig
from ..errors import FTLError, PowerLossError
from ..flash import FaultyFlashMemory
from ..ftl import make_ftl
from ..recovery import RecoveredState, scan_flash
from ..types import Op, Request, UNMAPPED

#: one page-granular workload step: (operation, LPN)
PageOp = Tuple[Op, int]


def default_ops(count: int, logical_pages: int, seed: int = 0,
                write_ratio: float = 0.7,
                trim_ratio: float = 0.0) -> List[PageOp]:
    """A deterministic random page-op workload for torture runs.

    ``trim_ratio`` defaults to zero because the block-mapped FTLs
    (``block``, ``hybrid``) reject TRIM; page-level sweeps can enable it.
    """
    rng = random.Random(seed)
    ops: List[PageOp] = []
    for _ in range(count):
        roll = rng.random()
        if roll < trim_ratio:
            op = Op.TRIM
        elif roll < trim_ratio + write_ratio:
            op = Op.WRITE
        else:
            op = Op.READ
        ops.append((op, rng.randrange(logical_pages)))
    return ops


def default_cut_points(count: int = 50, start: int = 1,
                       stride: int = 7) -> List[int]:
    """An arithmetic sweep of flash-operation counts to cut power at."""
    return [start + i * stride for i in range(count)]


@dataclass(frozen=True)
class CutOutcome:
    """What one torture run observed."""

    #: flash operations allowed before the cut
    cut_after: int
    #: True if power actually died (False: the workload finished first)
    fired: bool
    #: page ops acknowledged before the cut
    ops_acknowledged: int
    #: LPNs with a recovered mapping after the scan
    recovered_pages: int
    #: translation pages recovered into the GTD
    recovered_translation_pages: int


@dataclass
class TortureReport:
    """Aggregate of a whole cut-point sweep for one FTL."""

    ftl_name: str
    outcomes: List[CutOutcome]

    @property
    def cuts_fired(self) -> int:
        """Sweep points at which power actually died mid-workload."""
        return sum(1 for outcome in self.outcomes if outcome.fired)

    @property
    def cut_points(self) -> List[int]:
        """The swept cut points, in order."""
        return [outcome.cut_after for outcome in self.outcomes]


def verify_crash_state(flash, logical_pages: int,
                       acked: Dict[int, Op],
                       in_flight_lpn: Optional[int] = None
                       ) -> RecoveredState:
    """Scan crashed flash and enforce the acknowledged-ops contract.

    ``acked`` maps each LPN to the last acknowledged WRITE/TRIM on it;
    ``in_flight_lpn`` names the page whose operation the cut interrupted
    (its durability is legitimately undefined).  Raises
    :class:`~repro.errors.FTLError` on any violation; the scan itself
    raises on duplicate or out-of-range claims.
    """
    state = scan_flash(flash, logical_pages)
    for lpn, last_op in acked.items():
        if lpn == in_flight_lpn:
            continue
        mapped = state.data_mapping[lpn] != UNMAPPED
        if last_op is Op.WRITE and not mapped:
            raise FTLError(
                f"acknowledged write of LPN {lpn} lost after power cut")
        if last_op is Op.TRIM and mapped:
            raise FTLError(
                f"acknowledged TRIM of LPN {lpn} resurrected after "
                "power cut")
    return state


def run_with_cut(ftl_name: str, config: SimulationConfig,
                 ops: Sequence[PageOp], cut_after: int) -> CutOutcome:
    """One torture run: replay ``ops``, cut power, recover, verify.

    The FTL is built (and prefilled) first; the countdown starts only
    when the workload does, so every sweep point lands inside the
    measured traffic.  The plan is armed after construction, so the
    FTL is put on the per-op array explicitly: the ideal one a no-op
    plan selects never consults the injector.
    """
    ftl = make_ftl(ftl_name, config, prefill=False)
    flash = ftl.flash = FaultyFlashMemory(config.ssd)
    ftl.prefill()
    injector = flash.injector
    injector.arm_power_loss(cut_after)
    acked: Dict[int, Op] = {}
    acknowledged = 0
    in_flight: Optional[int] = None
    fired = False
    try:
        for op, lpn in ops:
            in_flight = lpn
            if op is Op.WRITE:
                ftl.write_page(lpn)
                acked[lpn] = Op.WRITE
            elif op is Op.READ:
                ftl.read_page(lpn)
            else:
                ftl.serve_request(
                    Request(arrival=0.0, op=Op.TRIM, lpn=lpn, npages=1))
                acked[lpn] = Op.TRIM
            in_flight = None
            acknowledged += 1
    except PowerLossError:
        fired = True
    injector.disarm_power_loss()
    state = verify_crash_state(
        ftl.flash, config.ssd.logical_pages, acked,
        in_flight_lpn=in_flight if fired else None)
    return CutOutcome(
        cut_after=cut_after,
        fired=fired,
        ops_acknowledged=acknowledged,
        recovered_pages=state.mapped_pages(),
        recovered_translation_pages=len(state.gtd),
    )


def torture_sweep(ftl_name: str, config: SimulationConfig,
                  ops: Optional[Sequence[PageOp]] = None,
                  cut_points: Optional[Sequence[int]] = None,
                  seed: int = 0) -> TortureReport:
    """Sweep power cuts over a workload; raise on any invariant break.

    Every cut point replays the same workload against a fresh FTL, so
    outcomes are independent and deterministic.  Returns the per-cut
    observations for reporting; all verification happens inline.
    """
    if ops is None:
        ops = default_ops(400, config.ssd.logical_pages, seed=seed)
    if cut_points is None:
        cut_points = default_cut_points()
    outcomes = [run_with_cut(ftl_name, config, ops, cut_after)
                for cut_after in cut_points]
    return TortureReport(ftl_name=ftl_name, outcomes=outcomes)
