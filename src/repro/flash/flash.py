"""The flash array: blocks, free list, and per-kind write frontiers.

``FlashMemory`` is deliberately policy-free.  It will program the next page
of the active block for a region (data or translation), invalidate pages,
and erase blocks — and it counts every operation — but *when* to collect
garbage, which block to victimise, and how mappings change are decisions of
the FTL layered on top.  This mirrors the split in FlashSim that the paper
extends.

:class:`FlashMemory` is the ideal array, the one every fault-free run
uses.  It is the single owner of operation counting (plain-integer
:class:`~repro.flash.FlashStats` counters), keeps a lazy victim heap so
greedy GC selection is O(log blocks) instead of a full scan, and tracks
the device-wide erase-count spread so wear-leveling checks are O(1).
Its GC helpers (:meth:`~FlashMemory.program_batch`,
:meth:`~FlashMemory.migrate`) chunk-fill the write frontier with one
count per batch.

Reliability is handled by :class:`FaultyFlashMemory`, below the FTLs, the
way real controllers do: every program, read and erase consults a
:class:`~repro.faults.FaultInjector`.  Transient read errors are retried
with exponential backoff; a failed program marks the page bad and
transparently moves the write to the next programmable page; a failed
erase — or an erase of a block whose bad pages crossed the retirement
threshold — takes the block out of service.  Retirement eats the spare
capacity; when more blocks retire than the over-provisioning can absorb,
the array raises :class:`~repro.errors.DeviceWornOutError`.  Its GC
helpers run page by page (read, program, invalidate), so the injector
sees operations in the same order as a page-at-a-time collection.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import SSDConfig
from ..errors import (DeviceWornOutError, EraseError, FlashError,
                      OutOfSpaceError, ProgramError, ReadError)
from ..faults import FaultInjector
from ..types import BlockKind, PageKind, PageState
from .block import Block
from .stats import FlashStats


class FlashMemory:
    """An ideal array of NAND blocks with one write frontier per region."""

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.pages_per_block = config.pages_per_block
        self.blocks: List[Block] = [
            Block(i, config.pages_per_block)
            for i in range(config.physical_blocks)
        ]
        self._free: Deque[int] = deque(range(config.physical_blocks))
        #: the data and translation write frontiers
        self._active_data: Optional[Block] = None
        self._active_trans: Optional[Block] = None
        self.stats = FlashStats()
        #: monotonic operation sequence, stamped onto blocks at program
        #: time so GC policies can reason about block age.
        self.op_seq = 0
        #: blocks permanently out of service, in retirement order
        #: (only :class:`FaultyFlashMemory` retires blocks).
        self.retired_block_ids: List[int] = []
        #: free-pool level at which GC triggers (cached off the config
        #: so the per-page ``gc_needed`` check stays one comparison).
        self._gc_trigger = config.gc_trigger_blocks
        #: lazy greedy-victim index: ``(-invalid, erase_count, id)``
        #: entries pushed on every invalidation; stale entries (the
        #: block's counts moved on) are dropped at pop time.
        self.victim_heap: List[Tuple[int, int, int]] = []
        #: exact running device-wide max/min erase counts.
        self.max_erase = 0
        self.min_erase = 0
        #: blocks per erase-count level, backing ``min_erase``.
        self._erase_hist: Dict[int, int] = {0: config.physical_blocks}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ppn_of(self, block_id: int, offset: int) -> int:
        """Compose a PPN from a block id and in-block offset."""
        return block_id * self.pages_per_block + offset

    def block_id_of(self, ppn: int) -> int:
        """Block id owning ``ppn``."""
        return ppn // self.pages_per_block

    def offset_of(self, ppn: int) -> int:
        """In-block offset of ``ppn``."""
        return ppn % self.pages_per_block

    def block_of(self, ppn: int) -> Block:
        """The Block object owning ``ppn``."""
        return self.blocks[self.block_id_of(ppn)]

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Blocks currently in the free pool."""
        return len(self._free)

    @property
    def gc_needed(self) -> bool:
        """True once the free pool has shrunk to the GC trigger level."""
        return len(self._free) <= self._gc_trigger

    @property
    def exhausted(self) -> bool:
        """True when only the emergency reserve remains."""
        return len(self._free) <= self.config.gc_reserve_blocks

    @property
    def retired_block_count(self) -> int:
        """Blocks permanently out of service."""
        return len(self.retired_block_ids)

    @property
    def spare_blocks_remaining(self) -> int:
        """Retirements the device can still absorb before wearing out.

        Grown bad pages in live blocks are charged against the spares
        too (in whole-block equivalents): capacity they ate is just as
        gone as a retired block's.
        """
        return (self.config.spare_blocks - len(self.retired_block_ids)
                - self.bad_page_count // self.pages_per_block)

    @property
    def is_worn(self) -> bool:
        """True once retirement or bad pages have consumed any capacity."""
        return bool(self.retired_block_ids) or self.bad_page_count > 0

    @property
    def bad_page_count(self) -> int:
        """Pages lost to program failures, device-wide."""
        return sum(block.bad_count for block in self.blocks)

    def blocks_of_kind(self, kind: BlockKind) -> Iterable[Block]:
        """Iterate blocks currently playing role ``kind``."""
        for block in self.blocks:
            if block.kind is kind:
                yield block

    def active_block(self, kind: BlockKind) -> Optional[Block]:
        """The current write frontier for a region (may be None)."""
        if kind is BlockKind.DATA:
            return self._active_data
        if kind is BlockKind.TRANSLATION:
            return self._active_trans
        return None

    def total_erase_count(self) -> int:
        """Sum of per-block erase counts (wear)."""
        return sum(block.erase_count for block in self.blocks)

    def greedy_victim(self) -> Optional[Block]:
        """The block :class:`~repro.gc.GreedyPolicy` would collect.

        The heap invariant (every collectible block has an entry with
        its *current* counts) makes the top accurate entry exactly the
        block a full candidate scan picks: max invalid count, ties to
        min erase count, then min block id — the first-encountered
        block in the scan order.  Stale entries (counts moved on, or
        the block was erased or retired) are dropped; entries for the
        active write frontiers are deferred and re-pushed, since those
        blocks become candidates as soon as the frontier moves past
        them, without any further invalidation.  The winning entry is
        left in place: it goes stale when the victim is erased.
        """
        heap = self.victim_heap
        blocks = self.blocks
        active_data = self._active_data
        active_trans = self._active_trans
        deferred: List[Tuple[int, int, int]] = []
        victim: Optional[Block] = None
        while heap:
            neg_invalid, erase_count, block_id = heap[0]
            block = blocks[block_id]
            if (block.invalid_count != -neg_invalid
                    or block.erase_count != erase_count
                    or block.is_free
                    or block.kind is BlockKind.RETIRED):
                heapq.heappop(heap)
                continue
            if block is active_data or block is active_trans:
                deferred.append(heapq.heappop(heap))
                continue
            victim = block
            break
        for entry in deferred:
            heapq.heappush(heap, entry)
        return victim

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def program(self, kind: PageKind, meta: int) -> int:
        """Program one page of the given kind; returns its PPN.

        ``meta`` is the logical identity of the content (LPN for data
        pages, VTPN for translation pages), recorded so GC can find the
        owner of every valid page.
        """
        # No bad pages on an ideal array: the write pointer always sits
        # on a FREE page, so the state transition is unconditional.
        if kind is PageKind.DATA:
            block = self._active_data
            if block is None or block._write_ptr >= self.pages_per_block:
                block = self._allocate(BlockKind.DATA)
            self.stats.data_writes += 1
        else:
            block = self._active_trans
            if block is None or block._write_ptr >= self.pages_per_block:
                block = self._allocate(BlockKind.TRANSLATION)
            self.stats.translation_writes += 1
        seq = self.op_seq + 1
        self.op_seq = seq
        offset = block._write_ptr
        block._states[offset] = PageState.VALID
        block._meta[offset] = meta
        block._write_ptr = offset + 1
        block.valid_count += 1
        block.last_program_seq = seq
        return block.block_id * self.pages_per_block + offset

    def program_batch(self, kind: PageKind,
                      metas: Sequence[int]) -> List[int]:
        """Program ``metas`` in order; returns their PPNs.

        Chunk-fills the region's write frontier: the same frontier
        allocations from the free pool, final ``op_seq`` and per-block
        ``last_program_seq`` as one :meth:`program` per page, minus the
        per-page bookkeeping.
        """
        region = (BlockKind.DATA if kind is PageKind.DATA
                  else BlockKind.TRANSLATION)
        ppb = self.pages_per_block
        ppns: List[int] = []
        i, total = 0, len(metas)
        while i < total:
            block = self.active_block(region)
            if block is None or block._write_ptr >= ppb:
                block = self._allocate(region)
            write_ptr = block._write_ptr
            take = min(total - i, ppb - write_ptr)
            end = write_ptr + take
            block._states[write_ptr:end] = [PageState.VALID] * take
            block._meta[write_ptr:end] = metas[i:i + take]
            block._write_ptr = end
            block.valid_count += take
            self.op_seq += take
            block.last_program_seq = self.op_seq
            base = block.block_id * ppb + write_ptr
            ppns.extend(range(base, base + take))
            i += take
        self._count(kind, 0, total)
        return ppns

    def migrate(self, block: Block,
                kind: PageKind) -> Tuple[List[int], List[int]]:
        """GC helper: move every valid page of ``block`` to the frontier.

        Reads each valid page, programs its copy in ascending offset
        order and invalidates the original; returns the moved pages'
        metadata (LPNs or VTPNs) and their new PPNs, index-aligned.
        The victim heap is refreshed once for the whole batch.
        """
        states = block._states
        meta = block._meta
        offsets = block.valid_offsets()
        if not offsets:
            return [], []
        metas = [meta[offset] for offset in offsets]
        new_ppns = self.program_batch(kind, metas)
        for offset in offsets:
            states[offset] = PageState.INVALID
            meta[offset] = None
        moved = len(offsets)
        self._count(kind, moved, 0)
        block.valid_count -= moved
        block.invalid_count += moved
        heapq.heappush(self.victim_heap,
                       (-block.invalid_count, block.erase_count,
                        block.block_id))
        return metas, new_ppns

    def allocate_block(self, region: BlockKind) -> Block:
        """Take a free block for dedicated use (not the region frontier).

        Used by block-granular FTLs that fill whole blocks themselves
        (e.g. hybrid-FTL merges); pair with :meth:`program_into`.
        """
        if region is BlockKind.FREE or region is BlockKind.RETIRED:
            raise FlashError(
                f"cannot allocate a block as {region.value.upper()}")
        if not self._free:
            raise OutOfSpaceError(
                "no free blocks left; GC failed to reclaim space")
        block = self.blocks[self._free.popleft()]
        block.kind = region
        return block

    def program_into(self, block: Block, kind: PageKind, meta: int) -> int:
        """Program the next page of a specific block; returns its PPN."""
        self.op_seq += 1
        offset = block.program(meta, self.op_seq)
        self._count(kind, 0, 1)
        return self.ppn_of(block.block_id, offset)

    def read(self, ppn: int, kind: PageKind) -> int:
        """Read a page; returns its metadata (LPN/VTPN).

        Reading a non-valid page is a simulator bug and raises.
        """
        block = self.blocks[ppn // self.pages_per_block]
        offset = ppn % self.pages_per_block
        if block._states[offset] is not PageState.VALID:
            raise FlashError(
                f"read of {block._states[offset].name} page at PPN {ppn}")
        if kind is PageKind.DATA:
            self.stats.data_reads += 1
        else:
            self.stats.translation_reads += 1
        return block._meta[offset]

    def invalidate(self, ppn: int) -> None:
        """Invalidate the page at ``ppn`` (its content was superseded)."""
        block = self.blocks[ppn // self.pages_per_block]
        offset = ppn % self.pages_per_block
        # Block.invalidate inlined (same check, same transition): this
        # plus the heap push runs once per superseded page.
        states = block._states
        if states[offset] is not PageState.VALID:
            raise ProgramError(
                f"page {offset} of block {block.block_id} is "
                f"{states[offset].name}, cannot invalidate")
        states[offset] = PageState.INVALID
        block._meta[offset] = None
        block.valid_count -= 1
        invalid = block.invalid_count + 1
        block.invalid_count = invalid
        heapq.heappush(self.victim_heap,
                       (-invalid, block.erase_count, block.block_id))

    def erase(self, block_id: int) -> bool:
        """Erase a block and return it to the free pool (always True)."""
        block = self._erasable(block_id)
        # No BAD pages exist, so the whole block returns to FREE and
        # the per-page skip loop of Block.erase is unnecessary.
        ppb = self.pages_per_block
        kind = block.kind
        block._states = [PageState.FREE] * ppb
        block._meta = [None] * ppb
        block._write_ptr = 0
        block.valid_count = 0
        block.invalid_count = 0
        block.erase_count += 1
        block.kind = BlockKind.FREE
        self._count_erase(block, kind)
        self._free.append(block_id)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, kind: PageKind, reads: int, writes: int) -> None:
        """Add page reads and programs of ``kind`` to the counters."""
        stats = self.stats
        if kind is PageKind.DATA:
            stats.data_reads += reads
            stats.data_writes += writes
        else:
            stats.translation_reads += reads
            stats.translation_writes += writes

    def _count_erase(self, block: Block, kind: BlockKind) -> None:
        """Count one erase of a ``kind`` block whose count just rose.

        Keeps the erase-count spread exact: histogram plus running max.
        """
        if kind is BlockKind.DATA:
            self.stats.data_erases += 1
        else:
            self.stats.translation_erases += 1
        hist = self._erase_hist
        new_count = block.erase_count
        old_count = new_count - 1
        remaining = hist[old_count] - 1
        if remaining:
            hist[old_count] = remaining
        else:
            del hist[old_count]
        hist[new_count] = hist.get(new_count, 0) + 1
        if new_count > self.max_erase:
            self.max_erase = new_count
        while self.min_erase not in hist:
            self.min_erase += 1

    def _erasable(self, block_id: int) -> Block:
        """Check that ``block_id`` may be erased; clear its frontier."""
        block = self.blocks[block_id]
        if block.is_free:
            raise FlashError(f"block {block_id} is already free")
        if block.kind is BlockKind.RETIRED:
            raise FlashError(f"block {block_id} is retired")
        if block.valid_count:
            raise EraseError(
                f"block {block_id} still has {block.valid_count} "
                "valid pages")
        if block is self._active_data:
            self._active_data = None
        elif block is self._active_trans:
            self._active_trans = None
        return block

    def _allocate(self, region: BlockKind) -> Block:
        if not self._free:
            raise OutOfSpaceError(
                "no free blocks left; GC failed to reclaim space")
        block = self.blocks[self._free.popleft()]
        block.kind = region
        if region is BlockKind.DATA:
            self._active_data = block
        else:
            self._active_trans = block
        return block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(blocks={len(self.blocks)}, "
                f"free={self.free_block_count}, "
                f"retired={self.retired_block_count})")


class FaultyFlashMemory(FlashMemory):
    """The flash array with every operation consulting the injector.

    Overrides only the operations that can fail or be cut short; the
    GC helpers run one page at a time so faults and power cuts land on
    exactly the operation a page-at-a-time controller would issue.
    """

    def __init__(self, config: SSDConfig,
                 injector: Optional[FaultInjector] = None) -> None:
        super().__init__(config)
        #: fault oracle consulted on every operation.
        self.injector = (injector if injector is not None
                         else FaultInjector(config.fault_plan()))
        #: bad pages in a block at which its next erase retires it.
        self._bad_retire_pages = max(1, math.ceil(
            config.pages_per_block
            * self.injector.plan.bad_page_retire_fraction))

    def program(self, kind: PageKind, meta: int) -> int:
        """Program one page; a failed attempt marks the page bad and
        retries on the next programmable page (allocating a fresh
        frontier block if needed), as a real controller's write path
        does."""
        region = (BlockKind.DATA if kind is PageKind.DATA
                  else BlockKind.TRANSLATION)
        while True:
            block = self.active_block(region)
            if block is None or block.is_full:
                block = self._allocate(region)
            offset = self._program_attempt(block, meta)
            if offset is not None:
                self._count(kind, 0, 1)
                return self.ppn_of(block.block_id, offset)

    def program_batch(self, kind: PageKind,
                      metas: Sequence[int]) -> List[int]:
        """Program ``metas`` in order, one injector-checked page each."""
        return [self.program(kind, meta) for meta in metas]

    def migrate(self, block: Block,
                kind: PageKind) -> Tuple[List[int], List[int]]:
        """Move valid pages page by page: read, program, invalidate."""
        metas: List[int] = []
        new_ppns: List[int] = []
        for offset in block.valid_offsets():
            old_ppn = self.ppn_of(block.block_id, offset)
            meta = self.read(old_ppn, kind)
            new_ppns.append(self.program(kind, meta))
            self.invalidate(old_ppn)
            metas.append(meta)
        return metas, new_ppns

    def program_into(self, block: Block, kind: PageKind, meta: int) -> int:
        """Program the next page of ``block``; a program failure marks
        the page bad and retries within the same block, so callers that
        need full, contiguous blocks (block-mapped FTLs) must not enable
        program-fault injection."""
        while True:
            offset = self._program_attempt(block, meta)
            if offset is not None:
                self._count(kind, 0, 1)
                return self.ppn_of(block.block_id, offset)

    def read(self, ppn: int, kind: PageKind) -> int:
        """Read a page, retrying transient (injected) errors.

        Retries back off exponentially up to the plan's retry budget;
        each retry is itself a flash operation.  Exhausting the budget
        raises :class:`~repro.errors.ReadError`.
        """
        block = self.block_of(ppn)
        offset = self.offset_of(ppn)
        if block.state(offset) is not PageState.VALID:
            raise FlashError(
                f"read of {block.state(offset).name} page at PPN {ppn}")
        injector = self.injector
        stats = self.stats
        injector.on_operation()
        failures = 0
        while injector.read_attempt_fails():
            failures += 1
            if failures > injector.plan.max_read_retries:
                stats.uncorrectable_reads += 1
                raise ReadError(
                    f"uncorrectable error at PPN {ppn} after "
                    f"{failures} attempts")
            injector.on_operation()
            stats.record_read_retry(
                backoff_us=self.config.read_us * (2 ** (failures - 1)))
        if failures:
            stats.ecc_recovered_reads += 1
        self._count(kind, 1, 0)
        return block._meta[offset]

    def erase(self, block_id: int) -> bool:
        """Erase a block; True if it returned to the free pool.

        False means the block was retired instead — its erase failed, or
        its accumulated bad pages crossed the retirement threshold.  The
        physical erase is still counted in the latter case.  Retiring
        past the spare capacity raises
        :class:`~repro.errors.DeviceWornOutError`.
        """
        block = self._erasable(block_id)
        kind = block.kind
        self.injector.on_operation()
        if self.injector.erase_fails():
            self.stats.erase_failures += 1
            self._retire(block)
            return False
        block.erase()
        self._count_erase(block, kind)
        if block.bad_count >= self._bad_retire_pages:
            self._retire(block)
            return False
        self._free.append(block_id)
        return True

    def _program_attempt(self, block: Block, meta: int) -> Optional[int]:
        """One program attempt; the offset written, or None if it failed
        (the target page went bad)."""
        self.injector.on_operation()
        self.op_seq += 1
        if self.injector.program_fails():
            block.mark_bad()
            self.stats.program_failures += 1
            self._check_spares()
            return None
        return block.program(meta, self.op_seq)

    def _retire(self, block: Block) -> None:
        """Take ``block`` out of service permanently."""
        block.kind = BlockKind.RETIRED
        self.retired_block_ids.append(block.block_id)
        self.stats.retired_blocks += 1
        self._check_spares()

    def _check_spares(self) -> None:
        if self.spare_blocks_remaining < 0:
            raise DeviceWornOutError(
                f"{len(self.retired_block_ids)} blocks retired and "
                f"{self.bad_page_count} pages grown bad, but the device "
                f"has only {self.config.spare_blocks} spare blocks; the "
                "remaining capacity cannot hold the logical space")
