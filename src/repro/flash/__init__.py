"""NAND flash substrate: pages, blocks, and the flash array.

This package models the physical medium the FTLs manage.  It enforces the
NAND rules the paper's design responds to — erase-before-write, sequential
in-block programming, block-granularity erase — and counts every operation
so the layers above can report translation overhead precisely.
:class:`FlashMemory` is the ideal array; :class:`FaultyFlashMemory`
consults a fault injector on every operation.
"""

from .block import Block
from .flash import FaultyFlashMemory, FlashMemory
from .stats import FlashStats

__all__ = ["Block", "FaultyFlashMemory", "FlashMemory", "FlashStats"]
