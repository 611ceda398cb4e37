"""The device model: an FTL plus FIFO queueing and response times.

:class:`DeviceModel` is the shared timing subsystem (validation, warmup,
GC accounting, background GC, per-run queue reset, and the deferred
timing fold of :meth:`DeviceModel.run`); :class:`SSDevice` is the
paper-faithful single-channel queue and :class:`ChannelSSDevice`
(extension) overlaps operations across several flash channels.  Use
:func:`make_device` to pick a model by channel count.
"""

from .device import (QOS_POLICIES, DeviceModel, FairShare, RunResult,
                     SSDevice, simulate)
from .parallel import ChannelSSDevice, make_device

__all__ = ["DeviceModel", "SSDevice", "ChannelSSDevice", "RunResult",
           "simulate", "make_device", "FairShare", "QOS_POLICIES"]
