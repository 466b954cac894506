"""Packet-class replay cache.

The paper's workloads spend almost all simulated CPU time re-executing
the *same* firmware path for behaviourally identical packets: same
headers, same size, same accelerator verdict, different payload bytes.
:class:`ReplayCache` memoizes that work for the functional simulator
(``core.funcsim``), at the instruction level.  A miss records the packet
bracket (every bus transaction the firmware performs between picking
up a descriptor and posting its send) together with the registers it
reads before writing them (its live-in set), the registers it writes,
and the CSRs.  A hit re-validates the live-in values, the CSRs and the
record's read set against live memory, then applies the captured
effects — memory, cycle stamps, and the end values of the registers the
bracket wrote — without entering the CPU.  Registers the bracket never
touched keep their values, as real execution would leave them.

The contract is **correctness over hit rate**.  Any read outside the
packet class (mutable per-flow state, cycle counters, un-tokenized
accelerator state) either falls back to real execution or marks the
record non-replayable.  Differential tests assert cached and uncached
runs are byte-identical.

The event-driven simulator has no replay cache: its behavioural
``FirmwareModel.process()`` is under 1 % of an event-tier run, so
memoizing it measured slower than calling it (see ``CHANGES.md``, PR 16).
"""

from .cache import ReplayCache
from .record import ReplayDivergenceError, ReplayRecord, TraceRecorder
from .stats import ReplayStats

__all__ = [
    "ReplayCache",
    "ReplayDivergenceError",
    "ReplayRecord",
    "ReplayStats",
    "TraceRecorder",
]
