"""The inter-board MAC link: a deterministic serialization model.

The source board computes each crossing packet's arrival time
arithmetically (``max(emit, busy) + serialization + latency``, the rule
the in-board :class:`~repro.sim.resources.SerialLink` books by too), but
this link schedules no event: the destination schedules the delivery at
the next horizon barrier.  Keeping the link stateless apart from one
``busy_until`` float is what makes an N-shard run bit-identical to the
inline run — the same float operations execute in the same order per
link regardless of which process hosts the source board.

Every ordered board pair gets its own link (the artifact's two boards
are joined by two unidirectional 100G cables; an N-board rack is the
full mesh of those).
"""

from __future__ import annotations


class BoardLink:
    """One unidirectional inter-board cable."""

    def __init__(self, gbps: float, latency_cycles: float, freq_hz: float) -> None:
        self.gbps = gbps
        self.latency_cycles = latency_cycles
        #: cycles to serialize one byte at ``gbps`` on a ``freq_hz`` clock
        self.cycles_per_byte = 8.0 * freq_hz / (gbps * 1e9)
        self.busy_until = 0.0
        self.packets = 0
        self.bytes = 0

    def send(self, emit_cycles: float, n_bytes: int) -> float:
        """Account one packet; returns its arrival time at the far end.

        Arrival is strictly greater than ``emit + latency``, which is
        the lookahead the bounded-lag horizon relies on: a packet
        emitted inside window ``k`` can only arrive in window ``k+1``
        or later (for any horizon <= the link latency).
        """
        start = emit_cycles if emit_cycles > self.busy_until else self.busy_until
        self.busy_until = start + n_bytes * self.cycles_per_byte
        self.packets += 1
        self.bytes += n_bytes
        return self.busy_until + self.latency_cycles
