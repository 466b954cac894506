"""Shared resource models used across the datapath.

Three primitives cover nearly every contended element in Rosebud:

* :class:`BoundedFifo` — a byte-bounded tail-drop queue, modelling the
  MAC RX FIFO.
* :class:`SerialLink` — a store-and-forward link that serializes items
  for a computed service time, modelling MAC serialization, the 32 Gbps
  per-RPU links, PCIe and the loopback port.
* :class:`RoundRobinArbiter` — the arbitration policy between inputs
  contending for the same output (§4.3).

A link *books* each item when it is offered: callers hand it the item
and the time it arrives, and get one callback when it has passed
through.  None of these
primitives counts anything; the host-visible counters live on the
components that own them (``MacPort``, ``RpuModel``, ``RosebudSystem``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from .kernel import Simulator


class BoundedFifo:
    """A byte-bounded FIFO.

    ``capacity_bytes`` of None means unbounded.  When full, ``push``
    returns False and leaves the queue unchanged (tail-drop, like a MAC
    FIFO); the owner counts the drop.
    """

    def __init__(
        self,
        name: str = "fifo",
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._items: Deque[Tuple[Any, int]] = deque()
        self._occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    def space_for(self, nbytes: int) -> bool:
        if self.capacity_bytes is None:
            return True
        return self._occupancy + nbytes <= self.capacity_bytes

    def push(self, item: Any, nbytes: int) -> bool:
        if not self.space_for(nbytes):
            return False
        self._items.append((item, nbytes))
        self._occupancy += nbytes
        return True

    def pop(self) -> Optional[Tuple[Any, int]]:
        if not self._items:
            return None
        item, nbytes = self._items.popleft()
        self._occupancy -= nbytes
        return item, nbytes


class SerialLink:
    """A work-conserving serializer that books each item when offered.

    An item offered at ``ready`` (default: now) starts at
    ``max(ready, free_at)`` and holds the link for ``service_time(item,
    nbytes)``; ``on_done(item)`` fires ``latency`` cycles after it fully
    exits (store-and-forward, as a packet must fully land in an RPU's
    memory before the core is notified, §6.2).  This is ``BoardLink``'s
    max-plus rule, so a fixed delay next to a link is an offset and each
    item is one kernel event.  Items are served in ``ready`` order (one
    that overtakes earlier offers re-books them); the queue is unbounded,
    as upstream slot credits bound it in practice.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        service_time: Callable[[Any, int], float],
        on_done: Callable[[Any], None],
        latency: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self._service_time = service_time
        self._on_done = on_done
        self.latency = latency
        #: ``[ready, item, nbytes, start, finish, event]`` per item whose
        #: ``on_done`` has not fired, in ``ready`` order
        self._bookings: Deque[list] = deque()
        #: ``(ready, item, nbytes)`` waiting for :meth:`resume`
        self._held: List[Sequence] = []
        self._free_at = 0.0
        self.paused = False
        sim.warp_shifts.append(self.shift)

    @property
    def busy(self) -> bool:
        now = self.sim.now
        return any(b[3] <= now < b[4] for b in self._bookings)

    @property
    def queue(self) -> List[Tuple[Any, int]]:
        """``(item, nbytes)`` of each item that has arrived but not started."""
        now = self.sim.now
        rows = [b[:3] for b in self._bookings if now < b[3]] + self._held
        return [(item, nbytes) for ready, item, nbytes in rows if ready <= now]

    def pause(self) -> None:
        """Stop starting items (the in-flight one completes); items not
        yet started are held — how a downed link backpressures its FIFO."""
        if not self.paused:
            self._held, self.paused = self._unbook(lambda b: b[3] > self.sim.now), True

    def resume(self) -> None:
        if self.paused:
            self.paused, held, self._held = False, self._held, []
            self._free_at = max(self._free_at, self.sim.now)
            for ready, item, nbytes in sorted(held, key=lambda h: h[0]):
                self.offer(item, nbytes, ready)

    def offer(self, item: Any, nbytes: int, ready: Optional[float] = None) -> None:
        """Book ``item``, arriving at ``ready`` (default: now)."""
        if ready is None:
            ready = self.sim.now
        if self.paused:
            self._held.append((ready, item, nbytes))
        elif self._bookings and self._bookings[-1][0] > ready:
            later = self._unbook(lambda b: b[0] > ready)
            for entry in [(ready, item, nbytes), *later]:
                self._book(*entry)
        else:
            self._book(ready, item, nbytes)

    def shift(self, delta: float) -> None:
        """Translate every booking by ``delta``: :meth:`Simulator.warp`
        moved the epoch and their events, and calls this last."""
        for b in self._bookings:
            b[0], b[3], b[4] = b[0] + delta, b[3] + delta, b[4] + delta
        self._held = [(ready + delta, *rest) for ready, *rest in self._held]
        self._free_at += delta

    def _book(self, ready: float, item: Any, nbytes: int) -> None:
        start = ready if ready > self._free_at else self._free_at
        finish = self._free_at = start + self._service_time(item, nbytes)
        event = self.sim.schedule_at(finish + self.latency, self._fire, self.name)
        self._bookings.append([ready, item, nbytes, start, finish, event])

    def _unbook(self, pred: Callable[[list], bool]) -> List[Sequence]:
        """Cancel the trailing bookings ``pred`` holds for; returns their
        ``[ready, item, nbytes]``, oldest first."""
        bookings, out = self._bookings, []
        while bookings and pred(bookings[-1]):
            booking = bookings.pop()
            booking[5].cancel()
            out.insert(0, booking[:3])
        self._free_at = max(bookings[-1][4] if bookings else 0.0, self.sim.now)
        return out

    def _fire(self) -> None:
        self._on_done(self._bookings.popleft()[1])


class RoundRobinArbiter:
    """Round-robin selection among a fixed set of input indices.

    ``select(ready)`` picks the next ready input at or after the last
    grant + 1, the standard RR policy the paper's switches use.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs <= 0:
            raise ValueError("arbiter needs at least one input")
        self.n_inputs = n_inputs
        self._last = n_inputs - 1

    def select(self, ready: List[bool]) -> Optional[int]:
        if len(ready) != self.n_inputs:
            raise ValueError("ready vector length mismatch")
        for offset in range(1, self.n_inputs + 1):
            idx = (self._last + offset) % self.n_inputs
            if ready[idx]:
                self._last = idx
                return idx
        return None
