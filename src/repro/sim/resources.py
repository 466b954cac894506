"""Shared resource models used across the datapath.

Three primitives cover nearly every contended element in Rosebud:

* :class:`BoundedFifo` — a byte-bounded tail-drop queue, modelling the
  MAC RX FIFO.
* :class:`SerialLink` — a store-and-forward link that serializes items
  for a computed service time, modelling MAC serialization, the 32 Gbps
  per-RPU links, PCIe and the loopback port.
* :class:`RoundRobinArbiter` — the default arbitration policy between
  inputs contending for the same output (§4.3).

The links are *event-driven*: callers hand items to the resource and
get a callback when the item has passed through.  None of these
primitives counts anything; the host-visible counters live on the
components that own them (``MacPort``, ``RpuModel``, ``RosebudSystem``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

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

    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

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

    def peek(self) -> Optional[Tuple[Any, int]]:
        return self._items[0] if self._items else None


class SerialLink:
    """A work-conserving serializer.

    Items queue in arrival order (the queue is unbounded: upstream slot
    credits bound it in practice); each occupies the link for a service
    time computed by ``service_time(item, nbytes)``.  ``on_done(item)``
    fires when the item fully exits the link, i.e. after store-and-
    forward serialization — matching how a packet must fully land in an
    RPU's memory before the core is notified (§6.2).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        service_time: Callable[[Any, int], float],
        on_done: Callable[[Any], None],
    ) -> None:
        self.sim = sim
        self.name = name
        self._service_time = service_time
        self._on_done = on_done
        #: ``(item, nbytes)`` waiting for the link, oldest first
        self.queue: Deque[Tuple[Any, int]] = deque()
        self._busy = False
        self._paused = False

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Stop starting new items (the in-flight one completes); queued
        items wait — how a downed link backpressures its FIFO."""
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._start_next()

    def offer(self, item: Any, nbytes: int) -> None:
        """Enqueue an item; an idle link starts serializing it at once."""
        self.queue.append((item, nbytes))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if self._paused or not self.queue:
            self._busy = False
            return
        item, nbytes = self.queue.popleft()
        self._busy = True
        self.sim.schedule(
            self._service_time(item, nbytes), lambda: self._finish(item), name=self.name
        )

    def _finish(self, item: Any) -> None:
        self._on_done(item)
        self._start_next()


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


class PriorityArbiter:
    """Fixed-priority arbitration (lowest index wins), the alternative
    policy §4.3 mentions can replace round robin."""

    def __init__(self, n_inputs: int) -> None:
        if n_inputs <= 0:
            raise ValueError("arbiter needs at least one input")
        self.n_inputs = n_inputs

    def select(self, ready: List[bool]) -> Optional[int]:
        if len(ready) != self.n_inputs:
            raise ValueError("ready vector length mismatch")
        for idx, is_ready in enumerate(ready):
            if is_ready:
                return idx
        return None
