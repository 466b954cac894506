"""The customizable packet load balancer (§4.2).

The LB sits between the ingress ports and the distribution switches: it
labels every packet with a destination RPU and slot, subject to the
slot credits it tracks.  Policies are pluggable — the paper ships round
robin and the Pigasus case study's hash-based LB (which also prepends
the computed flow hash to the packet so firmware can reuse it), and
suggests a least-loaded policy as another example.

The host talks to the LB over a 30-bit register channel: enabling and
disabling RPUs (used while reconfiguring one at runtime), reading slot
availability, and flushing slots.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence

from ..packet.packet import Packet
from .config import RosebudConfig
from .descriptors import SlotTable


class LBPolicy:
    """Base class for load-balancing policies.

    ``choose`` returns the destination RPU index among ``candidates``
    (RPUs that are enabled *and* hold a free slot), or None to defer
    the packet (leave it queued upstream).
    """

    name = "base"

    # front door: abstract; every LB policy overrides it
    def choose(self, packet: Packet, candidates: Sequence[int], slots: SlotTable) -> Optional[int]:
        raise NotImplementedError

    def on_dispatch(self, packet: Packet, rpu: int) -> None:
        """Hook after a packet is labelled (hash LB prepends data here)."""


class RoundRobinLB(LBPolicy):
    """Cycle through RPUs in order, skipping busy/disabled ones."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, packet: Packet, candidates: Sequence[int], slots: SlotTable) -> Optional[int]:
        if not candidates:
            return None
        # pick the first candidate at or after the RR pointer
        n = slots.n_rpus
        best = min(candidates, key=lambda r: (r - self._next) % n)
        self._next = (best + 1) % n
        return best


def flow_hash(packet: Packet, bits: int = 32) -> int:
    """The inline flow-hash accelerator in the hash LB (§7.1.2).

    Hashes the 5-tuple so both directions of a flow can be steered
    consistently; CRC32 stands in for the hardware hash.
    """
    tup = packet.five_tuple
    if tup is None:
        return zlib.crc32(packet.data[:14]) & ((1 << bits) - 1)
    src, dst, proto, sport, dport = tup
    key = f"{src}|{dst}|{proto}|{sport}|{dport}".encode()
    return zlib.crc32(key) & ((1 << bits) - 1)


class HashLB(LBPolicy):
    """Flow-affinity LB: same flow always lands on the same RPU.

    Uses ``hash_bits`` bits of the 32-bit flow hash to index RPUs and
    prepends the 4-byte hash to the packet (``packet.flow_hash``) so
    the RPU software reuses it for its flow-state table without
    recomputation.  Packets for a disabled or slot-exhausted RPU are
    deferred rather than diverted, preserving flow affinity.
    """

    name = "hash"

    def __init__(self, n_rpus: int) -> None:
        if n_rpus & (n_rpus - 1):
            raise ValueError("hash LB wants a power-of-two RPU count")
        self.n_rpus = n_rpus
        self.hash_bits = n_rpus.bit_length() - 1

    def choose(self, packet: Packet, candidates: Sequence[int], slots: SlotTable) -> Optional[int]:
        h = flow_hash(packet)
        packet.flow_hash = h
        target = h & (self.n_rpus - 1)
        return target if target in candidates else None

    def on_dispatch(self, packet: Packet, rpu: int) -> None:
        # the hardware pads the 4-byte hash result onto the packet front
        if packet.flow_hash is None:
            packet.flow_hash = flow_hash(packet)


class PowerOfTwoChoicesLB(LBPolicy):
    """An example *custom* LB policy (§4.2 invites exactly this).

    Classic power-of-two-choices: hash the flow to two candidate RPUs
    and pick the less loaded one.  Keeps most of hash affinity's cache
    benefits while bounding imbalance — a policy a Rosebud user could
    drop into the LB's PR block.
    """

    name = "power_of_two"

    def __init__(self, n_rpus: int) -> None:
        if n_rpus < 2:
            raise ValueError("power-of-two choices needs at least 2 RPUs")
        self.n_rpus = n_rpus

    def choose(self, packet: Packet, candidates: Sequence[int], slots: SlotTable) -> Optional[int]:
        if not candidates:
            return None
        h = flow_hash(packet)
        packet.flow_hash = h
        first = h % self.n_rpus
        second = (h >> 16) % self.n_rpus
        options = [rpu for rpu in (first, second) if rpu in candidates]
        if not options:
            return None
        return max(options, key=slots.free_count)


class LeastLoadedLB(LBPolicy):
    """Assign to the RPU with the most free slots (ties round robin)."""

    name = "least_loaded"

    def __init__(self) -> None:
        self._tiebreak = 0

    def choose(self, packet: Packet, candidates: Sequence[int], slots: SlotTable) -> Optional[int]:
        if not candidates:
            return None
        best = max(
            candidates,
            key=lambda r: (slots.free_count(r), -((r - self._tiebreak) % 1024)),
        )
        self._tiebreak = best + 1
        return best


class LoadBalancer:
    """The LB block: policy + slot credits + host register channel."""

    def __init__(self, config: RosebudConfig, policy: Optional[LBPolicy] = None) -> None:
        self.config = config
        self.policy = policy or RoundRobinLB()
        self.slots = SlotTable(config.n_rpus, config.slots_per_rpu)
        self.enabled: List[bool] = [True] * config.n_rpus
        self.dispatched = 0
        self.deferred = 0

    def candidates(self) -> List[int]:
        return [
            rpu
            for rpu in range(self.config.n_rpus)
            if self.enabled[rpu] and self.slots.has_free(rpu)
        ]

    def assign(self, packet: Packet) -> Optional[int]:
        """Label ``packet`` with a destination RPU and slot, or None if
        the policy defers (no candidate)."""
        rpu = self.policy.choose(packet, self.candidates(), self.slots)
        if rpu is None:
            self.deferred += 1
            return None
        packet.dest_rpu = rpu
        packet.slot = self.slots.allocate(rpu)
        self.policy.on_dispatch(packet, rpu)
        self.dispatched += 1
        return rpu

    def slot_freed(self, rpu: int, slot: int) -> None:
        """Interconnect tells the LB a slot was sent out (§4.2)."""
        self.slots.release(rpu, slot)

    # -- host register channel (30-bit address space, §4.2) ------------------

    REG_ENABLE_MASK = 0x0000_0000
    REG_FREE_SLOTS_BASE = 0x0000_0100
    REG_FLUSH_BASE = 0x0000_0200

    # front door: HostInterface.lb_read
    def host_read(self, addr: int) -> int:
        if addr == self.REG_ENABLE_MASK:
            mask = 0
            for idx, on in enumerate(self.enabled):
                mask |= int(on) << idx
            return mask
        if self.REG_FREE_SLOTS_BASE <= addr < self.REG_FREE_SLOTS_BASE + self.config.n_rpus:
            return self.slots.free_count(addr - self.REG_FREE_SLOTS_BASE)
        raise ValueError(f"unknown LB register {addr:#x}")

    def host_write(self, addr: int, value: int) -> None:
        if addr == self.REG_ENABLE_MASK:
            self.enabled = [
                bool(value >> idx & 1) for idx in range(self.config.n_rpus)
            ]
            return
        if self.REG_FLUSH_BASE <= addr < self.REG_FLUSH_BASE + self.config.n_rpus:
            self.slots.flush(addr - self.REG_FLUSH_BASE)
            return
        raise ValueError(f"unknown LB register {addr:#x}")

    def disable_rpu(self, rpu: int) -> None:
        self.enabled[rpu] = False

    def enable_rpu(self, rpu: int) -> None:
        self.enabled[rpu] = True
