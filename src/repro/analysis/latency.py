"""The paper's latency model (Equation 1, §6.2).

    Est. latency (us) = size * 8 * (2/100 + 2/32) / 1000 + 0.765

The size-dependent term is serialization: twice through a 100 Gbps MAC
(in and out) and twice through the 32 Gbps RPU link (the packet fully
lands in RPU memory before the core is notified, and fully serializes
out after the descriptor is released).  The 0.765 us intercept is the
fixed pipeline latency measured at the smallest packet size.
"""

from __future__ import annotations

#: Fixed forwarding latency measured for the smallest packet (us).
FIXED_LATENCY_US = 0.765

#: Line rates of the two serialization stages (Gbps).
MAC_GBPS = 100.0
RPU_LINK_GBPS = 32.0


def estimated_latency_us(size: int, mac_gbps: float = MAC_GBPS, rpu_gbps: float = RPU_LINK_GBPS) -> float:
    """Equation 1: expected forwarding latency for a packet size."""
    serialization = size * 8 * (2.0 / mac_gbps + 2.0 / rpu_gbps) / 1000.0
    return serialization + FIXED_LATENCY_US


#: Additional latency at saturated 64 B load: the RX FIFO fills and
#: drains at the forwarder rate (§6.2 measures 32.8 us).
SATURATED_64B_EXTRA_US = 32.8
