"""Rosebud system configuration.

Defaults come from the paper's implementation on the VCU1525 (§5): a
250 MHz fabric, two 100 G ports, 16 (or 8) RPUs grouped in clusters of
four, 512-bit cluster switches (128 Gbps), 128-bit per-RPU links
(32 Gbps), and 16 KB packet slots.

A handful of constants are *calibrated* rather than published; each one
says which measured number in the paper pins it down:

* ``port_ingress_cycles = 2`` — the "125 MPPS per incoming port" limit
  of the distribution subsystem (§6.1) at 250 MHz.
* ``cluster_arb_cycles = 2`` — per-packet arbitration overhead on the
  512-bit switches; reproduces both the 16-RPU 250 MPPS @64 B point and
  the 8-RPU "line rate only ≥1024 B at 200 G" knee (§6.1).
* ``loopback_cycles = 3`` — the destination-RPU header attach cost on
  the loopback port; gives 83 MPPS ≈ the 60 %/61 % @64/65 B loopback
  results (§6.3).
* ``mac_rx_fifo_packets = 4100`` — drained at 125 MPPS this adds the
  32.8 µs the paper measures for saturated 64 B traffic (§6.2).
* fixed pipeline latencies summing (with the 16-cycle forwarder) to
  ~191 cycles = the 0.765 µs intercept of Eq. 1 (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim.clock import Clock, ROSEBUD_CLOCK


class ConfigError(ValueError):
    """Raised for inconsistent configurations."""


@dataclass(frozen=True)
class RosebudConfig:
    """Static parameters of one Rosebud instance."""

    n_rpus: int = 16
    clock: Clock = ROSEBUD_CLOCK
    n_ports: int = 2
    port_gbps: float = 100.0

    # switching fabric (§4.3, §5)
    rpus_per_cluster: int = 4
    cluster_bus_bits: int = 512
    rpu_bus_bits: int = 128
    switch_header_bytes: int = 8
    cluster_arb_cycles: int = 2
    rpu_ingress_overhead_cycles: int = 4
    port_ingress_cycles: int = 2
    loopback_cycles: int = 3
    loopback_gbps: float = 100.0

    # memories and slots (§4.1, §7.1.2)
    slots_per_rpu: int = 16
    slot_bytes: int = 16 * 1024
    packet_mem_bytes: int = 1024 * 1024
    imem_bytes: int = 32 * 1024
    dmem_bytes: int = 32 * 1024
    accel_mem_bytes: int = 128 * 1024
    header_slot_bytes: int = 128
    #: per-RPU stack allocation at the top of dmem; the static verifier
    #: bounds worst-case stack depth against this
    stack_bytes: int = 4096

    # Ethernet frame envelope the verifier may assume for packet-DMA
    # accesses (64 B minimum frame less the 4 B FCS, 1522 B 802.1Q max)
    min_frame_bytes: int = 60
    max_frame_bytes: int = 1522

    # MAC FIFOs (calibrated: +32.8 us at saturated 64 B, §6.2)
    mac_rx_fifo_packets: int = 4100

    # broadcast messaging (§6.3)
    bcast_fifo_depth: int = 18

    # fixed pipeline latencies, in cycles; together with the serialization
    # terms, cut-through delays, and the 16-cycle forwarder these hit the
    # 0.765 us intercept of Eq. 1 at the smallest packet size
    mac_rx_fixed_cycles: int = 25
    dist_in_fixed_cycles: int = 34
    rpu_in_fixed_cycles: int = 20
    rpu_out_fixed_cycles: int = 20
    dist_out_fixed_cycles: int = 27
    mac_tx_fixed_cycles: int = 20
    cluster_cut_through_cycles: int = 8

    # partial reconfiguration (§4.1: 756 ms measured over 320 loads)
    pr_load_ms: float = 756.0

    def __post_init__(self) -> None:
        if self.n_rpus < 1:
            raise ConfigError("need at least one RPU")
        if self.n_ports < 1:
            raise ConfigError("need at least one port")
        if self.slots_per_rpu < 1:
            raise ConfigError("need at least one slot per RPU")
        if self.slot_bytes * self.slots_per_rpu > self.packet_mem_bytes * 2:
            raise ConfigError("slots exceed packet memory (even with header region)")
        if self.cluster_bus_bits % 8 or self.rpu_bus_bits % 8:
            raise ConfigError("bus widths must be byte multiples")
        if not 0 < self.min_frame_bytes <= self.max_frame_bytes:
            raise ConfigError("need 0 < min_frame_bytes <= max_frame_bytes")
        if self.max_frame_bytes + 2 > self.slot_bytes:
            raise ConfigError("max frame (plus DMA offset) exceeds a packet slot")
        if not 0 < self.stack_bytes <= self.dmem_bytes:
            raise ConfigError("stack allocation must fit in dmem")

    @property
    def n_clusters(self) -> int:
        return max(1, self.n_rpus // self.rpus_per_cluster)

    def rpu_cluster(self, rpu_index: int) -> int:
        """Which cluster switch serves this RPU."""
        if not 0 <= rpu_index < self.n_rpus:
            raise ConfigError(f"RPU index {rpu_index} out of range")
        return rpu_index * self.n_clusters // self.n_rpus

    # -- serialization (experiment configs as artifacts) -----------------------

    def to_dict(self) -> dict:
        """JSON-safe dict of every parameter (clock as Hz)."""
        from dataclasses import fields

        out = {}
        for field_info in fields(self):
            value = getattr(self, field_info.name)
            if field_info.name == "clock":
                out["clock_hz"] = value.freq_hz
            else:
                out[field_info.name] = value
        return out

    # front door: the inverse of to_dict, whose output every result JSON carries
    @classmethod
    def from_dict(cls, data: dict) -> "RosebudConfig":
        data = dict(data)
        clock_hz = data.pop("clock_hz", None)
        if clock_hz is not None:
            data["clock"] = Clock(clock_hz)
        return cls(**data)

    def cluster_members(self, cluster: int) -> Tuple[int, ...]:
        return tuple(
            i for i in range(self.n_rpus) if self.rpu_cluster(i) == cluster
        )

    def cluster_service_cycles(self, frame_bytes: int) -> int:
        """Cycles one packet occupies a cluster-switch link."""
        payload = frame_bytes + 4 + self.switch_header_bytes  # +FCS +internal hdr
        beats = -(-payload // (self.cluster_bus_bits // 8))
        return beats + self.cluster_arb_cycles

    def rpu_link_service_cycles(self, frame_bytes: int) -> int:
        """Cycles one packet occupies a per-RPU 128-bit link."""
        payload = frame_bytes + 4 + self.switch_header_bytes
        beats = -(-payload // (self.rpu_bus_bits // 8))
        return beats + self.rpu_ingress_overhead_cycles


#: The two configurations the paper implements (Figures 5 and 6).
CONFIG_16_RPU = RosebudConfig(n_rpus=16)
CONFIG_8_RPU = RosebudConfig(n_rpus=8, slots_per_rpu=32)
