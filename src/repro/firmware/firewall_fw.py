"""Firewall firmware (§7.2, Appendix C).

Per packet: check the Ethernet type, load the source IP into the IP
matcher over MMIO, read the match flag, then either drop (set length
to zero) or forward out the other port.  The paper's measured result —
200 Gbps for packets of 256 B and up on 16 RPUs — pins the per-packet
software cost at roughly 44 cycles (16 RPUs x 250 MHz / 90.6 MPPS);
the assembly version of this firmware measures in that range on the
instruction-set simulator.
"""

from __future__ import annotations

from ..accel.firewall import IpBlacklistMatcher
from ..core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    FirmwareModel,
    FirmwareResult,
)
from ..packet.headers import ip_to_int
from ..packet.packet import Packet

#: Per-packet core cycles: parse + MMIO round trip + descriptor release.
#: Calibrated so 16 RPUs sustain 200 Gbps at 256 B like the paper.
FIREWALL_CYCLES = 42
#: Non-IPv4 packets skip the accelerator round trip.
FIREWALL_NON_IP_CYCLES = 24
#: Extra core cycles when the accelerator's parity check fails and the
#: lookup is redone in software (linear prefix scan) — the paper's
#: orchestration-in-software insight applied to fault recovery.
FIREWALL_SW_FALLBACK_CYCLES = 400


class FirewallFirmware(FirmwareModel):
    """Blacklist firewall on one RPU.

    All RPUs share one functional matcher instance (the compiled rule
    table is identical hardware in each PR region); per-RPU counters
    live in the RPU model.
    """

    name = "firewall"
    #: decisions depend on the packet class (src IP) and the immutable
    #: compiled prefix tables; counters are the only mutations
    replay_safe = True

    def __init__(self, matcher: IpBlacklistMatcher) -> None:
        self.matcher = matcher
        self.dropped = 0
        self.forwarded = 0
        #: poisoned accelerator reads this firmware caught and redid in
        #: software (summed into ``firmware_totals`` by the engine)
        self.accel_faults_recovered = 0

    def _software_check(self, src_ip: int) -> bool:
        """Pure-software fallback: linear scan of the compiled prefix
        list, no accelerator involved."""
        return any(prefix.matches(src_ip) for prefix in self.matcher.prefixes)

    def process(self, packet: Packet, rpu_index: int) -> FirmwareResult:
        parsed = packet.parsed
        if parsed.ipv4 is None:
            # non-IPv4 goes to the drop path in the Appendix C listing
            self.dropped += 1
            return FirmwareResult(action=ACTION_DROP, sw_cycles=FIREWALL_NON_IP_CYCLES)
        src_ip = ip_to_int(parsed.ipv4.src)
        # MMIO: write ACC_SRC_IP, 2-cycle lookup, read ACC_FW_MATCH —
        # the blocking read is included in FIREWALL_CYCLES
        seen, parity_ok = self.matcher.guard(int(self.matcher.check(src_ip)))
        sw_cycles = FIREWALL_CYCLES
        if parity_ok:
            match = bool(seen)
        else:
            # parity failed: distrust the read and redo it in software
            self.accel_faults_recovered += 1
            match = self._software_check(src_ip)
            sw_cycles += FIREWALL_SW_FALLBACK_CYCLES
        if match:
            self.dropped += 1
            return FirmwareResult(action=ACTION_DROP, sw_cycles=sw_cycles)
        self.forwarded += 1
        return FirmwareResult(
            action=ACTION_FORWARD,
            sw_cycles=sw_cycles,
            egress_port=packet.ingress_port ^ 1,
        )

    def clone(self) -> "FirewallFirmware":
        return FirewallFirmware(self.matcher)
