"""Tests for the flow-statistics firmware: data structures in assembly,
state readable from the host (§3.4)."""

import struct


from repro.core.funcsim import FunctionalRpu
from repro.firmware.asm_sources import FLOW_COUNTER_ASM
from repro.packet import build_tcp, ip_to_int

from .conftest import build_raw


def _bucket(src_ip: str) -> int:
    """The firmware's fold of the LE-loaded source IP into 8 bits."""
    word = int.from_bytes(ip_to_int(src_ip).to_bytes(4, "big"), "little")
    word ^= word >> 16
    word ^= word >> 8
    return word & 0xFF


def _counts(rpu) -> list:
    table = rpu.dump_memory("dmem")[:1024]
    return list(struct.unpack("<256I", table))


class TestFlowCounter:
    def test_counts_per_flow(self):
        rpu = FunctionalRpu(FLOW_COUNTER_ASM)
        flows = {"10.1.1.1": 3, "10.2.2.2": 5}
        total = 0
        for src, count in flows.items():
            for _ in range(count):
                rpu.push_packet(build_tcp(src, "10.9.9.9", 1, 2, pad_to=64).data)
                total += 1
                rpu.run_until_sent(total)
        counts = _counts(rpu)
        for src, count in flows.items():
            assert counts[_bucket(src)] == count
        assert sum(counts) == total

    def test_packets_still_forwarded(self):
        rpu = FunctionalRpu(FLOW_COUNTER_ASM)
        rpu.push_packet(build_tcp("10.1.1.1", "10.9.9.9", 1, 2, pad_to=64).data, port=0)
        rpu.run_until_sent(1)
        assert rpu.sent[0].port == 1
        assert not rpu.sent[0].dropped

    def test_non_ip_forwarded_uncounted(self):
        rpu = FunctionalRpu(FLOW_COUNTER_ASM)
        rpu.push_packet(build_raw(64).data)
        rpu.run_until_sent(1)
        assert sum(_counts(rpu)) == 0

    def test_host_can_reset_the_table(self):
        """§3.4: the host has write access to RPU memory at runtime."""
        rpu = FunctionalRpu(FLOW_COUNTER_ASM)
        rpu.push_packet(build_tcp("10.1.1.1", "10.9.9.9", 1, 2, pad_to=64).data)
        rpu.run_until_sent(1)
        assert sum(_counts(rpu)) == 1
        rpu.dmem.load_bytes(0, b"\x00" * 1024)  # host zeroes the table
        rpu.push_packet(build_tcp("10.1.1.1", "10.9.9.9", 1, 2, pad_to=64).data)
        rpu.run_until_sent(2)
        assert sum(_counts(rpu)) == 1
