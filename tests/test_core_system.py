"""Integration tests for the assembled system."""

import pytest

from repro.core import (
    HashLB,
    HostInterface,
    RosebudConfig,
    RosebudSystem,
)
from repro.core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_HOST,
    ACTION_LOOPBACK,
    FirmwareModel,
    FirmwareResult,
)
from repro.firmware import ForwarderFirmware, TwoStepForwarder
from repro.packet import build_tcp
from repro.sim.clock import wire_bytes
from repro.traffic import FixedSizeSource


def _pkt(size=128, sport=1):
    return build_tcp("10.0.0.1", "10.0.0.2", sport, 80, pad_to=size)


class TestForwardPath:
    def test_packet_comes_out_other_port(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        pkt = _pkt()
        system.offer_packet(0, pkt)
        system.sim.run()
        assert system.counters.value("delivered") == 1
        assert system.macs[1].counters.value("tx_frames") == 1
        assert system.macs[0].counters.value("tx_frames") == 0

    def test_latency_recorded(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        system.offer_packet(0, _pkt(64))
        system.sim.run()
        assert system.latency_us.count == 1
        assert 0.5 < system.latency_us.mean < 1.2

    def test_slot_returned_after_send(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        system.offer_packet(0, _pkt())
        system.sim.run()
        for rpu in range(16):
            assert system.lb.slots.occupancy(rpu) == 0

    def test_many_packets_conserved(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        for i in range(100):
            system.offer_packet(i % 2, _pkt(sport=i + 1))
        system.sim.run()
        assert system.counters.value("delivered") == 100
        assert system.total_rx_drops() == 0

    def test_round_robin_spreads_across_rpus(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        for i in range(64):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        counts = system.rpu_packet_counts()
        assert all(count == 4 for count in counts)

    def test_hash_lb_flow_affinity_end_to_end(self):
        system = RosebudSystem(
            RosebudConfig(n_rpus=8), ForwarderFirmware(), lb_policy=HashLB(8)
        )
        for _ in range(20):
            system.offer_packet(0, _pkt())  # same flow every time
        system.sim.run()
        counts = system.rpu_packet_counts()
        assert sorted(counts)[-1] == 20  # all on one RPU
        assert sum(counts) == 20


class _ActionFirmware(FirmwareModel):
    """Firmware that maps dst port -> action, for routing tests."""

    name = "action_fw"

    def __init__(self, n_rpus=16):
        self.n_rpus = n_rpus

    def process(self, packet, rpu_index):
        dport = packet.parsed.tcp.dst_port
        if dport == 1:
            return FirmwareResult(action=ACTION_DROP, sw_cycles=10)
        if dport == 2:
            return FirmwareResult(action=ACTION_HOST, sw_cycles=10)
        if dport == 3 and "looped" not in packet.timestamps:
            packet.timestamps["looped"] = 1.0
            dest = (rpu_index + 1) % self.n_rpus
            return FirmwareResult(action=ACTION_LOOPBACK, sw_cycles=10, loopback_dest=dest)
        return FirmwareResult(action=ACTION_FORWARD, sw_cycles=10, egress_port=1)

    def clone(self):
        return self


class TestActions:
    def _run(self, dport):
        system = RosebudSystem(RosebudConfig(n_rpus=16), _ActionFirmware())
        pkt = build_tcp("10.0.0.1", "10.0.0.2", 9, dport, pad_to=128)
        system.offer_packet(0, pkt)
        system.sim.run()
        return system, pkt

    def test_drop_action(self):
        system, _ = self._run(dport=1)
        assert system.counters.value("dropped_by_firmware") == 1
        assert system.counters.value("delivered") == 0
        assert all(system.lb.slots.occupancy(r) == 0 for r in range(16))

    def test_host_action(self):
        system, pkt = self._run(dport=2)
        assert system.counters.value("to_host") == 1
        assert system.host_rx == [pkt]

    def test_loopback_action_reaches_second_rpu(self):
        system, pkt = self._run(dport=3)
        assert system.counters.value("loopbacked") == 1
        # the second RPU forwarded it out, and no slot leaked
        assert system.counters.value("delivered") == 1
        assert all(system.lb.slots.occupancy(r) == 0 for r in range(16))

    def test_forward_action(self):
        system, _ = self._run(dport=80)
        assert system.counters.value("delivered") == 1


class TestLoopbackSystem:
    def test_two_step_forwarding_delivers(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), TwoStepForwarder(16))
        system.lb.host_write(system.lb.REG_ENABLE_MASK, 0x00FF)
        for i in range(40):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        assert system.counters.value("delivered") == 40
        assert system.counters.value("loopbacked") == 40
        # both halves did work
        counts = system.rpu_packet_counts()
        assert sum(counts[:8]) == 40 and sum(counts[8:]) == 40

    def test_loopback_slots_do_not_leak(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), TwoStepForwarder(16))
        system.lb.host_write(system.lb.REG_ENABLE_MASK, 0x00FF)
        for i in range(30):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        assert all(system.lb.slots.occupancy(r) == 0 for r in range(16))


class TestOverload:
    def test_rx_fifo_bounds_backlog(self):
        cfg = RosebudConfig(n_rpus=16, mac_rx_fifo_packets=50)
        system = RosebudSystem(cfg, ForwarderFirmware(sw_cycles=10_000))
        source = FixedSizeSource(system, 0, 100.0, 64, n_packets=3000,
                                 respect_generator_cap=False)
        source.start()
        system.sim.run(until=2_000_000)
        assert system.total_rx_drops() > 0
        assert system.macs[0].rx_backlog() <= 50

    def test_slow_firmware_limits_rate_not_correctness(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware(sw_cycles=1000))
        for i in range(20):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        assert system.counters.value("delivered") == 20


class TestHostInterface:
    def test_counters_readable(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system)
        system.offer_packet(0, _pkt())
        system.sim.run()
        iface = host.read_interface_counters()
        assert iface["port0"]["rx_frames"] == 1
        assert iface["port1"]["tx_frames"] == 1
        rpus = host.read_rpu_counters()
        assert sum(r["packets"] for r in rpus) == 1

    def test_receive_mask(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system)
        host.set_receive_mask(0x0001)
        for i in range(10):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        counts = system.rpu_packet_counts()
        assert counts[0] == 10 and sum(counts[1:]) == 0

    def test_poke_rpu(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system)
        state = host.poke_rpu(0)
        assert state["in_flight"] == 0
        assert not system.rpus[0].paused  # resumed after poke


class TestReconfiguration:
    def test_no_pause_reconfig_under_traffic(self):
        """§4.1/§A.8: traffic keeps flowing while one RPU reloads."""
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system, pr_load_ms=0.01)  # scaled for test
        source = FixedSizeSource(system, 0, 10.0, 256, n_packets=2000)
        source.start()
        system.sim.run(until=5000)
        record = host.reconfigure_rpu(5, ForwarderFirmware(sw_cycles=20))
        system.sim.run()
        # everything offered was delivered: zero loss during the swap
        assert system.counters.value("delivered") == 2000
        assert system.total_rx_drops() == 0
        assert record.booted_at > record.drained_at > 0
        assert system.rpus[5].firmware.sw_cycles == 20

    def test_reconfigured_rpu_rejoins(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware())
        host = HostInterface(system, pr_load_ms=0.001)
        host.reconfigure_rpu(2, ForwarderFirmware())
        system.sim.run()
        assert system.lb.enabled[2]
        for i in range(8):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        assert system.rpu_packet_counts()[2] == 2

    def test_drain_waits_for_in_flight(self):
        system = RosebudSystem(RosebudConfig(n_rpus=2), ForwarderFirmware(sw_cycles=5000))
        host = HostInterface(system, pr_load_ms=0.001)
        system.offer_packet(0, _pkt(sport=1))  # goes to rpu 0
        system.sim.run(until=300)  # packet is inside rpu 0 now
        record = host.reconfigure_rpu(0, ForwarderFirmware())
        system.sim.run()
        assert record.drained_at >= 5000  # waited for the slow packet
        assert system.counters.value("delivered") == 1


class TestClockWarp:
    def test_translated_link_keeps_its_booking(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sim, mac = system.sim, system.macs[0]
        sent = []
        system.on_delivery = lambda packet: sent.append(sim.now)
        first, second, third = _pkt(1500), _pkt(1500, sport=2), _pkt(1500, sport=3)
        mac.transmit(first)
        mac.transmit(second)
        sim.run(until=30)  # first serializes from cycle 20, second waits
        link = mac._tx_link
        assert link.busy and link.queue == [(second, 1500)]
        sim.warp(1000)
        assert link.busy and link.queue == [(second, 1500)]
        mac.transmit(third)
        sim.run()
        service = wire_bytes(1500) * 8 / 100 / 4  # cycles at 100 G, 250 MHz
        # the third frame waits for the second, which follows the first
        assert sent == pytest.approx([1020 + k * service for k in (1, 2, 3)])

    def test_booked_egress_switch_moves_with_the_clock(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sim, fabric = system.sim, system.fabric_out
        packet = _pkt(1500)
        packet.route = FirmwareResult(action=ACTION_FORWARD, sw_cycles=16, egress_port=1)
        fabric.send_from_rpu(packet, 0)
        sim.run(until=fabric.rpu_links[0]._bookings[0][4])  # the RPU link finishes
        free_at = fabric.free_at[0]
        assert free_at > sim.now
        sim.warp(1000)
        assert fabric.free_at[0] == free_at + 1000

    def test_booked_ingress_switch_moves_with_the_clock(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        sim, fabric = system.sim, system.fabric_in
        packet = _pkt(1500)
        packet.dest_rpu = 0
        fabric.send_to_rpu(packet)
        sim.run(until=1)
        free_at = fabric.free_at[0]
        assert free_at > sim.now
        sim.warp(1000)
        assert fabric.free_at[0] == free_at + 1000
