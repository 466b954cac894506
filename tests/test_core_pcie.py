"""Tests for the PCIe virtual Ethernet interface and watchdogs."""

from repro.core import (
    HostInterface,
    RosebudConfig,
    RosebudSystem,
)
from repro.core.firmware_api import ACTION_FORWARD, FirmwareModel, FirmwareResult
from repro.firmware import ForwarderFirmware
from repro.packet import build_tcp


def _pkt(size=256, sport=1):
    return build_tcp("10.0.0.1", "10.0.0.2", sport, 80, pad_to=size)


class TestVirtualEthernet:
    def test_host_packet_forwarded_out_a_port(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), ForwarderFirmware())
        host = HostInterface(system)
        pkt = _pkt()
        pkt.ingress_port = 0
        host.inject_packet(pkt)
        system.sim.run()
        assert system.counters.value("delivered") == 1
        assert system.virtual_ethernet.counters.value("tx_frames") == 1

    def test_host_traffic_shares_lb_and_rpus(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware())
        host = HostInterface(system)
        for i in range(8):
            host.inject_packet(_pkt(sport=i + 1))
        system.sim.run()
        assert system.rpu_packet_counts() == [2, 2, 2, 2]

    def test_vnic_defers_when_slots_exhausted(self):
        config = RosebudConfig(n_rpus=1, slots_per_rpu=1)
        system = RosebudSystem(config, ForwarderFirmware(sw_cycles=2000))
        host = HostInterface(system)
        for i in range(4):
            host.inject_packet(_pkt(sport=i + 1))
        system.sim.run()
        assert system.counters.value("delivered") == 4
        assert system.virtual_ethernet.counters.value("deferred") > 0


class _HangFirmware(FirmwareModel):
    """Fault injection: the first packet wedges the core."""

    name = "hang_fw"

    def __init__(self):
        self.hung = False

    def process(self, packet, rpu_index):
        if not self.hung and rpu_index == 0:
            self.hung = True
            return FirmwareResult(action=ACTION_FORWARD, sw_cycles=10**9)
        return FirmwareResult(action=ACTION_FORWARD, sw_cycles=16,
                              egress_port=packet.ingress_port ^ 1)

    def clone(self):
        return _HangFirmware()


class TestWatchdog:
    def test_hung_rpu_detected(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), _HangFirmware())
        host = HostInterface(system)
        for i in range(8):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run(until=500_000)
        stalled = host.check_watchdogs(threshold_cycles=100_000)
        assert stalled == [0]

    def test_healthy_system_has_no_stalls(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware())
        host = HostInterface(system)
        for i in range(8):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run()
        assert host.check_watchdogs(threshold_cycles=1000) == []

    def test_status_registers_visible(self):
        system = RosebudSystem(RosebudConfig(n_rpus=4), ForwarderFirmware())
        host = HostInterface(system)
        system.rpus[2].status_register = 0xDEAD
        assert host.read_status_registers() == [0, 0, 0xDEAD, 0]

    def test_hung_rpu_recoverable_by_reconfiguration(self):
        """The full §3.4 story: detect the hang, reload the RPU, and
        the system is healthy again."""
        system = RosebudSystem(RosebudConfig(n_rpus=4), _HangFirmware())
        host = HostInterface(system, pr_load_ms=0.001)
        for i in range(8):
            system.offer_packet(0, _pkt(sport=i + 1))
        system.sim.run(until=500_000)
        assert host.check_watchdogs(100_000) == [0]
        # evict the wedged RPU and reload it
        abandoned = host.evict_rpu(0)
        assert abandoned >= 1
        host.reconfigure_rpu(0, ForwarderFirmware())
        system.sim.run()
        assert host.check_watchdogs(100_000) == []
        before = system.counters.value("delivered")
        system.offer_packet(0, _pkt(sport=99))
        system.sim.run()
        assert system.counters.value("delivered") == before + 1
