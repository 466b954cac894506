"""Tests for NIC-mode operation and simulation determinism."""


from repro.core import HostInterface, RosebudConfig, RosebudSystem
from repro.core.firmware_api import ACTION_FORWARD, ACTION_HOST, FirmwareModel, FirmwareResult
from repro.firmware import FORWARDER_CYCLES, ForwarderFirmware
from repro.packet import build_tcp


class NicFirmware(FirmwareModel):
    """Rosebud as a plain NIC (§5): wire traffic goes to the host over
    PCIe, host-sourced traffic (virtual Ethernet) out a physical port."""

    def __init__(self, egress_port: int = 0) -> None:
        self.egress_port = egress_port

    def process(self, packet, rpu_index):
        if packet.timestamps.get("mac_rx_done") is not None:
            return FirmwareResult(action=ACTION_HOST, sw_cycles=FORWARDER_CYCLES)
        return FirmwareResult(
            action=ACTION_FORWARD, sw_cycles=FORWARDER_CYCLES, egress_port=self.egress_port
        )

    def clone(self):
        return NicFirmware(self.egress_port)


class TestNicMode:
    def test_wire_traffic_reaches_host(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), NicFirmware())
        for i in range(10):
            system.offer_packet(0, build_tcp("1.1.1.1", "2.2.2.2", i + 1, 80, pad_to=256))
        system.sim.run()
        assert system.counters.value("to_host") == 10
        assert system.counters.value("delivered") == 0
        assert len(system.host_rx) == 10

    def test_host_traffic_reaches_wire(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), NicFirmware(egress_port=1))
        host = HostInterface(system)
        for i in range(6):
            host.inject_packet(build_tcp("10.0.0.1", "8.8.8.8", i + 1, 53, pad_to=200))
        system.sim.run()
        assert system.counters.value("delivered") == 6
        assert system.macs[1].counters.value("tx_frames") == 6

    def test_bidirectional_nic(self):
        system = RosebudSystem(RosebudConfig(n_rpus=16), NicFirmware())
        host = HostInterface(system)
        system.offer_packet(0, build_tcp("1.1.1.1", "2.2.2.2", 5, 80, pad_to=128))
        host.inject_packet(build_tcp("10.0.0.1", "8.8.8.8", 6, 53, pad_to=128))
        system.sim.run()
        assert system.counters.value("to_host") == 1
        assert system.counters.value("delivered") == 1


def _run_fingerprint(seed: int):
    """A moderately complex run reduced to a comparable fingerprint.

    IMIX traffic makes the packet-size *sequence* seed-dependent, so
    the timing fingerprint separates seeds while staying reproducible.
    """
    from repro.traffic import ImixSource

    system = RosebudSystem(RosebudConfig(n_rpus=8, slots_per_rpu=32), ForwarderFirmware())
    sources = [
        ImixSource(system, port, 80.0, seed=seed + port, n_packets=400)
        for port in range(2)
    ]
    for source in sources:
        source.start()
    system.sim.run()
    return (
        system.counters.snapshot(),
        tuple(system.rpu_packet_counts()),
        round(system.latency_us.mean, 9),
        system.sim.events_processed,
        system.sim.now,
    )


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        """The whole stack is deterministic given seeds — the property
        that makes simulation debugging pleasant (§2.3's complaint
        about hardware is precisely that it isn't)."""
        assert _run_fingerprint(7) == _run_fingerprint(7)

    def test_different_seeds_differ(self):
        assert _run_fingerprint(7) != _run_fingerprint(8)
