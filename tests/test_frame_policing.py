"""Tests for MAC frame policing and slot-size enforcement."""


from repro.core import RosebudConfig, RosebudSystem
from repro.core.mac import MAX_FRAME_BYTES, MIN_FRAME_BYTES
from repro.firmware import ForwarderFirmware
from repro.packet import Packet, build_tcp

from .conftest import build_raw


def _system(**kwargs):
    return RosebudSystem(RosebudConfig(n_rpus=16, **kwargs), ForwarderFirmware())


class TestMacPolicing:
    def test_runt_dropped_with_counter(self):
        system = _system()
        runt = Packet(b"\x00" * 40)
        system.offer_packet(0, runt)
        system.sim.run()
        assert runt.dropped and runt.drop_reason == "runt frame"
        assert system.macs[0].counters.value("rx_runts") == 1
        assert system.counters.value("delivered") == 0

    def test_giant_dropped_with_counter(self):
        system = _system()
        giant = Packet(b"\x00" * (MAX_FRAME_BYTES + 1))
        system.offer_packet(0, giant)
        system.sim.run()
        assert giant.dropped and giant.drop_reason == "giant frame"
        assert system.macs[0].counters.value("rx_giants") == 1

    def test_minimum_frame_accepted(self):
        system = _system()
        system.offer_packet(0, build_raw(MIN_FRAME_BYTES))
        system.sim.run()
        assert system.counters.value("delivered") == 1

    def test_max_frame_accepted(self):
        system = _system()
        system.offer_packet(0, build_raw(MAX_FRAME_BYTES))
        system.sim.run()
        assert system.counters.value("delivered") == 1

    def test_9000b_jumbo_passes(self):
        """The paper tests 9000 B MTU traffic; the MAC must pass it."""
        system = _system()
        system.offer_packet(0, build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=9000))
        system.sim.run()
        assert system.counters.value("delivered") == 1

    def test_policing_counts_as_rx_drop(self):
        system = _system()
        system.offer_packet(0, Packet(b"\x00" * 20))
        system.offer_packet(0, build_raw(128))
        system.sim.run()
        assert system.total_rx_drops() == 1
        assert system.counters.value("delivered") == 1


class TestSlotSizeEnforcement:
    def test_frame_bigger_than_slot_dropped(self):
        system = _system(slot_bytes=2048, mac_rx_fifo_packets=100)
        big = build_raw(4000)
        system.offer_packet(0, big)
        system.sim.run()
        assert big.dropped
        assert system.port_ingress[0].counters.value("oversize_drops") == 1
        assert system.counters.value("delivered") == 0

    def test_fitting_frame_passes_small_slots(self):
        system = _system(slot_bytes=2048, mac_rx_fifo_packets=100)
        system.offer_packet(0, build_raw(1500))
        system.sim.run()
        assert system.counters.value("delivered") == 1

    def test_oversize_does_not_wedge_the_port(self):
        """A dropped oversize frame must not head-of-line block the
        frames behind it."""
        system = _system(slot_bytes=2048, mac_rx_fifo_packets=100)
        system.offer_packet(0, build_raw(4000))
        for i in range(5):
            system.offer_packet(0, build_tcp("1.1.1.1", "2.2.2.2", i + 1, 2, pad_to=256))
        system.sim.run()
        assert system.counters.value("delivered") == 5

    def test_conservation_with_policing(self):
        system = _system(slot_bytes=2048, mac_rx_fifo_packets=100)
        offered = 0
        for size in (40, 256, 4000, 512, 9700):
            pkt = Packet(b"\x00" * 14 + b"\x00" * (size - 14))
            system.offer_packet(0, pkt)
            offered += 1
        system.sim.run()
        accounted = (
            system.counters.value("delivered")
            + system.total_rx_drops()
            + system.port_ingress[0].counters.value("oversize_drops")
        )
        assert accounted == offered
