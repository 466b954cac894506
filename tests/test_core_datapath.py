"""Tests for the MAC, switch stages, and RPU model in isolation."""

import pytest

from repro.core import RosebudConfig, RosebudSystem
from repro.core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    FirmwareModel,
    FirmwareResult,
)
from repro.core.mac import MacPort
from repro.core.rpu import RpuModel
from repro.firmware import ForwarderFirmware
from repro.packet import build_tcp
from repro.sim import Simulator

from .conftest import build_raw


class TestMacPort:
    def _make(self, fifo_packets=4100):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=16, mac_rx_fifo_packets=fifo_packets)
        rx_kicks = []
        tx_done = []
        mac = MacPort(sim, cfg, 0, on_rx=lambda: rx_kicks.append(sim.now), on_tx_done=tx_done.append)
        return sim, mac, rx_kicks, tx_done

    def test_rx_serialization_time(self):
        sim, mac, kicks, _ = self._make()
        mac.receive(build_raw(64))
        sim.run()
        # 88 wire bytes at 100G = 7.04ns = 1.76 cycles + 25 fixed
        assert kicks[0] == pytest.approx(1.76 + 25, abs=0.01)

    def test_rx_fifo_holds_frame(self):
        sim, mac, _, _ = self._make()
        mac.receive(build_raw(64))
        sim.run()
        assert mac.rx_backlog() == 1
        popped = mac.rx_pop()
        assert popped.size == 64
        assert mac.rx_backlog() == 0

    def test_rx_counters(self):
        sim, mac, _, _ = self._make()
        for _ in range(3):
            mac.receive(build_raw(100))
        sim.run()
        assert mac.counters.value("rx_frames") == 3
        assert mac.counters.value("rx_bytes") == 300

    def test_rx_fifo_overflow_drops(self):
        sim, mac, _, _ = self._make(fifo_packets=2)
        for _ in range(5):
            mac.receive(build_raw(64))
        sim.run()
        assert mac.counters.value("rx_drops") == 3
        assert mac.rx_backlog() == 2

    def test_tx_serializes_in_order(self):
        sim, mac, _, tx_done = self._make()
        a, b = build_raw(64), build_raw(64)
        mac.transmit(a)
        mac.transmit(b)
        sim.run()
        assert tx_done == [a, b]
        assert mac.counters.value("tx_frames") == 2

    def test_back_to_back_tx_at_line_rate(self):
        sim, mac, _, tx_done = self._make()
        times = []
        mac._tx_link._on_done = lambda p: times.append(sim.now)
        for _ in range(10):
            mac.transmit(build_raw(1500))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # 1524 wire bytes at 100G = 121.92ns = 30.48 cycles
        for gap in gaps:
            assert gap == pytest.approx(30.48, abs=0.01)


class _CountingFirmware(FirmwareModel):
    name = "counting"

    def __init__(self, sw=10, accel=0, action=ACTION_FORWARD):
        self.sw = sw
        self.accel = accel
        self.action = action
        self.seen = []

    def process(self, packet, rpu_index):
        self.seen.append(packet.packet_id)
        return FirmwareResult(
            action=self.action, sw_cycles=self.sw, accel_cycles=self.accel
        )

    def clone(self):
        return self


class TestRpuModel:
    def _make(self, sw=10, accel=0):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=16)
        actions = []
        fw = _CountingFirmware(sw=sw, accel=accel)
        rpu = RpuModel(sim, cfg, 0, fw, lambda p, r, i: actions.append((sim.now, p)))
        return sim, rpu, actions

    def test_processes_in_arrival_order(self):
        sim, rpu, actions = self._make()
        packets = [build_raw(64) for _ in range(3)]
        for packet in packets:
            rpu.deliver(packet)
        sim.run()
        assert [p for _, p in actions] == packets

    def test_sw_only_throughput(self):
        sim, rpu, actions = self._make(sw=10)
        for _ in range(5):
            rpu.deliver(build_raw(64))
        sim.run()
        gaps = [b - a for (a, _), (b, _) in zip(actions, actions[1:])]
        assert all(g == 10 for g in gaps)

    def test_pipeline_throughput_is_max_of_stages(self):
        # accel slower than sw: steady-state spacing = accel time
        sim, rpu, actions = self._make(sw=10, accel=25)
        for _ in range(6):
            rpu.deliver(build_raw(64))
        sim.run()
        gaps = [b - a for (a, _), (b, _) in zip(actions, actions[1:])]
        assert gaps[-1] == 25

    def test_pipeline_latency_is_sum_of_stages(self):
        sim, rpu, actions = self._make(sw=10, accel=25)
        rpu.deliver(build_raw(64))
        sim.run()
        assert actions[0][0] == 35

    def test_pause_stops_new_work(self):
        sim, rpu, actions = self._make()
        rpu.deliver(build_raw(64))
        rpu.pause()
        rpu.deliver(build_raw(64))
        sim.run()
        assert len(actions) == 1  # first was already in flight
        assert rpu.in_flight == 1
        rpu.resume()
        sim.run()
        assert len(actions) == 2

    def test_reboot_requires_drain(self):
        sim, rpu, _ = self._make()
        rpu.deliver(build_raw(64))
        with pytest.raises(RuntimeError):
            rpu.reboot()

    def test_reboot_swaps_firmware(self):
        sim, rpu, actions = self._make()
        new_fw = _CountingFirmware(sw=5, action=ACTION_DROP)
        rpu.reboot(new_fw)
        rpu.deliver(build_raw(64))
        sim.run()
        assert new_fw.seen

    def test_counters(self):
        sim, rpu, _ = self._make(sw=7, accel=3)
        for _ in range(4):
            rpu.deliver(build_raw(64))
        sim.run()
        assert rpu.counters.value("packets") == 4
        assert rpu.counters.value("sw_cycles") == 28
        assert rpu.counters.value("accel_cycles") == 12


class TestDistributionTiming:
    """Cluster/RPU link occupancy drives the measured rate caps."""

    def test_rpu_ingress_is_32gbps_store_and_forward(self):
        cfg = RosebudConfig(n_rpus=16)
        system = RosebudSystem(cfg, ForwarderFirmware())
        pkt = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=1024)
        system.offer_packet(0, pkt)
        system.sim.run()
        deliver = pkt.timestamps["rpu_deliver"]
        assigned = pkt.timestamps["lb_assigned"]
        # between LB assign and RPU delivery: cluster cut-through +
        # fixed stages + full serialization over the 128-bit link
        link_cycles = cfg.rpu_link_service_cycles(1024)
        assert deliver - assigned >= link_cycles

    def test_packets_to_same_cluster_serialize(self):
        cfg = RosebudConfig(n_rpus=16)
        system = RosebudSystem(cfg, ForwarderFirmware())
        # two packets, forced round-robin to RPUs 0 and 1 (same cluster)
        a = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=8192)
        b = build_tcp("10.0.0.1", "10.0.0.2", 1, 3, pad_to=8192)
        system.offer_packet(0, a)
        system.offer_packet(0, b)
        system.sim.run()
        assert a.dest_rpu != b.dest_rpu
        assert system.config.rpu_cluster(a.dest_rpu) == system.config.rpu_cluster(b.dest_rpu)
        # b waited for a's beats on the shared cluster link
        assert b.timestamps["rpu_deliver"] > a.timestamps["rpu_deliver"]
