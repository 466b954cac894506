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
from repro.core.switch import DistributionFabric, SwitchTiming
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


class TestIngressBooking:
    """An ingress cluster switch fires an event only when a frame waits."""

    def _fabric(self):
        cfg = RosebudConfig(n_rpus=8)
        sim = Simulator()
        delivered = []  # (packet, time)
        fabric = DistributionFabric(sim, cfg, "in", lambda p: delivered.append((p, sim.now)))
        scheduled = []  # (time, name)
        schedule_at = sim.schedule_at

        def record(time, callback, name=""):
            scheduled.append((time, name))
            return schedule_at(time, callback, name)

        sim.schedule_at = record
        return cfg, sim, fabric, scheduled, delivered

    @staticmethod
    def _frame(size, rpu):
        packet = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=size)
        packet.dest_rpu = rpu
        return packet

    def test_frame_reaching_an_idle_switch_is_handed_on_at_once(self):
        cfg, sim, fabric, scheduled, _ = self._fabric()
        packet = self._frame(512, 0)
        sim.run(until=50)
        fabric.send_to_rpu(packet)
        service, cut = SwitchTiming(cfg)[512]
        # the RPU link is offered the frame when its head leaves the switch
        assert [name for _t, name in scheduled] == ["rpu0.in"]
        assert fabric.rpu_links[0]._bookings[0][:2] == [50 + cut + cfg.dist_in_fixed_cycles, packet]
        assert fabric.free_at[0] == 50 + service

    def test_frame_reaching_a_busy_switch_is_granted_at_free_at_by_one_event(self):
        cfg, sim, fabric, scheduled, delivered = self._fabric()
        big, small = self._frame(1500, 0), self._frame(64, 1)  # one cluster
        fabric.send_to_rpu(big)
        sim.schedule(10, lambda: fabric.send_to_rpu(small, "host"))
        sim.run()
        big_service, _ = SwitchTiming(cfg)[1500]
        small_service, small_cut = SwitchTiming(cfg)[64]
        assert 10 < big_service
        grants = [t for t, name in scheduled if name.startswith("cluster")]
        assert grants == [big_service]
        ready = big_service + small_cut + cfg.dist_in_fixed_cycles
        landed = ready + cfg.rpu_link_service_cycles(64) + cfg.rpu_in_fixed_cycles
        assert (small, landed) in delivered
        assert fabric.free_at[0] == big_service + small_service


class TestEgressBooking:
    """An egress cluster switch is booked like a link, with no kernel event."""

    def _fabric(self):
        cfg = RosebudConfig(n_rpus=8)
        sim = Simulator()
        handed = []  # (packet, ready, time of the hand-off)
        fabric = DistributionFabric(
            sim, cfg, "out", lambda p, ready: handed.append((p, ready, sim.now)),
            on_rpu_out=lambda p, i: None,
        )
        return cfg, sim, fabric, handed

    def test_frame_reaching_a_busy_switch_is_handed_on_when_its_link_finishes(self):
        cfg, sim, fabric, handed = self._fabric()
        big = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=1500)
        small = build_tcp("10.0.0.1", "10.0.0.2", 1, 3, pad_to=64)
        fabric.send_from_rpu(big, 0)
        sim.schedule(100, lambda: fabric.send_from_rpu(small, 1))  # same cluster
        sim.run()
        big_service, big_cut = SwitchTiming(cfg)[1500]
        small_service, small_cut = SwitchTiming(cfg)[64]
        big_done = cfg.rpu_link_service_cycles(1500)
        big_start = big_done + cfg.rpu_out_fixed_cycles
        small_done = 100 + cfg.rpu_link_service_cycles(64)
        # the small frame is ready while the big one holds the switch
        assert big_start < small_done + cfg.rpu_out_fixed_cycles < big_start + big_service
        free_at = big_start + big_service
        assert handed == [
            (big, big_start + big_cut + cfg.dist_out_fixed_cycles, big_done),
            (small, free_at + small_cut + cfg.dist_out_fixed_cycles, small_done),
        ]
        assert fabric.free_at == [free_at + small_service, 0.0]

    def test_simultaneous_finishes_are_served_in_link_finish_order(self):
        cfg, sim, fabric, handed = self._fabric()
        first = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=512)
        second = build_tcp("10.0.0.1", "10.0.0.2", 1, 3, pad_to=512)
        fabric.send_from_rpu(first, 2)  # its link event is scheduled first
        fabric.send_from_rpu(second, 1)
        sim.run()
        done = cfg.rpu_link_service_cycles(512)
        service, cut = SwitchTiming(cfg)[512]
        start = done + cfg.rpu_out_fixed_cycles
        tail = cut + cfg.dist_out_fixed_cycles
        assert handed == [(first, start + tail, done), (second, start + service + tail, done)]

    def test_no_egress_switch_or_fixed_stage_event_is_scheduled(self):
        system = RosebudSystem(RosebudConfig(n_rpus=8), ForwarderFirmware())
        names = set()
        schedule_at = system.sim.schedule_at

        def record(time, callback, name=""):
            names.add(name)
            return schedule_at(time, callback, name)

        system.sim.schedule_at = record
        for sport in range(1, 41):
            system.offer_packet(sport % 2, build_tcp("10.0.0.1", "10.0.0.2", sport, 80))
        system.sim.run()
        assert system.counters.value("delivered") == 40
        assert "cluster0.in" in names and "rpu0.out" in names
        assert not {"rpu_out_fixed", "cluster0.out", "cluster1.out"} & names
