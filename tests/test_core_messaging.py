"""Tests for the loopback port and broadcast messaging (§4.4, §6.3)."""

import pytest

from repro.core import BroadcastSystem, LoopbackPort, RosebudConfig
from repro.sim import Simulator

from .conftest import build_raw


class TestLoopbackPort:
    def _make(self, **cfg_kwargs):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=16, **cfg_kwargs)
        done = []
        port = LoopbackPort(sim, cfg, done.append)
        return sim, port, done

    def test_delivers_packets(self):
        sim, port, done = self._make()
        pkt = build_raw(256)
        port.send(pkt)
        sim.run()
        assert done == [pkt]

    def test_small_packets_pay_header_attach(self):
        sim, port, done = self._make()
        times = []
        port.link._on_done = lambda p: times.append(sim.now)
        for _ in range(5):
            port.send(build_raw(64))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # 3-cycle header attach dominates 64B serialization (1.76 cyc)
        assert all(g == pytest.approx(3.0) for g in gaps)

    def test_large_packets_pay_serialization(self):
        sim, port, done = self._make()
        times = []
        port.link._on_done = lambda p: times.append(sim.now)
        for _ in range(3):
            port.send(build_raw(1024))
        sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # 1048 wire bytes at 100G = 83.84 ns = 20.96 cycles
        assert all(g == pytest.approx(20.96, abs=0.01) for g in gaps)

    def test_counters(self):
        sim, port, _ = self._make()
        port.send(build_raw(100))
        sim.run()
        assert port.counters.value("frames") == 1
        assert port.counters.value("bytes") == 100


class TestBroadcastSparse:
    def _make(self, n_rpus=16):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=n_rpus)
        bcast = BroadcastSystem(sim, cfg)
        return sim, bcast

    def test_sparse_latency_in_paper_band(self):
        """§6.3: 72-92 ns for sparse messages."""
        sim, bcast = self._make()
        bcast.send(0, 0x100, 42)
        sim.run()
        assert 60 <= bcast.latency_ns.mean <= 100

    def test_all_other_rpus_receive(self):
        sim, bcast = self._make(n_rpus=8)
        bcast.send(3, 0x10, 99)
        sim.run()
        for rpu in range(8):
            if rpu != 3:  # the sender doesn't self-receive
                msg = bcast.poll(rpu)
                assert msg.value == 99 and msg.sender == 3
            assert bcast.poll(rpu) is None

    def test_delivery_simultaneous(self):
        """All receivers observe the word at the exact same time."""
        sim, bcast = self._make()
        seen = []
        bcast.on_deliver = lambda rpu, msg: seen.append((rpu, sim.now))
        bcast.send(0, 0, 1)
        sim.run()
        times = {t for _, t in seen}
        assert len(times) == 1

    def test_messages_in_order(self):
        sim, bcast = self._make(n_rpus=4)
        for value in (1, 2, 3):
            bcast.send(0, 0, value)
        sim.run()
        got = [bcast.poll(1).value for _ in range(3)]
        assert got == [1, 2, 3]

    def test_interrupt_mask_filters(self):
        """§4.4: interrupts maskable by address, e.g. only the last
        word of a multi-word message interrupts."""
        sim, bcast = self._make(n_rpus=4)
        bcast.interrupt_masks[1] = lambda addr: addr >= 0x80
        bcast.send(0, 0x10, 1)  # masked for rpu 1
        bcast.send(0, 0x84, 2)  # passes
        sim.run()
        assert bcast.poll(1).value == 2
        assert bcast.poll(1) is None
        # the default mask passes everything
        assert [bcast.poll(2).value for _ in range(2)] == [1, 2]

    def test_poll_empty_returns_none(self):
        sim, bcast = self._make()
        assert bcast.poll(0) is None


class TestBroadcastSaturated:
    def test_fifo_depth_blocks_writes(self):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=16, bcast_fifo_depth=2)
        bcast = BroadcastSystem(sim, cfg)
        for _ in range(5):
            bcast.send(0, 0, 1)
        sim.run()
        assert bcast.counters.value("blocked_retries") > 0
        assert bcast.counters.value("delivered") == 5  # all eventually land

    def test_saturated_latency_dominated_by_fifo_times_rr(self):
        """§6.3: saturated latency ~ depth x n_rpus cycles (1152 ns of
        the measured 1596-1680 ns for 16 RPUs)."""
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=16)
        bcast = BroadcastSystem(sim, cfg)
        remaining = [120] * 16

        def sender(rpu):
            def send_next():
                if remaining[rpu] <= 0:
                    return
                remaining[rpu] -= 1
                bcast.send(rpu, 0, 1, on_enqueued=lambda: sim.schedule(4, send_next))

            return send_next

        for rpu in range(16):
            sim.schedule(0, sender(rpu))
        sim.run()
        steady = bcast.latency_ns._samples[-500:]
        mean_ns = sum(steady) / len(steady)
        # FIFO(18) x RR(16) x 4ns = 1152 ns floor; paper measures
        # 1596-1680 with extra pipeline we model only partially
        assert 1152 <= mean_ns <= 1700

    def test_rr_fairness_across_senders(self):
        sim = Simulator()
        cfg = RosebudConfig(n_rpus=4)
        bcast = BroadcastSystem(sim, cfg)
        for rpu in range(4):
            for _ in range(50):
                bcast.send(rpu, 0, rpu)
        sim.run()
        # receiver 0 hears 50 messages from each other sender
        values = []
        while True:
            msg = bcast.poll(0)
            if msg is None:
                break
            values.append(msg.sender)
        assert values.count(1) == 50 and values.count(2) == 50 and values.count(3) == 50
