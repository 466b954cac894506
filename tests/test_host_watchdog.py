"""Host eviction & watchdog edge cases (Appendix A.8 hardened).

The happy path — wedge, detect, evict, reconfigure — is covered in
``test_faults.py``; these tests pin down the corners: evicting an RPU
that is already draining for reconfiguration, evicting the *last*
active RPU (traffic must queue and recover, not crash), back-to-back
evict/reconfigure cycles, and watchdog lifecycle rules.
"""

import pytest

from repro.core import HostInterface, RosebudConfig, RosebudSystem
from repro.firmware import ForwarderFirmware
from repro.packet import Packet
from repro.traffic import FixedSizeSource

FAST_LOAD_MS = 0.01  # 2_500 cycles at 250 MHz: keeps tests quick


def _system(n_rpus=4):
    system = RosebudSystem(RosebudConfig(n_rpus=n_rpus), ForwarderFirmware())
    host = HostInterface(system, pr_load_ms=FAST_LOAD_MS)
    return system, host


def _traffic(system, gbps=20.0, n_packets=2000, port=0):
    source = FixedSizeSource(system, port, gbps, 512, n_packets=n_packets, seed=1)
    source.start()
    return source


class TestEvictEdgeCases:
    def test_evict_while_draining_for_reconfig(self):
        """Evicting an RPU mid-drain abandons the straggler packets and
        lets the pending reconfiguration finish immediately."""
        system, host = _system()
        _traffic(system)
        records = []

        def start_reconfig():
            # wedge first so the drain can never finish on its own
            system.rpus[1].wedge()
            records.append(host.reconfigure_rpu(1, ForwarderFirmware()))

        system.sim.schedule(10_000, start_reconfig)
        # the drain stalls on the wedged packets; evict breaks the stall
        system.sim.schedule(30_000, lambda: host.evict_rpu(1))
        system.sim.run(until=100_000)
        record = records[0]
        assert record.booted_at > 0, "reconfig never completed"
        assert record.drained_at >= 30_000
        assert not system.rpus[1].wedged
        assert system.lb.enabled[1]

    def test_evict_last_active_rpu_queues_then_recovers(self):
        """With every RPU disabled, ingress traffic queues at the ports;
        service resumes once one RPU is reconfigured back in."""
        system, host = _system(n_rpus=2)
        _traffic(system, gbps=10.0, n_packets=3000)
        checkpoints = {}

        def kill_all():
            host.evict_rpu(1)
            checkpoints["evicted_1"] = host.evict_rpu(0)
            assert system.lb.candidates() == []

        def check_stalled():
            checkpoints["delivered_mid"] = system.counters.value("delivered")
            checkpoints["backlog"] = sum(m.rx_backlog() for m in system.macs)
            host.reconfigure_rpu(0, ForwarderFirmware())

        system.sim.schedule(20_000, kill_all)
        system.sim.schedule(60_000, check_stalled)
        system.sim.run(until=600_000)
        # while dead: nothing served, frames queued in the MAC FIFOs
        assert checkpoints["backlog"] > 0
        # after the reload: service resumed and drained the backlog
        assert system.counters.value("delivered") > checkpoints["delivered_mid"]
        assert system.rpus[0].in_flight == 0

    def test_evict_mid_service_abandons_the_packet_being_served(self):
        """An RPU that is not wedged holds two delivered packets, one in
        its core stage and one queued: evicting it abandons both."""
        system, host = _system()
        rpu = system.rpus[0]
        for _ in range(2):
            rpu.deliver(Packet(bytes(512)))
        assert rpu.in_flight == 2
        assert host.evict_rpu(0) == 2
        assert rpu.in_flight == 0

    def test_evict_counts_a_swallowed_completion_once(self):
        """A wedged core's swallowed completion is both the packet its
        stage holds and a stuck completion: it is one abandoned packet."""
        system, host = _system()
        rpu = system.rpus[0]
        for _ in range(2):
            rpu.deliver(Packet(bytes(512)))
        rpu.wedge()
        system.sim.run()
        assert host.evict_rpu(0) == 2

    def test_evict_idle_rpu_is_a_noop_count(self):
        system, host = _system()
        assert host.evict_rpu(3) == 0
        assert not system.lb.enabled[3]

    def test_back_to_back_evict_reconfigure(self):
        """Three evict->reconfigure cycles on the same RPU; slot
        accounting must survive every round."""
        system, host = _system()
        _traffic(system, n_packets=6000)
        records = []

        def cycle(round_index):
            system.rpus[2].wedge()
            host.evict_rpu(2)
            records.append(host.reconfigure_rpu(2, ForwarderFirmware()))

        for i in range(3):
            system.sim.schedule(10_000 + i * 20_000, lambda i=i: cycle(i))
        system.sim.run(until=400_000)
        assert len(records) == 3
        assert all(r.booted_at > 0 for r in records)
        assert system.lb.slots.occupancy(2) == system.rpus[2].in_flight == 0
        # the final image serves traffic again
        assert system.lb.enabled[2]

    def test_evict_frees_slot_credits(self):
        system, host = _system()
        _traffic(system)
        system.sim.schedule(10_000, system.rpus[0].wedge)
        system.sim.run(until=30_000)
        assert system.lb.slots.occupancy(0) > 0
        abandoned = host.evict_rpu(0)
        assert abandoned > 0
        assert system.lb.slots.occupancy(0) == 0


class TestWatchdogLifecycle:
    def test_double_start_rejected(self):
        system, host = _system()
        host.start_watchdog(ForwarderFirmware)
        with pytest.raises(RuntimeError):
            host.start_watchdog(ForwarderFirmware)
        host.stop_watchdog()
        host.start_watchdog(ForwarderFirmware)  # restart after stop is fine

    def test_stop_cancels_polling(self):
        system, host = _system()
        host.start_watchdog(ForwarderFirmware, poll_cycles=1_000.0)
        host.stop_watchdog()
        system.sim.run()
        assert host.watchdog_log == []
        assert host._watchdog_event is None

    def test_recovering_rpu_not_double_evicted(self):
        """While an RPU reloads it has made no 'progress', but the
        watchdog must not evict it again mid-reload."""
        system, host = _system()
        _traffic(system, n_packets=4000)
        system.sim.schedule(10_000, system.rpus[1].wedge)
        host.start_watchdog(
            ForwarderFirmware, threshold_cycles=5_000.0, poll_cycles=1_000.0
        )
        system.sim.run(until=200_000)
        events = [e for e in host.watchdog_log if e.rpu == 1]
        assert len(events) == 1
        assert events[0].recovered

    def test_two_simultaneous_wedges_both_recover(self):
        system, host = _system()
        _traffic(system, n_packets=6000)
        system.sim.schedule(10_000, system.rpus[0].wedge)
        system.sim.schedule(10_000, system.rpus[3].wedge)
        host.start_watchdog(
            ForwarderFirmware, threshold_cycles=5_000.0, poll_cycles=1_000.0
        )
        system.sim.run(until=300_000)
        recovered = sorted(e.rpu for e in host.watchdog_log if e.recovered)
        assert recovered == [0, 3]

    def test_healthy_system_triggers_nothing(self):
        system, host = _system()
        _traffic(system, n_packets=1000)
        host.start_watchdog(
            ForwarderFirmware, threshold_cycles=5_000.0, poll_cycles=1_000.0
        )
        system.sim.run(until=150_000)
        assert host.watchdog_log == []
