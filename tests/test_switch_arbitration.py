"""Tests for cluster-switch input arbitration (RR vs priority, §4.3)."""

import pytest

from repro.core import RosebudConfig
from repro.core.switch import ClusterSwitch
from repro.sim import Simulator

from .conftest import build_raw


def _switch(arbitration="rr"):
    sim = Simulator()
    config = RosebudConfig(n_rpus=16, cluster_arbitration=arbitration)
    done = []
    switch = ClusterSwitch(sim, config, "test", done.append)
    return sim, switch, done


class TestRoundRobinArbitration:
    def test_interleaves_contending_inputs(self):
        sim, switch, done = _switch("rr")
        port_pkts = [build_raw(512) for _ in range(3)]
        loop_pkts = [build_raw(512) for _ in range(3)]
        for p, l in zip(port_pkts, loop_pkts):
            switch.send(p, "port")
            switch.send(l, "loopback")
        sim.run()
        order = [p.packet_id for p in done]
        # strict alternation between the two classes
        expected = []
        for p, l in zip(port_pkts, loop_pkts):
            expected.extend([p.packet_id, l.packet_id])
        assert order == expected

    def test_single_input_runs_uninterrupted(self):
        sim, switch, done = _switch("rr")
        packets = [build_raw(256) for _ in range(4)]
        for pkt in packets:
            switch.send(pkt, "port")
        sim.run()
        assert [p.packet_id for p in done] == [p.packet_id for p in packets]

    def test_unknown_class_rejected(self):
        _, switch, _ = _switch("rr")
        with pytest.raises(ValueError):
            switch.send(build_raw(64), "mystery")


class TestPriorityArbitration:
    def test_ports_win_over_loopback(self):
        sim, switch, done = _switch("priority")
        loop_first = build_raw(512)
        switch.send(loop_first, "loopback")  # arrives first, wins the idle grant
        port_pkts = [build_raw(512) for _ in range(3)]
        loop_pkts = [build_raw(512) for _ in range(3)]
        for p in port_pkts:
            switch.send(p, "port")
        for l in loop_pkts:
            switch.send(l, "loopback")
        sim.run()
        order = [p.packet_id for p in done]
        # after the in-flight loopback packet, all port packets precede
        # all remaining loopback packets
        assert order[0] == loop_first.packet_id
        assert order[1:4] == [p.packet_id for p in port_pkts]
        assert order[4:] == [l.packet_id for l in loop_pkts]

    def test_host_between_port_and_loopback(self):
        sim, switch, done = _switch("priority")
        switch.send(build_raw(512), "loopback")
        host = build_raw(512)
        loop = build_raw(512)
        port = build_raw(512)
        switch.send(loop, "loopback")
        switch.send(host, "host")
        switch.send(port, "port")
        sim.run()
        order = [p.packet_id for p in done[1:]]
        assert order == [port.packet_id, host.packet_id, loop.packet_id]


class TestArbitrationConfig:
    def test_bad_policy_rejected(self):
        sim = Simulator()
        config = RosebudConfig(n_rpus=16, cluster_arbitration="magic")
        with pytest.raises(ValueError):
            ClusterSwitch(sim, config, "x", lambda p: None)

    def test_system_builds_with_priority(self):
        from repro.core import RosebudSystem
        from repro.firmware import ForwarderFirmware
        from repro.packet import build_tcp

        system = RosebudSystem(
            RosebudConfig(n_rpus=16, cluster_arbitration="priority"),
            ForwarderFirmware(),
        )
        for i in range(8):
            system.offer_packet(0, build_tcp("1.1.1.1", "2.2.2.2", i + 1, 2, pad_to=256))
        system.sim.run()
        assert system.counters.value("delivered") == 8
