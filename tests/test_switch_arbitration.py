"""Tests for the ingress cluster switch's round-robin input arbitration (§4.3)."""

import pytest

from repro.core import RosebudConfig
from repro.core.switch import ClusterSwitch
from repro.sim import Simulator

from .conftest import build_raw


def _switch():
    sim = Simulator()
    config = RosebudConfig(n_rpus=16)
    done = []
    # the switch hands each frame on at grant, with its cut-through time
    switch = ClusterSwitch(sim, config, "test", lambda packet, at: done.append(packet))
    return sim, switch, done


class TestRoundRobinArbitration:
    def test_interleaves_contending_inputs(self):
        sim, switch, done = _switch()
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
        sim, switch, done = _switch()
        packets = [build_raw(256) for _ in range(4)]
        for pkt in packets:
            switch.send(pkt, "port")
        sim.run()
        assert [p.packet_id for p in done] == [p.packet_id for p in packets]

    def test_unknown_class_rejected(self):
        _, switch, _ = _switch()
        with pytest.raises(ValueError):
            switch.send(build_raw(64), "mystery")


class TestArbitrationConfig:
    def test_bad_policy_rejected(self):
        # round robin is the only policy: the config has no knob to set
        with pytest.raises(TypeError):
            RosebudConfig(n_rpus=16, cluster_arbitration="priority")
