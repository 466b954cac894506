"""Tests for the ingress cluster switch's round-robin input arbitration (§4.3)."""

import pytest

from repro.core import DistributionFabric, RosebudConfig
from repro.sim import Simulator

from .conftest import build_raw


def _fabric():
    sim = Simulator()
    config = RosebudConfig(n_rpus=16)
    done = []
    fabric = DistributionFabric(sim, config, "in", done.append)
    return sim, fabric, done


def _to_rpu0(packet):
    # one RPU link keeps the switch's grant order
    packet.dest_rpu = 0
    return packet


class TestRoundRobinArbitration:
    def test_interleaves_contending_inputs(self):
        sim, fabric, done = _fabric()
        port_pkts = [_to_rpu0(build_raw(512)) for _ in range(3)]
        loop_pkts = [_to_rpu0(build_raw(512)) for _ in range(3)]
        for p, l in zip(port_pkts, loop_pkts):
            fabric.send_to_rpu(p, "port")
            fabric.send_to_rpu(l, "loopback")
        sim.run()
        order = [p.packet_id for p in done]
        # the first port frame finds the switch free and is booked at
        # once; after it, strict alternation between the two classes
        expected = []
        for p, l in zip(port_pkts, loop_pkts):
            expected.extend([p.packet_id, l.packet_id])
        assert order == expected

    def test_single_input_runs_uninterrupted(self):
        sim, fabric, done = _fabric()
        packets = [_to_rpu0(build_raw(256)) for _ in range(4)]
        for pkt in packets:
            fabric.send_to_rpu(pkt, "port")
        sim.run()
        assert [p.packet_id for p in done] == [p.packet_id for p in packets]

    def test_unknown_class_rejected(self):
        _, fabric, _ = _fabric()
        with pytest.raises(ValueError):
            fabric.send_to_rpu(_to_rpu0(build_raw(64)), "mystery")


class TestArbitrationConfig:
    def test_bad_policy_rejected(self):
        # round robin is the only policy: the config has no knob to set
        with pytest.raises(TypeError):
            RosebudConfig(n_rpus=16, cluster_arbitration="priority")
