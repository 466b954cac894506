"""Tests for the power-of-two-choices LB."""

import pytest

from repro.core import (
    LoadBalancer,
    PowerOfTwoChoicesLB,
    RosebudConfig,
    RosebudSystem,
)
from repro.firmware import ForwarderFirmware
from repro.packet import build_tcp


def _pkt(sport=1, dport=80):
    return build_tcp("10.0.0.1", "10.0.0.2", sport, dport, pad_to=128)


class TestPowerOfTwoChoicesLB:
    def test_flow_lands_on_one_of_two_candidates(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=8), PowerOfTwoChoicesLB(8))
        chosen = {lb.assign(_pkt(sport=7)) for _ in range(6)}
        chosen.discard(None)
        assert len(chosen) <= 2

    def test_balances_better_than_pure_hash(self):
        from repro.core import HashLB

        def spread(policy):
            system = RosebudSystem(
                RosebudConfig(n_rpus=8), ForwarderFirmware(), lb_policy=policy
            )
            for i in range(200):
                system.offer_packet(0, _pkt(sport=(i % 12) + 1))
            system.sim.run()
            counts = system.rpu_packet_counts()
            return max(counts) - min(counts)

        # 12 flows on 8 RPUs: two choices smooths the worst case
        assert spread(PowerOfTwoChoicesLB(8)) <= spread(HashLB(8))

    def test_defers_when_both_choices_full(self):
        config = RosebudConfig(n_rpus=8, slots_per_rpu=1)
        lb = LoadBalancer(config, PowerOfTwoChoicesLB(8))
        pkt = _pkt(sport=3)
        first = lb.assign(pkt)
        assert first is not None
        # fill the alternate too
        blocked = 0
        for _ in range(4):
            if lb.assign(_pkt(sport=3)) is None:
                blocked += 1
        assert blocked >= 2

    def test_needs_two_rpus(self):
        with pytest.raises(ValueError):
            PowerOfTwoChoicesLB(1)

    def test_end_to_end_delivery(self):
        system = RosebudSystem(
            RosebudConfig(n_rpus=8), ForwarderFirmware(),
            lb_policy=PowerOfTwoChoicesLB(8),
        )
        for i in range(40):
            system.offer_packet(i % 2, _pkt(sport=i + 1))
        system.sim.run()
        assert system.counters.value("delivered") == 40
