"""Tests for the full-Rosebud functional simulation (multi-RPU ISS).

Every class runs uncached and, through its ``Cached`` subclass, with a
replay cache attached: both drain through the same per-packet loop.
"""

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.core import RosebudConfig
from repro.core.funccluster import ClusterError, FunctionalCluster
from repro.firmware import FIREWALL_ASM, FORWARDER_ASM
from repro.packet import build_tcp, int_to_ip


def _data(sport=1, src="10.0.0.1", size=64):
    return build_tcp(src, "10.9.9.9", sport, 80, pad_to=size).data


class TestRoundRobinCluster:
    replay_cache = False

    def cluster(self, n_rpus, **kwargs):
        return FunctionalCluster(
            n_rpus, FORWARDER_ASM, replay_cache=self.replay_cache, **kwargs
        )

    def test_packets_spread_evenly(self):
        cluster = self.cluster(4)
        for i in range(16):
            cluster.push_packet(_data(sport=i + 1))
        cluster.run_until_all_sent()
        assert [len(rpu.sent) for rpu in cluster.rpus] == [4, 4, 4, 4]

    def test_all_forwarded_with_port_swap(self):
        cluster = self.cluster(2)
        for i in range(6):
            cluster.push_packet(_data(sport=i + 1), port=i % 2)
        cluster.run_until_all_sent()
        ports = [s.port for rpu in cluster.rpus for s in rpu.sent]
        assert ports.count(0) == 3 and ports.count(1) == 3

    def test_payloads_intact_across_cores(self):
        cluster = self.cluster(4)
        datas = [_data(sport=i + 1, size=256) for i in range(8)]
        for data in datas:
            cluster.push_packet(data)
        cluster.run_until_all_sent()
        sent = {bytes(s.data) for rpu in cluster.rpus for s in rpu.sent}
        assert sent == set(datas)

    def test_slot_exhaustion_detected(self):
        config = RosebudConfig(n_rpus=1, slots_per_rpu=2)
        cluster = self.cluster(1, config=config)
        cluster.push_packet(_data(sport=1))
        cluster.push_packet(_data(sport=2))
        with pytest.raises(ClusterError):
            cluster.push_packet(_data(sport=3))

    def test_slots_recycle_after_run(self):
        config = RosebudConfig(n_rpus=1, slots_per_rpu=2)
        cluster = self.cluster(1, config=config)
        for round_ in range(3):
            cluster.push_packet(_data(sport=round_ * 2 + 1))
            cluster.push_packet(_data(sport=round_ * 2 + 2))
            cluster.run_until_all_sent()
        assert cluster.total_sent() == 6

    def test_round_robin_skips_rpus_without_credits(self):
        config = RosebudConfig(n_rpus=2, slots_per_rpu=2)
        cluster = self.cluster(2, config=config)
        chosen = [cluster.push_packet(_data(sport=i + 1)) for i in range(4)]
        assert chosen == [0, 1, 0, 1]
        assert [rpu.in_flight for rpu in cluster.rpus] == [2, 2]
        cluster.run_until_all_sent()
        assert [rpu.in_flight for rpu in cluster.rpus] == [0, 0]

    def test_each_drain_steps_only_the_new_packets(self):
        """Many bursts: a drain steps each descriptor pushed since the
        previous drain exactly once, never what earlier drains sent."""
        cluster = self.cluster(3)
        steps = [0] * len(cluster.rpus)
        for index, rpu in enumerate(cluster.rpus):
            step = rpu.step_packet

            def counted(*args, _step=step, _index=index, **kwargs):
                steps[_index] += 1
                return _step(*args, **kwargs)

            rpu.step_packet = counted
        for burst in range(12):
            pushed = [0] * len(cluster.rpus)
            for i in range(1 + burst % 5):
                pushed[cluster.push_packet(_data(sport=burst * 8 + i + 1))] += 1
            steps[:] = [0] * len(cluster.rpus)
            cluster.run_until_all_sent()
            assert steps == pushed
        assert cluster.total_sent() == sum(1 + b % 5 for b in range(12))

    def test_hartid_distinct(self):
        cluster = self.cluster(3)
        assert [rpu.cpu.hartid for rpu in cluster.rpus] == [0, 1, 2]


class TestRoundRobinClusterCached(TestRoundRobinCluster):
    replay_cache = True


class TestFirewallCluster:
    replay_cache = False

    def test_distributed_firewall_verdicts(self):
        """Every RPU gets its own accelerator instance (its own PR
        region) and they all agree with the blacklist."""
        prefixes = parse_blacklist(generate_blacklist(300))
        cluster = FunctionalCluster(
            4, FIREWALL_ASM,
            accelerator_factory=lambda: IpBlacklistMatcher(prefixes),
            replay_cache=self.replay_cache,
        )
        bad = [int_to_ip(p.network) for p in prefixes[:6]]
        good = [f"10.44.0.{i + 1}" for i in range(6)]
        for i, src in enumerate(bad + good):
            cluster.push_packet(_data(sport=i + 1, src=src, size=128))
        cluster.run_until_all_sent()
        dropped = sum(s.dropped for rpu in cluster.rpus for s in rpu.sent)
        forwarded = sum(not s.dropped for rpu in cluster.rpus for s in rpu.sent)
        assert dropped == 6 and forwarded == 6
        # the work really was distributed
        assert sum(1 for rpu in cluster.rpus if rpu.sent) >= 3


class TestFirewallClusterCached(TestFirewallCluster):
    replay_cache = True
