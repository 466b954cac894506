"""Property-based tests on the assembled system.

The invariant that matters most in a packet pipeline: *conservation* —
every offered packet is accounted for exactly once (delivered, punted
to host, dropped by firmware, or tail-dropped at the MAC), and slot
credits always return.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HashLB, LeastLoadedLB, RosebudConfig, RosebudSystem, RoundRobinLB
from repro.core.firmware_api import (
    ACTION_DROP,
    ACTION_FORWARD,
    ACTION_HOST,
    FirmwareModel,
    FirmwareResult,
)
from repro.firmware import ForwarderFirmware
from repro.packet import build_tcp

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _MixedFirmware(FirmwareModel):
    """Routes by dst port so hypothesis controls the action mix."""

    name = "mixed"

    def process(self, packet, rpu_index):
        dport = packet.parsed.tcp.dst_port if packet.parsed.tcp is not None else 80
        action = (ACTION_FORWARD, ACTION_DROP, ACTION_HOST)[dport % 3]
        return FirmwareResult(
            action=action,
            sw_cycles=10 + dport % 50,
            egress_port=packet.ingress_port ^ 1,
        )

    def clone(self):
        return self


@st.composite
def _workload(draw):
    n_rpus = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_packets = draw(st.integers(min_value=1, max_value=60))
    packets = []
    for i in range(n_packets):
        size = draw(st.sampled_from([64, 65, 128, 511, 1500]))
        port = draw(st.integers(min_value=0, max_value=1))
        dport = draw(st.integers(min_value=1, max_value=9999))
        packets.append((size, port, i + 1, dport))
    return n_rpus, packets


class TestConservation:
    @_settings
    @given(_workload())
    def test_every_packet_accounted_for(self, workload):
        n_rpus, specs = workload
        system = RosebudSystem(RosebudConfig(n_rpus=n_rpus), _MixedFirmware())
        for size, port, sport, dport in specs:
            pkt = build_tcp("10.0.0.1", "10.0.0.2", sport, dport, pad_to=size)
            system.offer_packet(port, pkt)
        system.sim.run()
        accounted = (
            system.counters.value("delivered")
            + system.counters.value("to_host")
            + system.counters.value("dropped_by_firmware")
            + system.total_rx_drops()
        )
        assert accounted == len(specs)

    @_settings
    @given(_workload())
    def test_all_slots_return(self, workload):
        n_rpus, specs = workload
        system = RosebudSystem(RosebudConfig(n_rpus=n_rpus), _MixedFirmware())
        for size, port, sport, dport in specs:
            pkt = build_tcp("10.0.0.1", "10.0.0.2", sport, dport, pad_to=size)
            system.offer_packet(port, pkt)
        system.sim.run()
        for rpu in range(n_rpus):
            assert system.lb.slots.occupancy(rpu) == 0
            assert system.lb.slots.free_count(rpu) == system.config.slots_per_rpu

    @_settings
    @given(
        st.sampled_from(["rr", "hash", "least"]),
        st.integers(min_value=1, max_value=40),
    )
    def test_policies_conserve(self, policy_name, n_packets):
        policy = {
            "rr": RoundRobinLB(),
            "hash": HashLB(8),
            "least": LeastLoadedLB(),
        }[policy_name]
        system = RosebudSystem(
            RosebudConfig(n_rpus=8), ForwarderFirmware(), lb_policy=policy
        )
        for i in range(n_packets):
            system.offer_packet(
                i % 2, build_tcp("10.0.0.1", "10.0.0.2", i + 1, 80, pad_to=128)
            )
        system.sim.run()
        assert system.counters.value("delivered") == n_packets

    @_settings
    @given(st.integers(min_value=1, max_value=30))
    def test_fifo_order_preserved_per_flow(self, n_packets):
        """A single flow through the hash LB stays in order end to end
        (one RPU, serial core, FIFO queues everywhere)."""
        system = RosebudSystem(
            RosebudConfig(n_rpus=8), ForwarderFirmware(), lb_policy=HashLB(8)
        )
        delivered = []
        system.on_delivery = delivered.append
        for seq in range(n_packets):
            system.offer_packet(
                0,
                build_tcp("10.0.0.1", "10.0.0.2", 7, 80, seq=seq + 1, pad_to=128),
            )
        system.sim.run()
        seqs = [p.parsed.tcp.seq for p in delivered]
        assert seqs == sorted(seqs)

    def test_conservation_under_overload(self):
        """At 4x overload with a tiny FIFO, drops + deliveries still
        sum to the offered count."""
        from repro.traffic import FixedSizeSource

        config = RosebudConfig(n_rpus=4, mac_rx_fifo_packets=20)
        system = RosebudSystem(config, ForwarderFirmware(sw_cycles=500))
        source = FixedSizeSource(system, 0, 100.0, 64, n_packets=2000,
                                 respect_generator_cap=False)
        source.start()
        system.sim.run()
        accounted = system.counters.value("delivered") + system.total_rx_drops()
        assert accounted == 2000
        assert system.total_rx_drops() > 0
