"""Tests for slot accounting and the load-balancer policies."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    HashLB,
    LeastLoadedLB,
    LoadBalancer,
    RosebudConfig,
    RoundRobinLB,
    SlotError,
    SlotTable,
    flow_hash,
)
from repro.core.descriptors import Descriptor
from repro.packet import build_tcp, build_udp


class TestSlotTable:
    def test_allocate_release_cycle(self):
        table = SlotTable(2, 4)
        slot = table.allocate(0)
        assert table.free_count(0) == 3
        assert table.occupancy(0) == 1
        table.release(0, slot)
        assert table.free_count(0) == 4

    def test_exhaustion(self):
        table = SlotTable(1, 2)
        table.allocate(0)
        table.allocate(0)
        assert not table.has_free(0)
        with pytest.raises(SlotError):
            table.allocate(0)

    def test_double_release_rejected(self):
        table = SlotTable(1, 2)
        slot = table.allocate(0)
        table.release(0, slot)
        with pytest.raises(SlotError):
            table.release(0, slot)

    def test_release_unallocated_rejected(self):
        table = SlotTable(1, 4)
        with pytest.raises(SlotError):
            table.release(0, 0)

    def test_flush_reclaims_everything(self):
        table = SlotTable(2, 4)
        for _ in range(3):
            table.allocate(1)
        assert table.flush(1) == 3
        assert table.free_count(1) == 4
        assert table.free_count(0) == 4  # other RPU untouched

    def test_invalid_dimensions(self):
        with pytest.raises(SlotError):
            SlotTable(0, 4)
        with pytest.raises(SlotError):
            SlotTable(4, 0)

    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
    def test_slot_conservation(self, ops):
        table = SlotTable(1, 8)
        held = []
        for op in ops:
            if op == "alloc" and table.has_free(0):
                held.append(table.allocate(0))
            elif op == "free" and held:
                table.release(0, held.pop())
            assert table.free_count(0) + table.occupancy(0) == 8


class TestDescriptor:
    def test_port_constants(self):
        assert Descriptor.PORT_HOST == 2
        assert Descriptor.PORT_LOOPBACK == 3

    def test_fields(self):
        desc = Descriptor(tag=3, data=0x1000, len=64, port=1)
        assert desc.tag == 3 and desc.len == 64


def _packet(src="10.0.0.1", dst="10.0.0.2", sport=1, dport=2):
    return build_tcp(src, dst, sport, dport, pad_to=128)


class TestRoundRobinPolicy:
    def test_rotates_across_all(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=4), RoundRobinLB())
        order = [lb.assign(_packet()) for _ in range(8)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_busy_rpus(self):
        cfg = RosebudConfig(n_rpus=4, slots_per_rpu=1)
        lb = LoadBalancer(cfg, RoundRobinLB())
        assert lb.assign(_packet()) == 0
        assert lb.assign(_packet()) == 1
        # 0 and 1 now have no slots
        assert lb.assign(_packet()) == 2
        assert lb.assign(_packet()) == 3
        assert lb.assign(_packet()) is None

    def test_skips_disabled_rpus(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=4), RoundRobinLB())
        lb.disable_rpu(1)
        order = [lb.assign(_packet()) for _ in range(6)]
        assert 1 not in order

    def test_slot_allocated_on_assign(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=2))
        packet = _packet()
        rpu = lb.assign(packet)
        assert packet.dest_rpu == rpu
        assert packet.slot is not None
        assert lb.slots.occupancy(rpu) == 1

    def test_slot_freed_returns_credit(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=2))
        packet = _packet()
        rpu = lb.assign(packet)
        lb.slot_freed(rpu, packet.slot)
        assert lb.slots.occupancy(rpu) == 0


class TestHashPolicy:
    def test_same_flow_same_rpu(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=8), HashLB(8))
        targets = {lb.assign(_packet()) for _ in range(10)}
        assert len(targets) == 1

    def test_different_flows_spread(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=8), HashLB(8))
        targets = {
            lb.assign(_packet(sport=i + 1, dport=80)) for i in range(64)
        }
        targets.discard(None)
        assert len(targets) >= 4  # most RPUs hit with 64 flows

    def test_hash_prepended_to_packet(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=8), HashLB(8))
        packet = _packet()
        lb.assign(packet)
        assert packet.flow_hash is not None
        assert packet.dest_rpu == packet.flow_hash % 8

    def test_defers_when_target_full(self):
        cfg = RosebudConfig(n_rpus=8, slots_per_rpu=1)
        lb = LoadBalancer(cfg, HashLB(8))
        first = _packet()
        lb.assign(first)
        second = _packet()  # same flow -> same target
        assert lb.assign(second) is None  # defers, does not divert
        assert lb.deferred == 1

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            HashLB(6)

    def test_flow_hash_direction_sensitivity(self):
        # hash keys on the 5-tuple, so a tcp and udp flow with the same
        # ports hash differently
        tcp = flow_hash(_packet())
        udp = flow_hash(build_udp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=128))
        assert tcp != udp

    def test_non_ip_packet_still_hashes(self):
        from .conftest import build_raw

        assert flow_hash(build_raw(64)) is not None


class TestLeastLoadedPolicy:
    def test_prefers_emptier_rpu(self):
        cfg = RosebudConfig(n_rpus=2, slots_per_rpu=4)
        lb = LoadBalancer(cfg, LeastLoadedLB())
        first = lb.assign(_packet())
        second = lb.assign(_packet())
        assert {first, second} == {0, 1}

    def test_rebalances_after_free(self):
        cfg = RosebudConfig(n_rpus=2, slots_per_rpu=4)
        lb = LoadBalancer(cfg, LeastLoadedLB())
        packets = [_packet() for _ in range(4)]
        for packet in packets:
            lb.assign(packet)
        # free both of RPU 0's slots: it becomes least loaded
        for packet in packets:
            if packet.dest_rpu == 0:
                lb.slot_freed(0, packet.slot)
        assert lb.assign(_packet()) == 0


class TestHostChannel:
    def test_enable_mask_round_trip(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=8))
        lb.host_write(lb.REG_ENABLE_MASK, 0b10101010)
        assert lb.host_read(lb.REG_ENABLE_MASK) == 0b10101010
        assert lb.enabled[1] and not lb.enabled[0]

    def test_free_slot_registers(self):
        cfg = RosebudConfig(n_rpus=4, slots_per_rpu=16)
        lb = LoadBalancer(cfg)
        lb.assign(_packet())
        assert lb.host_read(lb.REG_FREE_SLOTS_BASE + 0) == 15
        assert lb.host_read(lb.REG_FREE_SLOTS_BASE + 1) == 16

    def test_flush_register(self):
        cfg = RosebudConfig(n_rpus=4)
        lb = LoadBalancer(cfg)
        lb.assign(_packet())
        lb.host_write(lb.REG_FLUSH_BASE + 0, 1)
        assert lb.slots.free_count(0) == cfg.slots_per_rpu

    def test_unknown_register_rejected(self):
        lb = LoadBalancer(RosebudConfig(n_rpus=4))
        with pytest.raises(ValueError):
            lb.host_read(0xDEAD)
        with pytest.raises(ValueError):
            lb.host_write(0xDEAD, 0)
