"""Tests for 802.1Q VLAN handling through the stack."""

import pytest
from hypothesis import given, strategies as st

from repro.core import RosebudConfig, RosebudSystem
from repro.firmware import FirewallFirmware
from repro.packet import (
    ETHERTYPE_VLAN,
    HeaderError,
    Packet,
    VlanTag,
    build_tcp,
)


class TestVlanTag:
    def test_pack_layout(self):
        tag = VlanTag(vid=100, pcp=5, dei=1)
        raw = tag.pack()
        assert len(raw) == 4
        tci = int.from_bytes(raw[:2], "big")
        assert tci & 0xFFF == 100
        assert tci >> 13 == 5
        assert (tci >> 12) & 1 == 1

    def test_round_trip(self):
        tag = VlanTag(vid=4000, pcp=3, dei=0, inner_ethertype=0x0800)
        parsed, rest = VlanTag.unpack(tag.pack() + b"xx")
        assert parsed == tag
        assert rest == b"xx"

    def test_vid_range_enforced(self):
        with pytest.raises(HeaderError):
            VlanTag(vid=5000).pack()

    def test_truncated_rejected(self):
        with pytest.raises(HeaderError):
            VlanTag.unpack(b"\x00\x01")

    @given(st.integers(0, 4095), st.integers(0, 7), st.integers(0, 1))
    def test_any_tag_round_trips(self, vid, pcp, dei):
        tag = VlanTag(vid=vid, pcp=pcp, dei=dei)
        parsed, _ = VlanTag.unpack(tag.pack())
        assert (parsed.vid, parsed.pcp, parsed.dei) == (vid, pcp, dei)


class TestVlanParsing:
    def test_tagged_frame_parses_fully(self):
        pkt = build_tcp("10.1.1.1", "10.2.2.2", 5, 80, vlan=7, pad_to=128)
        assert pkt.parsed.eth.ethertype == ETHERTYPE_VLAN
        assert pkt.parsed.vlan.vid == 7
        assert pkt.parsed.ipv4 is not None and pkt.parsed.tcp is not None
        assert pkt.five_tuple == ("10.1.1.1", "10.2.2.2", 6, 5, 80)

    def test_untagged_frame_has_no_vlan(self):
        pkt = build_tcp("10.1.1.1", "10.2.2.2", 5, 80, pad_to=128)
        assert pkt.parsed.vlan is None

    def test_payload_offset_accounts_for_tag(self):
        tagged = build_tcp("10.1.1.1", "10.2.2.2", 5, 80, vlan=7,
                           payload=b"MARKER", pad_to=128)
        assert tagged.payload.startswith(b"MARKER")
        assert tagged.parsed.payload_offset == 14 + 4 + 20 + 20

    def test_requested_size_respected(self):
        pkt = build_tcp("10.1.1.1", "10.2.2.2", 5, 80, vlan=7, pad_to=200)
        assert pkt.size == 200

    def test_truncated_tag_parses_as_non_ip(self):
        pkt = build_tcp("10.1.1.1", "10.2.2.2", 5, 80, vlan=7, pad_to=128)
        cut = Packet(pkt.data[:16])  # eth + 2 bytes of tag
        assert cut.parsed.ipv4 is None
        assert cut.parsed.vlan is None


class TestVlanThroughMiddleboxes:
    def test_firewall_sees_inner_ip_of_tagged_frames(self):
        """The behavioural firewall parses through the tag — tagged
        attack traffic is still dropped."""
        from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
        from repro.packet import int_to_ip

        prefixes = parse_blacklist(generate_blacklist(50))
        system = RosebudSystem(
            RosebudConfig(n_rpus=4), FirewallFirmware(IpBlacklistMatcher(prefixes))
        )
        bad = build_tcp(int_to_ip(prefixes[0].network), "10.9.9.9", 1, 80,
                        vlan=33, pad_to=128)
        good = build_tcp("10.8.8.8", "10.9.9.9", 1, 80, vlan=33, pad_to=128)
        system.offer_packet(0, bad)
        system.offer_packet(0, good)
        system.sim.run()
        assert system.counters.value("dropped_by_firmware") == 1
        assert system.counters.value("delivered") == 1
