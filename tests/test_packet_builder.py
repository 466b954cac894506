"""Tests for packet crafting, parsing, and pcap I/O."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.packet import (
    BuildError,
    TCPHeader,
    MIN_FRAME_SIZE,
    Packet,
    TCP_OVERHEAD,
    UDP_OVERHEAD,
    EthernetHeader,
    build_tcp,
    build_udp,
    read_pcap,
    write_pcap,
)


class TestBuildTcp:
    def test_exact_size(self):
        pkt = build_tcp("10.0.0.1", "10.0.0.2", 1, 2, pad_to=777)
        assert pkt.size == 777

    def test_parses_back(self):
        pkt = build_tcp("10.1.2.3", "10.4.5.6", 1111, 443, payload=b"abc", pad_to=200)
        assert pkt.parsed.ipv4 is not None and pkt.parsed.tcp is not None
        assert pkt.parsed.ipv4.src == "10.1.2.3"
        assert pkt.parsed.tcp.dst_port == 443
        assert pkt.payload.startswith(b"abc")

    def test_five_tuple(self):
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 10, 20)
        assert pkt.five_tuple == ("1.1.1.1", "2.2.2.2", 6, 10, 20)

    def test_min_frame_padding(self):
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 2)
        assert pkt.size >= MIN_FRAME_SIZE

    def test_pad_below_overhead_rejected(self):
        with pytest.raises(BuildError):
            build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=TCP_OVERHEAD - 1)

    def test_payload_longer_than_pad_rejected(self):
        with pytest.raises(BuildError):
            build_tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x" * 100, pad_to=100)

    def test_seq_carried(self):
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, seq=987654)
        assert pkt.parsed.tcp.seq == 987654

    @given(st.integers(min_value=MIN_FRAME_SIZE, max_value=9000))
    def test_any_size_round_trips(self, size):
        pkt = build_tcp("10.0.0.1", "10.0.0.2", 5, 6, pad_to=size)
        assert pkt.size == size
        assert pkt.parsed.tcp is not None


class TestBuildTcpGolden:
    """``build_tcp`` frames are byte-identical to the ones the header
    classes (``IPv4Header.pack`` + ``TCPHeader.pack_with_checksum``)
    produced before frames came from a ``TcpFrameTemplate``."""

    CASES = {
        "min_frame_empty": (
            dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1234, dst_port=80),
            "02000000000202000000000108004500002800000000400666ce0a0000010a00000204d2"
            "005000000000000000005010ffff96b00000000000000000",
        ),
        "min_frame_odd_payload": (
            dict(src_ip="192.168.1.7", dst_ip="8.8.4.4", src_port=40000, dst_port=53,
                 payload=b"hello"),
            "02000000000202000000000108004500002d000000004006ad10c0a80107080804049c40"
            "003500000000000000005010ffff01cd000068656c6c6f00",
        ),
        "vlan_pad_to": (
            dict(src_ip="10.1.1.1", dst_ip="10.2.2.2", src_port=5, dst_port=80, payload=b"abc",
                 vlan=7, pad_to=128),
            "0200000000020200000000018100000708004500006e00000000400663850a0101010a02"
            "02020005005000000000000000005010ffffd3d10000616263" + "00" * 67,
        ),
        "flags_ack_seq_wrap": (
            dict(src_ip="172.16.0.9", dst_ip="172.16.255.254", src_port=65535, dst_port=1,
                 payload=b"xyz", seq=2**32 + 5, ack=0x12345678,
                 flags=TCPHeader.FLAG_SYN | TCPHeader.FLAG_ACK,
                 src_mac="aa:bb:cc:dd:ee:01", dst_mac="0a:0b:0c:0d:0e:0f"),
            "0a0b0c0d0e0faabbccddee0108004500002b00000000400622a5ac100009ac10fffeffff"
            "000100000005123456785012fffffc7a000078797a000000",
        ),
        "pad_to_flow_frame": (
            dict(src_ip="10.1.3.17", dst_ip="10.201.0.1", src_port=51234, dst_port=443,
                 payload=b"x" + b"GET /evil" + b"A" * 40, seq=123456789, pad_to=128),
            "02000000000202000000000108004500007200000000400662ab0a0103110ac90001c822"
            "01bb075bcd15000000005010ffff339a000078474554202f6576696c" + "41" * 40
            + "00" * 24,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_frame_equals_golden(self, case):
        kwargs, golden = self.CASES[case]
        assert build_tcp(**kwargs).data.hex() == golden


class TestBuildUdp:
    def test_udp_parses(self):
        pkt = build_udp("10.0.0.1", "10.0.0.2", 53, 53, payload=b"q", pad_to=128)
        assert pkt.parsed.udp is not None and pkt.parsed.tcp is None
        assert pkt.five_tuple[2] == 17

    def test_udp_overhead_boundary(self):
        # below the Ethernet minimum the frame is zero-padded, and that
        # padding lands beyond the UDP header, i.e. in the payload view
        pkt = build_udp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=UDP_OVERHEAD + 1)
        assert pkt.size == MIN_FRAME_SIZE
        assert pkt.parsed.udp.length == 9  # UDP header + 1 real byte

    def test_udp_payload_exact_above_minimum(self):
        pkt = build_udp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=100)
        assert len(pkt.payload) == 100 - UDP_OVERHEAD


class TestBuildRaw:
    def test_non_ip_frame(self):
        pkt = Packet(EthernetHeader(ethertype=0x88B5).pack() + bytes(86))
        assert pkt.size == 100
        assert pkt.parsed.ipv4 is None
        assert pkt.five_tuple is None


class TestPacketObject:
    def test_ids_unique(self):
        a = Packet(bytes(64))
        b = Packet(bytes(64))
        assert a.packet_id != b.packet_id

    def test_drop_records_reason(self):
        pkt = Packet(bytes(64))
        pkt.drop("test reason")
        assert pkt.dropped and pkt.drop_reason == "test reason"

    def test_parse_cache_invalidation(self):
        pkt = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=128)
        assert pkt.parsed.tcp is not None
        pkt.data = build_udp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=128).data
        assert pkt.parsed.tcp is not None  # stale cache
        pkt.invalidate_parse_cache()
        assert pkt.parsed.udp is not None

    def test_stamp(self):
        pkt = Packet(bytes(64))
        pkt.stamp("x", 12.5)
        assert pkt.timestamps["x"] == 12.5

    def test_malformed_bytes_parse_safely(self):
        pkt = Packet(b"\x00" * 20)
        assert pkt.parsed.ipv4 is None
        assert pkt.five_tuple is None

    def test_truncated_tcp_parses_as_ipv4_only(self):
        full = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=128)
        pkt = Packet(full.data[:40])  # eth + ipv4 + 6 bytes of tcp
        assert pkt.parsed.ipv4 is not None
        assert pkt.parsed.tcp is None


class TestPacketPickle:
    @staticmethod
    def _busy_packet():
        pkt = build_tcp("10.1.2.3", "10.4.5.6", 1111, 443, payload=b"abc", pad_to=200)
        for value, name in enumerate(Packet.__slots__):
            if name not in ("data", "_parsed"):
                setattr(pkt, name, (name, value))  # a distinct value per slot
        pkt.parsed  # fill the cache
        return pkt

    def test_every_slot_but_the_parse_cache_survives(self):
        pkt = self._busy_packet()
        back = pickle.loads(pickle.dumps(pkt, pickle.HIGHEST_PROTOCOL))
        for name in Packet.__slots__:
            if name != "_parsed":
                assert getattr(back, name) == getattr(pkt, name), name
        assert back._parsed is None
        assert back.parsed == pkt.parsed

    def test_from_wire_takes_a_fresh_id(self):
        pkt = self._busy_packet()
        pkt.packet_id = Packet(bytes(64)).packet_id
        back = Packet.from_wire(pickle.dumps(pkt))
        assert back.packet_id > pkt.packet_id
        assert back.data == pkt.data and back.timestamps == pkt.timestamps


class TestPcap:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.pcap"
        packets = [build_tcp("1.1.1.1", "2.2.2.2", i + 1, 80, pad_to=100) for i in range(5)]
        for i, pkt in enumerate(packets):
            pkt.born_at = i * 250  # cycles
        count = write_pcap(path, packets)
        assert count == 5
        loaded = read_pcap(path)
        assert len(loaded) == 5
        for orig, back in zip(packets, loaded):
            assert back.data == orig.data

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        from repro.packet import PcapError

        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, [Packet(bytes(64))])
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        from repro.packet import PcapError

        with pytest.raises(PcapError):
            read_pcap(path)

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "snap.pcap"
        write_pcap(path, [Packet(bytes(1000))], snaplen=100)
        loaded = read_pcap(path)
        assert len(loaded[0].data) == 100
