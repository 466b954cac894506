"""Tests for RosebudConfig: derived quantities and paper constants."""

import json

import pytest

from repro.core import CONFIG_16_RPU, CONFIG_8_RPU, ConfigError, RosebudConfig


class TestDefaults:
    def test_clock_250mhz(self):
        assert CONFIG_16_RPU.clock.freq_hz == 250e6

    def test_two_100g_ports(self):
        assert CONFIG_16_RPU.n_ports == 2
        assert CONFIG_16_RPU.port_gbps == 100.0

    def test_cluster_counts(self):
        assert CONFIG_16_RPU.n_clusters == 4
        assert CONFIG_8_RPU.n_clusters == 2

    def test_bus_bandwidths_match_paper(self):
        # 512-bit at 250 MHz = 128 Gbps; 128-bit = 32 Gbps (§5)
        freq_hz = CONFIG_16_RPU.clock.freq_hz
        assert CONFIG_16_RPU.cluster_bus_bits * freq_hz / 1e9 == pytest.approx(128.0)
        assert CONFIG_16_RPU.rpu_bus_bits * freq_hz / 1e9 == pytest.approx(32.0)

    def test_slot_defaults(self):
        assert CONFIG_16_RPU.slot_bytes == 16 * 1024
        assert CONFIG_8_RPU.slots_per_rpu == 32  # MAX_CTX_COUNT in Appendix B

    def test_bcast_fifo_18_deep(self):
        # 16 FIFO entries + 2 PR-border registers (§6.3)
        assert CONFIG_16_RPU.bcast_fifo_depth == 18

    def test_pr_load_756ms(self):
        assert CONFIG_16_RPU.pr_load_ms == 756.0

    def test_fixed_path_near_eq1_intercept(self):
        # 0.765 us = ~191 cycles; the explicit fixed stages plus the
        # 16-cycle forwarder, 2-cycle port ingress, and per-packet link
        # overheads make up the intercept (checked end-to-end in the
        # latency integration test)
        total = (
            CONFIG_16_RPU.mac_rx_fixed_cycles
            + CONFIG_16_RPU.dist_in_fixed_cycles
            + CONFIG_16_RPU.rpu_in_fixed_cycles
            + CONFIG_16_RPU.rpu_out_fixed_cycles
            + CONFIG_16_RPU.dist_out_fixed_cycles
            + CONFIG_16_RPU.mac_tx_fixed_cycles
            + 2 * CONFIG_16_RPU.cluster_cut_through_cycles
            + 16  # forwarder
            + CONFIG_16_RPU.port_ingress_cycles
            + CONFIG_16_RPU.rpu_ingress_overhead_cycles * 2
        )
        assert 180 <= total <= 205


class TestDerived:
    def test_rpu_cluster_mapping_16(self):
        cfg = CONFIG_16_RPU
        assert cfg.rpu_cluster(0) == 0
        assert cfg.rpu_cluster(3) == 0
        assert cfg.rpu_cluster(4) == 1
        assert cfg.rpu_cluster(15) == 3

    def test_rpu_cluster_mapping_8(self):
        cfg = CONFIG_8_RPU
        assert cfg.rpu_cluster(0) == 0
        assert cfg.rpu_cluster(3) == 0
        assert cfg.rpu_cluster(4) == 1

    def test_cluster_members_partition(self):
        cfg = CONFIG_16_RPU
        all_members = []
        for cluster in range(cfg.n_clusters):
            all_members.extend(cfg.cluster_members(cluster))
        assert sorted(all_members) == list(range(16))

    def test_cluster_index_out_of_range(self):
        with pytest.raises(ConfigError):
            CONFIG_16_RPU.rpu_cluster(16)

    def test_cluster_service_cycles(self):
        cfg = CONFIG_16_RPU
        # 64B frame + 4 FCS + 8 header = 76 -> 2 beats + 2 arb = 4
        assert cfg.cluster_service_cycles(64) == 4
        # 512B + 12 = 524 -> 9 beats + 2 = 11
        assert cfg.cluster_service_cycles(512) == 11

    def test_rpu_link_service_cycles(self):
        cfg = CONFIG_16_RPU
        # 64 + 12 = 76 -> 5 beats of 16B + 4 overhead = 9
        assert cfg.rpu_link_service_cycles(64) == 9

    def test_service_cycles_monotone_in_size(self):
        cfg = CONFIG_16_RPU
        previous = 0
        for size in range(60, 2000, 17):
            cycles = cfg.cluster_service_cycles(size)
            assert cycles >= previous
            previous = cycles


class TestValidation:
    def test_zero_rpus_rejected(self):
        with pytest.raises(ConfigError):
            RosebudConfig(n_rpus=0)

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigError):
            RosebudConfig(n_ports=0)

    def test_slot_overflow_rejected(self):
        with pytest.raises(ConfigError):
            RosebudConfig(slots_per_rpu=1000, slot_bytes=16 * 1024)

    def test_odd_bus_width_rejected(self):
        with pytest.raises(ConfigError):
            RosebudConfig(cluster_bus_bits=100)

    def test_single_rpu_config_valid(self):
        cfg = RosebudConfig(n_rpus=1)
        assert cfg.n_clusters == 1
        assert cfg.rpu_cluster(0) == 0


class TestSerialization:
    def test_round_trip_default(self):
        cfg = CONFIG_16_RPU
        back = RosebudConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_round_trip_custom(self):
        cfg = RosebudConfig(
            n_rpus=8, slots_per_rpu=32, cluster_arbitration="priority",
            mac_rx_fifo_packets=50,
        )
        back = RosebudConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg
        assert back.cluster_arbitration == "priority"

    def test_clock_preserved(self):
        from repro.sim import Clock

        cfg = RosebudConfig(n_rpus=4, clock=Clock(300e6))
        back = RosebudConfig.from_dict(cfg.to_dict())
        assert back.clock.freq_hz == 300e6

    def test_json_is_human_readable(self):
        text = json.dumps(CONFIG_8_RPU.to_dict())
        assert '"n_rpus": 8' in text
        assert '"clock_hz": 250000000.0' in text

    def test_invalid_dict_still_validated(self):
        import pytest as _pytest

        with _pytest.raises(ConfigError):
            RosebudConfig.from_dict({"n_rpus": 0})
