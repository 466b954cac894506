"""Tests for the extended CLI subcommands."""

import pytest

from repro.cli import main
from repro.verify import bundled_firmware_names


class TestNatCommand:
    def test_nat_point(self, capsys):
        assert main([
            "nat", "--rpus", "8", "--size", "512",
            "--warmup", "300", "--packets", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "NAT middlebox" in out and "translated" in out


class TestLoopbackCommand:
    def test_loopback_point(self, capsys):
        assert main([
            "loopback", "--rpus", "16", "--size", "128",
            "--warmup", "400", "--packets", "1200",
        ]) == 0
        out = capsys.readouterr().out
        assert "loopback" in out


class TestDisasmCommand:
    def test_builtin_forwarder(self, capsys):
        assert main(["disasm", "forwarder"]) == 0
        out = capsys.readouterr().out
        assert "xori" in out and "lui" in out

    def test_rfw_file(self, tmp_path, capsys):
        image_path = tmp_path / "fw.rfw"
        assert main(["image", "firewall", "--out", str(image_path)]) == 0
        capsys.readouterr()
        assert main(["disasm", str(image_path)]) == 0
        out = capsys.readouterr().out
        assert "lhu" in out  # the ethertype load

    @pytest.mark.parametrize("name", bundled_firmware_names())
    def test_every_registry_firmware(self, name, capsys):
        assert main(["disasm", name]) == 0
        assert "lui" in capsys.readouterr().out  # every one builds IO_BASE

    def test_neither_name_nor_file_exits_2(self, capsys):
        assert main(["disasm", "bogus"]) == 2
        assert "flow_counter" in capsys.readouterr().out  # the bundled list


class TestImageCommand:
    def test_builds_loadable_image(self, tmp_path, capsys):
        from repro.firmware import FORWARDER_ASM
        from repro.riscv.image import FirmwareImage

        image_path = tmp_path / "fwd.rfw"
        assert main(["image", "forwarder", "--out", str(image_path)]) == 0
        image = FirmwareImage.from_bytes(image_path.read_bytes())
        assert image.to_bytes() == FirmwareImage.from_asm(FORWARDER_ASM).to_bytes()

    def test_unknown_firmware(self, capsys):
        assert main(["image", "bogus"]) == 2  # cmd_verify's convention
        assert "flow_counter" in capsys.readouterr().out  # the bundled list

    @pytest.mark.parametrize("name", bundled_firmware_names())
    def test_every_registry_firmware(self, name, tmp_path, capsys):
        from repro.riscv.image import FirmwareImage

        image_path = tmp_path / f"{name}.rfw"
        assert main(["image", name, "--out", str(image_path)]) == 0
        assert FirmwareImage.from_bytes(image_path.read_bytes()).segments


class TestVerifyCommand:
    def test_acceptance_point_passes(self, capsys):
        assert main([
            "verify", "--fw", "firewall",
            "--rpus", "16", "--size", "512", "--gbps", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS firewall" in out
        assert "headroom" in out
        assert "critical path:" in out and "->" in out

    def test_infeasible_point_fails(self, capsys):
        assert main([
            "verify", "--fw", "firewall", "--size", "64", "--gbps", "400",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL firewall" in out

    def test_unknown_firmware_exits_2(self, capsys):
        assert main(["verify", "--fw", "bogus"]) == 2
        assert main(["verify"]) == 2

    def test_all_prints_table(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        assert "static verification" in out
        for name in ("forwarder", "firewall", "pigasus", "pkt_gen"):
            assert name in out

    def test_all_mixed_table_exits_1(self, capsys):
        # forcing every firmware to a hostile operating point makes at
        # least one row FAIL; a mixed table must exit nonzero (the CI
        # gate's contract — a FAIL buried in a table cannot pass)
        assert main([
            "verify", "--all", "--size", "64", "--gbps", "400",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "static verification" in out

    def test_deep_prints_absint_detail(self, capsys):
        assert main(["verify", "--fw", "pigasus", "--deep"]) == 0
        out = capsys.readouterr().out
        assert "memory safety: PASS" in out
        assert "loop drain: bound 8 (inferred)" in out
        # per-access provenance rows: verdict + region + abstract addr
        assert "proven" in out and "interconnect" in out
        assert "pkt+len+" in out  # the symbolic append-store address

    def test_json_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "verify.json"
        assert main(["verify", "--all", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-verify/1"
        assert payload["passed"] is True
        assert len(payload["reports"]) == 6
        report = payload["reports"][0]
        for key in ("name", "point", "passed", "verdict", "wcet", "mmio",
                    "max_stack_bytes", "lint", "diagnostics", "safety"):
            assert key in report, key
        verdict = report["verdict"]
        for key in ("wcet_cycles", "budget_cycles", "headroom_pct",
                    "ceiling_gbps", "binding", "memory_safe"):
            assert key in verdict, key
        safety = report["safety"]
        for key in ("passed", "proven", "unproven", "violations",
                    "stack_depth_bytes", "stack_limit_bytes", "checks"):
            assert key in safety, key
        assert safety["passed"] is True
        assert safety["checks"], "per-access provenance must be emitted"
        check = safety["checks"][0]
        for key in ("pc", "kind", "nbytes", "addr", "verdict", "region"):
            assert key in check, key

    def test_json_to_stdout(self, capsys):
        import json

        assert main(["verify", "--fw", "forwarder", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["name"] == "forwarder"

    def test_no_default_leak_into_other_subcommands(self, capsys):
        # verify overrides rpus/size/gbps defaults to None on its own
        # fresh common parser; profile must still see the real defaults
        # (the PR-3 chaos default-leak regression, re-pinned here)
        from repro.cli import build_parser

        args = build_parser().parse_args(["profile"])
        assert (args.rpus, args.size, args.gbps) == (16, 512, 200.0)
        vargs = build_parser().parse_args(["verify", "--all"])
        assert (vargs.rpus, vargs.size, vargs.gbps) == (None, None, None)
