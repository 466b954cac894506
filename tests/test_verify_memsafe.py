"""Memory-safety verdict tests (``repro.verify.memsafe``).

Every bundled firmware must prove *every* access site; the synthetic
cases pin each rule individually — packet-slot windows, stack-depth
obligations, region containment, the read-only text segment — plus the
forwarder_irq handler-ordering bug the handler-entry join exists to
catch.
"""

import pytest

from repro.verify import analyze_firmware, bundled_firmwares


def _safety(asm, name="t", accel=None, config=None):
    return analyze_firmware(asm, name=name, accel=accel, config=config).safety


class TestBundledFirmwares:
    @pytest.mark.parametrize(
        "fw", bundled_firmwares(), ids=lambda fw: fw.name
    )
    def test_every_access_site_is_proven(self, fw):
        accel = fw.accel_factory() if fw.accel_factory else None
        s = _safety(fw.asm, name=fw.name, accel=accel)
        assert s.passed
        assert s.violations == 0
        assert s.unproven == 0, [
            c.addr_desc for c in s.checks if c.verdict == "unproven"
        ]
        assert s.proven == len(s.checks) > 0
        assert s.stack_depth_bytes <= s.stack_limit_bytes

    def test_pigasus_append_store_is_in_slot_but_past_pkt_len(self):
        # the match-append store writes AFTER the received frame
        # (pkt+len+...): in-slot (proven) but flagged as growing the
        # packet — exactly what an append is supposed to do
        fw = next(f for f in bundled_firmwares() if f.name == "pigasus")
        s = _safety(fw.asm, name="pigasus", accel=fw.accel_factory())
        append = [c for c in s.checks
                  if c.kind == "store" and "pkt+len" in c.addr_desc]
        assert append
        assert all(c.verdict == "proven" for c in append)
        assert all(c.within_pkt_len is False for c in append)

    def test_firewall_header_loads_are_within_pkt_len(self):
        fw = next(f for f in bundled_firmwares() if f.name == "firewall")
        s = _safety(fw.asm, name="firewall")
        hdr = [c for c in s.checks if c.addr_desc.startswith("pkt+")]
        assert hdr
        assert all(c.within_pkt_len is True for c in hdr)


class TestStackRule:
    def test_frame_within_allocation_is_proven(self):
        asm = """
        addi sp, sp, -8
        sw t0, 4(sp)
        lw t1, 4(sp)
        addi sp, sp, 8
        ebreak
        """
        s = _safety(asm)
        assert s.passed
        assert s.proven == len(s.checks) == 2
        # depth tracks the deepest *accessed* byte (sp-4), not the
        # whole reservation
        assert s.stack_depth_bytes == 4

    def test_frame_past_the_allocation_is_a_stack_overflow(self):
        asm = """
        lui t5, 2
        sub sp, sp, t5
        sw t0, 0(sp)
        ebreak
        """
        s = _safety(asm)
        assert not s.passed
        assert s.stack_depth_bytes > s.stack_limit_bytes
        codes = [d.code for d in s.diagnostics]
        assert "stack-overflow" in codes

    def test_deep_addi_frame_also_overflows(self):
        asm = """
        addi sp, sp, -2047
        addi sp, sp, -2047
        addi sp, sp, -2047
        sw t0, 0(sp)
        ebreak
        """
        s = _safety(asm)  # 6141 B > the default 4096 B allocation
        assert not s.passed
        assert "stack-overflow" in [d.code for d in s.diagnostics]


class TestRegionRule:
    def test_dmem_store_is_proven(self):
        asm = """
        li t0, 0x10000
        sw t1, 64(t0)
        ebreak
        """
        s = _safety(asm)
        assert s.proven == 1
        assert s.checks[0].region == "dmem"

    def test_load_from_unmapped_hole_is_a_violation(self):
        asm = """
        li t0, 0x05000000
        lw t1, 0(t0)
        ebreak
        """
        s = _safety(asm)
        assert s.violations == 1
        assert not s.passed
        assert "memsafe-violation" in [d.code for d in s.diagnostics]

    def test_store_straddling_a_region_end_is_not_proven(self):
        # dmem ends at 0x10000 + dmem_bytes; a word store whose last
        # byte is past the end cannot be proven in-region
        from repro.core.config import RosebudConfig

        cfg = RosebudConfig()
        end = 0x10000 + cfg.dmem_bytes
        asm = f"""
        li t0, {end - 2}
        sw t1, 0(t0)
        ebreak
        """
        s = _safety(asm, config=cfg)
        assert s.checks[0].verdict != "proven"


class TestHandlerOrderingRegression:
    # forwarder_irq with the a0/s4 inits moved AFTER the global
    # interrupt enable: an early poke runs the handler with a0 = TOP,
    # so the checkpoint store cannot be proven.  The shipped firmware
    # initializes before csrrsi precisely because this analysis
    # flagged the ordering.
    BAD_ASM = """
    .equ IO_BASE, 0x01000000
    main:
        la   t0, poke_handler
        csrw mtvec, t0
        li   t0, 0x10000
        csrw mie, t0
        csrrsi x0, mstatus, 8
        li   a0, IO_BASE
        li   s4, 0
    loop:
        lw   t0, 0(a0)
        beqz t0, loop
        lw   t1, 4(a0)
        sw   t1, 24(a0)
        j    loop
    poke_handler:
        sw   s4, 40(a0)
        mret
    """

    def test_late_init_leaves_the_handler_store_unproven(self):
        s = _safety(self.BAD_ASM, name="forwarder_irq_bad")
        assert s.unproven >= 1
        bad = [c for c in s.checks if c.verdict != "proven"]
        assert any(c.kind == "store" for c in bad)
        assert "memsafe-unproven" in [d.code for d in s.diagnostics]

    def test_shipped_ordering_is_fully_proven(self):
        fw = next(
            f for f in bundled_firmwares() if f.name == "forwarder_irq"
        )
        s = _safety(fw.asm, name="forwarder_irq")
        assert s.unproven == 0 and s.violations == 0
