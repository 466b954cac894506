"""CFG builder: blocks, loops, MMIO footprints, SMC, differentials.

The structural half of the static-analysis contract: the CFG the
verifier reasons over must agree with the superblocks the translator
actually executes (satellite: shared leader discovery in
``repro.riscv.blocks``), and static findings (self-modifying code,
MMIO footprint — both read off the one abstract-interpretation
fixpoint ``analyze_firmware`` runs over that CFG) must agree with what
the runtime observes.
"""

import pytest

from repro.firmware.asm_sources import (
    FIREWALL_ASM,
    FLOW_COUNTER_ASM,
    FORWARDER_ASM,
    FORWARDER_IRQ_ASM,
    PIGASUS_ASM,
    PKT_GEN_ASM,
)
from repro.riscv import assemble, image_decoder
from repro.riscv.blocks import MAX_BLOCK, is_block_terminal
from repro.verify import MachineEnv, analyze_firmware, analyze_source, build_cfg
from repro.verify.registry import _check_mmio

ALL_ASMS = {
    "forwarder": FORWARDER_ASM,
    "firewall": FIREWALL_ASM,
    "forwarder_irq": FORWARDER_IRQ_ASM,
    "flow_counter": FLOW_COUNTER_ASM,
    "pkt_gen": PKT_GEN_ASM,
    "pigasus": PIGASUS_ASM,
}


def superblock_pcs(decode_at, entry_pc: int, max_block: int = MAX_BLOCK) -> list:
    """The instruction addresses the translator would fuse at ``entry_pc``.

    Mirrors ``TranslatedEngine.translate_block`` exactly: walk forward
    from the entry, stop *after* a terminal instruction (or an
    undecodable word, which the translator turns into a terminal fault
    closure), or at the ``max_block`` cap.
    """
    pcs = []
    pc = entry_pc & 0xFFFFFFFF
    for _ in range(max_block):
        pcs.append(pc)
        inst = decode_at(pc)
        if inst is None or is_block_terminal(inst.mnemonic):
            break
        pc = (pc + 4) & 0xFFFFFFFF
    return pcs


@pytest.fixture(params=sorted(ALL_ASMS))
def named_cfg(request):
    name = request.param
    return name, analyze_source(ALL_ASMS[name], name=name)


@pytest.fixture(params=sorted(ALL_ASMS))
def named_analysis(request):
    name = request.param
    return name, analyze_firmware(ALL_ASMS[name], name=name)


class TestCfgStructure:
    def test_every_firmware_builds(self, named_cfg):
        name, cfg = named_cfg
        assert cfg.blocks, name
        errors = [d.format() for d in cfg.diagnostics if d.level == "error"]
        assert not errors, errors

    def test_blocks_partition_reachable_code(self, named_cfg):
        _, cfg = named_cfg
        seen = set()
        for block in cfg.blocks.values():
            for pc in block.pcs:
                assert pc not in seen, f"pc 0x{pc:x} in two blocks"
                seen.add(pc)

    def test_successors_are_blocks(self, named_cfg):
        _, cfg = named_cfg
        for block in cfg.blocks.values():
            for succ in block.successors:
                assert succ in cfg.blocks

    def test_packet_loop_exists(self, named_cfg):
        name, cfg = named_cfg
        # every bundled firmware spins on the interconnect window
        assert cfg.loops, name

    def test_deterministic(self, named_cfg):
        name, cfg = named_cfg
        again = analyze_source(ALL_ASMS[name], name=name)
        assert cfg.blocks == again.blocks
        assert cfg.loops == again.loops
        assert cfg.diagnostics == again.diagnostics

    def test_entries_include_handlers(self):
        cfg = analyze_source(FORWARDER_IRQ_ASM, name="fwd_irq")
        assert len(cfg.entries) == 2  # main + poke_handler
        assert cfg.label_at(cfg.entries[1]) == "poke_handler"


class TestBlockDifferential:
    """CFG blocks must be prefixes of the translator's superblocks:
    both sides now share ``repro.riscv.blocks`` leader rules, and this
    pins the refactor (a drifting terminal set breaks one side)."""

    def test_cfg_blocks_prefix_superblocks(self, named_cfg):
        name, cfg = named_cfg
        program = assemble(ALL_ASMS[name])
        decode_at = image_decoder(program.image, base=0)
        for block in cfg.blocks.values():
            pcs = superblock_pcs(decode_at, block.start)
            # the CFG additionally splits at join points, so a block is
            # always a leading slice of the superblock at its start
            assert pcs[: len(block.pcs)] == block.pcs, (
                f"{name}: block 0x{block.start:x} diverges from superblock"
            )

    def test_translator_agrees_on_block_length(self):
        from repro.core.funcsim import FunctionalRpu
        from repro.packet import build_tcp
        from repro.riscv.translate import TranslatedEngine

        rpu = FunctionalRpu(FORWARDER_ASM, cpu_backend="translated")
        rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data)
        rpu.run_until_sent(1)
        engine = rpu.cpu._engine
        assert isinstance(engine, TranslatedEngine)
        program = assemble(FORWARDER_ASM)
        decode_at = image_decoder(program.image, base=0)
        cfg = build_cfg(program, name="forwarder")
        checked = 0
        for start in cfg.blocks:
            compiled = engine.translate_block(start)
            assert len(compiled) == len(superblock_pcs(decode_at, start))
            checked += 1
        assert checked >= 3


class TestMmioFootprint:
    def test_forwarder_touches_interconnect_only(self):
        footprint = analyze_firmware(FORWARDER_ASM).absres.mmio_footprint()
        assert footprint["interconnect"]
        assert not footprint["accel"]

    def test_firewall_touches_accelerator(self):
        footprint = analyze_firmware(FIREWALL_ASM).absres.mmio_footprint()
        assert footprint["accel"], "blacklist MMIO window not detected"
        # the documented interconnect handshake registers all appear
        assert 0x00 in footprint["interconnect"]  # RECV_READY
        assert 0x20 in footprint["interconnect"]  # SEND_PORT_GO

    def test_region_classifier(self):
        region_of = MachineEnv().region_of  # the one region map
        assert region_of(0x0000_0000)[0] == "imem"
        assert region_of(0x0001_0000)[0] == "dmem"
        assert region_of(0x0010_0000)[0] == "pmem"
        assert region_of(0x0100_0000)[0] == "interconnect"
        assert region_of(0x0200_0004) == ("accel", 0x4)

    # a firmware that spills without first loading sp: the stack top is
    # symbolic, not address 0, so the spill is a stack access
    SPILL_ASM = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
    addi sp, sp, -16
loop:
    lw   t0, 0(a0)        # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)        # tag
    lw   t2, 8(a0)        # len
    sw   t1, 0(sp)        # spill to the bottom of the 16-byte frame
    sw   zero, 20(a0)     # release
    lw   t1, 0(sp)        # reload
    sw   t1, 24(a0)       # SEND_TAG
    sw   t2, 28(a0)       # SEND_LEN
    sw   zero, 32(a0)     # SEND_PORT_GO
    j    loop
"""

    @staticmethod
    def _mmio_errors(asm):
        """The analysis plus the error codes ``verify_firmware``'s
        footprint check raises for it (no accelerator configured)."""
        analysis = analyze_firmware(asm)
        diags = []
        _check_mmio(analysis.absres, None, "t", diags)
        return analysis, [d.code for d in diags if d.level == "error"]

    def test_stack_spill_is_not_an_accelerator_access(self):
        analysis, errors = self._mmio_errors(self.SPILL_ASM)
        assert analysis.absres.mmio_footprint()["accel"] == {}
        assert errors == []  # const-prop filed the spill under no-accelerator
        assert analysis.safety.proven == len(analysis.safety.checks) == 9
        assert analysis.safety.stack_depth_bytes == 16

    def test_handler_mmio_is_in_the_footprint(self):
        interconnect = analyze_firmware(FORWARDER_IRQ_ASM).absres.mmio_footprint()["interconnect"]
        assert interconnect[0x28] == {"store"}  # DEBUG_OUT_L, poke_handler only
        assert interconnect[0x2C] == {"store"}  # DEBUG_OUT_H, poke_handler only

    def test_handler_store_to_undefined_register_is_an_error(self):
        asm = FORWARDER_IRQ_ASM.replace("sw   s4, 40(a0)", "sw   s4, 0x40(a0)")
        assert asm != FORWARDER_IRQ_ASM
        assert self._mmio_errors(FORWARDER_IRQ_ASM)[1] == []
        assert self._mmio_errors(asm)[1] == ["unknown-interconnect-register"]


class TestSelfModifyingCode:
    SMC_ASM = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
loop:
    lw   t0, 0(a0)        # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)        # tag
    lw   t2, 8(a0)        # len
    lw   t3, 12(a0)       # port
    sw   zero, 20(a0)     # release
    li   t5, 0x00000013   # a nop encoding
    sw   t5, 8(x0)        # patch own text: store into imem
    sw   t1, 24(a0)       # SEND_TAG
    sw   t2, 28(a0)       # SEND_LEN
    sw   t3, 32(a0)       # SEND_PORT_GO
    j    loop
"""

    def test_static_smc_detection(self):
        safety = analyze_firmware(self.SMC_ASM, name="smc").safety
        codes = [d.code for d in safety.diagnostics if d.level == "error"]
        # one store, one detection
        assert codes == ["smc-store"]

    def test_runtime_agrees_code_epoch_bumps(self):
        # the translated backend's store watch catches the same store:
        # writing text bumps code_epoch (PR 3's invalidation path)
        from repro.core.funcsim import FunctionalRpu
        from repro.packet import build_tcp

        rpu = FunctionalRpu(self.SMC_ASM, cpu_backend="translated")
        before = rpu.cpu.code_epoch
        rpu.push_packet(build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data)
        rpu.run_until_sent(1)
        assert rpu.cpu.code_epoch > before

    def test_bundled_firmwares_are_smc_free(self, named_analysis):
        name, analysis = named_analysis
        assert not any(d.code == "smc-store" for d in analysis.safety.diagnostics), name


class TestUnreachable:
    DEAD_ASM = """
    .equ IO_BASE, 0x01000000
main:
    li   a0, IO_BASE
loop:
    lw   t0, 0(a0)
    beqz t0, loop
    sw   t0, 0x14(a0)
    j    loop
dead:
    addi t1, t1, 1
    j    dead
"""

    def test_dead_label_reported(self):
        cfg = analyze_source(self.DEAD_ASM, name="dead")
        assert any(d.code == "unreachable-block" for d in cfg.diagnostics)

    def test_bundled_firmwares_fully_reachable(self, named_cfg):
        name, cfg = named_cfg
        assert not any(
            d.code == "unreachable-block" for d in cfg.diagnostics
        ), name
