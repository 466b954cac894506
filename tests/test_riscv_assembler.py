"""Tests for the two-pass assembler."""

import pytest

from repro.riscv import AssemblerError, MemoryBus, RiscvCpu, assemble, decode


def execute(source, max_instructions=100_000):
    bus = MemoryBus()
    bus.add_ram(0, 64 * 1024)
    program = assemble(source)
    bus.load_blob(0, program.image)
    cpu = RiscvCpu(bus)
    cpu.run(max_instructions=max_instructions)
    return cpu


class TestDirectives:
    def test_word_emits_little_endian(self):
        program = assemble(".word 0x11223344")
        assert program.image == b"\x44\x33\x22\x11"

    def test_multiple_words(self):
        program = assemble(".word 1, 2, 3")
        assert len(program.image) == 12

    def test_byte_and_half(self):
        program = assemble(".byte 1, 2\n.half 0x0304")
        assert program.image == b"\x01\x02\x04\x03"

    def test_asciz_terminates(self):
        program = assemble('.asciz "hi"')
        assert program.image == b"hi\x00"

    def test_ascii_no_terminator(self):
        program = assemble('.ascii "hi"')
        assert program.image == b"hi"

    def test_string_escapes(self):
        program = assemble(r'.asciz "a\n\t\0"')
        assert program.image == b"a\n\t\x00\x00"

    def test_org_pads(self):
        program = assemble(".byte 1\n.org 8\n.byte 2")
        assert program.image == b"\x01" + b"\x00" * 7 + b"\x02"

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".org 8\n.org 4\n.byte 1")

    def test_align(self):
        program = assemble(".byte 1\n.align 2\n.word 5")
        assert len(program.image) == 8

    def test_space(self):
        program = assemble(".space 5\n.byte 9")
        assert program.image == b"\x00" * 5 + b"\x09"

    def test_equ_constants(self):
        cpu = execute("""
            .equ MAGIC, 0x1234
            li a0, MAGIC
            ebreak
        """)
        assert cpu.read_reg(10) == 0x1234

    def test_equ_expression(self):
        cpu = execute("""
            .equ BASE, 0x100
            .equ OFFSET, BASE + 0x20
            li a0, OFFSET
            ebreak
        """)
        assert cpu.read_reg(10) == 0x120


class TestLabelsAndSymbols:
    def test_forward_reference(self):
        cpu = execute("""
            j end
            li a0, 1
        end:
            li a0, 99
            ebreak
        """)
        assert cpu.read_reg(10) == 99

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x:\nx:\n nop")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere")

    def test_symbol_table(self):
        program = assemble("""
            nop
        here:
            nop
        """)
        assert program.symbols["here"] == 4

    def test_la_loads_address(self):
        cpu = execute("""
            la a0, data
            lw a1, 0(a0)
            ebreak
        data:
            .word 0xABCD
        """)
        assert cpu.read_reg(11) == 0xABCD

    def test_hi_lo_relocation(self):
        cpu = execute("""
            .equ ADDR, 0x12345678
            lui a0, %hi(ADDR)
            addi a0, a0, %lo(ADDR)
            ebreak
        """)
        assert cpu.read_reg(10) == 0x12345678

    def test_hi_lo_with_carry(self):
        # %lo is negative when bit 11 is set; %hi must compensate
        cpu = execute("""
            .equ ADDR, 0x12345FFC
            lui a0, %hi(ADDR)
            addi a0, a0, %lo(ADDR)
            ebreak
        """)
        assert cpu.read_reg(10) == 0x12345FFC


class TestPseudoInstructions:
    def test_li_small_and_large(self):
        cpu = execute("""
            li a0, 42
            li a1, -42
            li a2, 0xDEADBEEF
            li a3, 0x800
            ebreak
        """)
        assert cpu.read_reg(10) == 42
        assert cpu.read_reg(11) == (-42) & 0xFFFFFFFF
        assert cpu.read_reg(12) == 0xDEADBEEF
        assert cpu.read_reg(13) == 0x800

    def test_mv_not_neg(self):
        cpu = execute("""
            li a0, 7
            mv a1, a0
            not a2, a0
            neg a3, a0
            ebreak
        """)
        assert cpu.read_reg(11) == 7
        assert cpu.read_reg(12) == (~7) & 0xFFFFFFFF
        assert cpu.read_reg(13) == (-7) & 0xFFFFFFFF

    def test_seqz_snez(self):
        cpu = execute("""
            li a0, 0
            seqz a1, a0
            snez a2, a0
            li a3, 5
            seqz a4, a3
            snez a5, a3
            ebreak
        """)
        assert cpu.read_reg(11) == 1
        assert cpu.read_reg(12) == 0
        assert cpu.read_reg(14) == 0
        assert cpu.read_reg(15) == 1

    def test_branch_zero_variants(self):
        cpu = execute("""
            li a0, 0
            li t0, -3
            bltz t0, one
            j fail
        one:
            li t1, 3
            bgtz t1, two
            j fail
        two:
            beqz x0, three
        fail:
            li a0, 111
            ebreak
        three:
            li a0, 222
            ebreak
        """)
        assert cpu.read_reg(10) == 222

    def test_bgt_ble_swap_operands(self):
        cpu = execute("""
            li t0, 10
            li t1, 3
            bgt t0, t1, good
            li a0, 0
            ebreak
        good:
            li a0, 1
            ble t1, t0, done
            li a0, 0
        done:
            ebreak
        """)
        assert cpu.read_reg(10) == 1

    def test_nop_encodes_as_addi(self):
        program = assemble("nop")
        inst = decode(int.from_bytes(program.image, "little"))
        assert inst.mnemonic == "addi" and inst.rd == 0 and inst.rs1 == 0

    def test_call_far_target(self):
        # call uses auipc+jalr so it reaches beyond +-1MB jal range
        cpu = execute("""
            call fn
            ebreak
        .org 0x4000
        fn:
            li a0, 77
            ret
        """)
        assert cpu.read_reg(10) == 77

    def test_tail_far_target_links_nothing(self):
        # tail reaches as far as call but goes through t1 and leaves ra alone
        cpu = execute("""
            li ra, 0x123
            tail fn
            ebreak
        .org 0x4000
        fn:
            li a0, 78
            ebreak
        """)
        assert cpu.read_reg(10) == 78 and cpu.read_reg(1) == 0x123


class TestOperandSyntax:
    def test_memory_operand_with_expression(self):
        cpu = execute("""
            .equ OFF, 8
            li a0, 0x1000
            li a1, 5
            sw a1, OFF(a0)
            lw a2, 8(a0)
            ebreak
        """)
        assert cpu.read_reg(12) == 5

    def test_empty_offset_means_zero(self):
        cpu = execute("""
            li a0, 0x1000
            li a1, 3
            sw a1, (a0)
            lw a2, (a0)
            ebreak
        """)
        assert cpu.read_reg(12) == 3

    def test_expression_operators(self):
        cpu = execute("""
            li a0, (1 << 4) | 3
            li a1, 100 - 2 * 10
            li a2, ~0xF0 & 0xFF
            ebreak
        """)
        assert cpu.read_reg(10) == 0x13
        assert cpu.read_reg(11) == 80
        assert cpu.read_reg(12) == 0x0F

    def test_comments_ignored(self):
        cpu = execute("""
            li a0, 1  # load one
            # a full comment line
            ebreak
        """)
        assert cpu.read_reg(10) == 1

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("nop\nbogus a0, a1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1")

    def test_shift_amount_range(self):
        with pytest.raises(AssemblerError):
            assemble("slli a0, a1, 32")

    @pytest.mark.parametrize("line", [
        "lui a0, 0x100000",  # used to assemble, silently, to lui a0, 0x0
        "auipc a2, 0x1234567",  # ... and this to auipc a2, 0x34567
        "lui a0, -0x80001",
    ])
    def test_upper_immediate_range(self, line):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble(f"nop\n{line}")

    def test_upper_immediate_accepts_both_readings(self):
        words = assemble("lui a1, -1\nlui a1, 0xFFFFF\nlui a1, -0x80000\nauipc a1, 0").image
        assert words[0:4] == words[4:8] == (0xFFFFF5B7).to_bytes(4, "little")
        assert words[8:12] == (0x800005B7).to_bytes(4, "little")
        assert words[12:16] == (0x00000597).to_bytes(4, "little")

    def test_base_address(self):
        program = assemble("target:\n j target", base=0x1000)
        assert program.symbols["target"] == 0x1000
