"""Tests for RV32IM encode/decode."""

import pytest
from hypothesis import given, strategies as st

from repro.riscv import DecodeError, assemble, decode, parse_register, sign_extend
from repro.riscv.disasm import format_instruction
from repro.riscv.isa import (
    OP_IMM,
    OPS,
    encode_b,
    encode_i,
    encode_j,
    encode_s,
    encode_u,
    reads_regs,
)

# One (source line, word, decoded fields) triple per row of the
# instruction table.  The words are worked out by hand from the
# instruction listings of the RISC-V unprivileged spec (RV32I, M, Zicsr)
# and the privileged spec (mret, wfi), not produced by this assembler:
# the assembler and the decoder now read the same table row, so their
# round trip alone could no longer catch a wrong funct3.  Branch and jal
# operands are absolute targets assembled at address 0.
GOLDEN = [
    ("lui a0, 0xdead1", 0xDEAD1537, dict(rd=10, imm=-559083520)),
    ("auipc t1, 0x12345", 0x12345317, dict(rd=6, imm=305418240)),
    ("jal ra, 2048", 0x001000EF, dict(rd=1, imm=2048)),
    ("jalr t0, -4(a5)", 0xFFC782E7, dict(rd=5, rs1=15, imm=-4)),
    ("beq a1, s2, 16", 0x01258863, dict(rs1=11, rs2=18, imm=16)),
    ("bne a1, s2, -16", 0xFF2598E3, dict(rs1=11, rs2=18, imm=-16)),
    ("blt a1, s2, 4094", 0x7F25CFE3, dict(rs1=11, rs2=18, imm=4094)),
    ("bge a1, s2, -4096", 0x8125D063, dict(rs1=11, rs2=18, imm=-4096)),
    ("bltu a1, s2, 2", 0x0125E163, dict(rs1=11, rs2=18, imm=2)),
    ("bgeu a1, s2, -2", 0xFF25FFE3, dict(rs1=11, rs2=18, imm=-2)),
    ("lb s3, -1(gp)", 0xFFF18983, dict(rd=19, rs1=3, imm=-1)),
    ("lh s3, 2(gp)", 0x00219983, dict(rd=19, rs1=3, imm=2)),
    ("lw s3, 2047(gp)", 0x7FF1A983, dict(rd=19, rs1=3, imm=2047)),
    ("lbu s3, -2048(gp)", 0x8001C983, dict(rd=19, rs1=3, imm=-2048)),
    ("lhu s3, 6(gp)", 0x0061D983, dict(rd=19, rs1=3, imm=6)),
    ("sb t6, -1(s1)", 0xFFF48FA3, dict(rs1=9, rs2=31, imm=-1)),
    ("sh t6, 2046(s1)", 0x7FF49F23, dict(rs1=9, rs2=31, imm=2046)),
    ("sw t6, -2048(s1)", 0x81F4A023, dict(rs1=9, rs2=31, imm=-2048)),
    ("addi a6, t2, -2048", 0x80038813, dict(rd=16, rs1=7, imm=-2048)),
    ("slti a6, t2, -1", 0xFFF3A813, dict(rd=16, rs1=7, imm=-1)),
    ("sltiu a6, t2, 2047", 0x7FF3B813, dict(rd=16, rs1=7, imm=2047)),
    ("xori a6, t2, 1365", 0x5553C813, dict(rd=16, rs1=7, imm=1365)),
    ("ori a6, t2, -1366", 0xAAA3E813, dict(rd=16, rs1=7, imm=-1366)),
    ("andi a6, t2, 1", 0x0013F813, dict(rd=16, rs1=7, imm=1)),
    ("slli s4, s5, 31", 0x01FA9A13, dict(rd=20, rs1=21, imm=31)),
    ("srli s4, s5, 1", 0x001ADA13, dict(rd=20, rs1=21, imm=1)),
    ("srai s4, s5, 17", 0x411ADA13, dict(rd=20, rs1=21, imm=17)),
    ("add tp, a7, s11", 0x01B88233, dict(rd=4, rs1=17, rs2=27)),
    ("sub tp, a7, s11", 0x41B88233, dict(rd=4, rs1=17, rs2=27)),
    ("sll tp, a7, s11", 0x01B89233, dict(rd=4, rs1=17, rs2=27)),
    ("slt tp, a7, s11", 0x01B8A233, dict(rd=4, rs1=17, rs2=27)),
    ("sltu tp, a7, s11", 0x01B8B233, dict(rd=4, rs1=17, rs2=27)),
    ("xor tp, a7, s11", 0x01B8C233, dict(rd=4, rs1=17, rs2=27)),
    ("srl tp, a7, s11", 0x01B8D233, dict(rd=4, rs1=17, rs2=27)),
    ("sra tp, a7, s11", 0x41B8D233, dict(rd=4, rs1=17, rs2=27)),
    ("or tp, a7, s11", 0x01B8E233, dict(rd=4, rs1=17, rs2=27)),
    ("and tp, a7, s11", 0x01B8F233, dict(rd=4, rs1=17, rs2=27)),
    ("mul tp, a7, s11", 0x03B88233, dict(rd=4, rs1=17, rs2=27)),
    ("mulh tp, a7, s11", 0x03B89233, dict(rd=4, rs1=17, rs2=27)),
    ("mulhsu tp, a7, s11", 0x03B8A233, dict(rd=4, rs1=17, rs2=27)),
    ("mulhu tp, a7, s11", 0x03B8B233, dict(rd=4, rs1=17, rs2=27)),
    ("div tp, a7, s11", 0x03B8C233, dict(rd=4, rs1=17, rs2=27)),
    ("divu tp, a7, s11", 0x03B8D233, dict(rd=4, rs1=17, rs2=27)),
    ("rem tp, a7, s11", 0x03B8E233, dict(rd=4, rs1=17, rs2=27)),
    ("remu tp, a7, s11", 0x03B8F233, dict(rd=4, rs1=17, rs2=27)),
    ("fence", 0x0000000F, dict()),
    ("ecall", 0x00000073, dict()),
    ("ebreak", 0x00100073, dict()),
    ("mret", 0x30200073, dict()),
    ("wfi", 0x10500073, dict()),
    ("csrrw a2, mtvec, s6", 0x305B1673, dict(rd=12, rs1=22, csr=0x305)),
    ("csrrs a2, mcycle, s6", 0xB00B2673, dict(rd=12, rs1=22, csr=0xb00)),
    ("csrrc a2, 0x7c0, s6", 0x7C0B3673, dict(rd=12, rs1=22, csr=0x7c0)),
    ("csrrwi a3, mscratch, 31", 0x340FD6F3, dict(rd=13, rs1=31, csr=0x340)),
    ("csrrsi a3, mstatus, 8", 0x300466F3, dict(rd=13, rs1=8, csr=0x300)),
    ("csrrci a3, mip, 1", 0x3440F6F3, dict(rd=13, rs1=1, csr=0x344)),
]
_PC_RELATIVE = {"jal", "beq", "bne", "blt", "bge", "bltu", "bgeu"}


class TestKnownEncodings:
    """Golden encodings cross-checked against the RISC-V spec."""

    def test_addi(self):
        # addi x1, x2, 100
        inst = decode(0x06410093)
        assert inst.mnemonic == "addi" and inst.rd == 1 and inst.rs1 == 2 and inst.imm == 100

    def test_addi_negative_imm(self):
        # addi x5, x0, -1
        inst = decode(0xFFF00293)
        assert inst.mnemonic == "addi" and inst.imm == -1

    def test_lui(self):
        # lui x3, 0xdead0
        inst = decode(0xDEAD01B7)
        assert inst.mnemonic == "lui" and inst.rd == 3
        assert inst.imm & 0xFFFFFFFF == 0xDEAD0000

    def test_jal(self):
        # jal x1, +8
        inst = decode(0x008000EF)
        assert inst.mnemonic == "jal" and inst.rd == 1 and inst.imm == 8

    def test_jal_negative(self):
        # jal x0, -4
        inst = decode(0xFFDFF06F)
        assert inst.mnemonic == "jal" and inst.imm == -4

    def test_beq(self):
        # beq x1, x2, +16
        inst = decode(0x00208863)
        assert inst.mnemonic == "beq" and inst.imm == 16

    def test_lw(self):
        # lw x6, 12(x7)
        inst = decode(0x00C3A303)
        assert inst.mnemonic == "lw" and inst.rd == 6 and inst.rs1 == 7 and inst.imm == 12

    def test_sw(self):
        # sw x6, 12(x7)
        inst = decode(0x0063A623)
        assert inst.mnemonic == "sw" and inst.rs1 == 7 and inst.rs2 == 6 and inst.imm == 12

    def test_mul(self):
        # mul x5, x6, x7
        inst = decode(0x027302B3)
        assert inst.mnemonic == "mul" and inst.rd == 5

    def test_divu(self):
        inst = decode(0x0272D2B3)
        assert inst.mnemonic == "divu"

    def test_ecall_ebreak(self):
        assert decode(0x00000073).mnemonic == "ecall"
        assert decode(0x00100073).mnemonic == "ebreak"

    def test_mret_wfi(self):
        assert decode(0x30200073).mnemonic == "mret"
        assert decode(0x10500073).mnemonic == "wfi"

    def test_csrrw(self):
        # csrrw x1, mstatus, x2
        inst = decode(0x300110F3)
        assert inst.mnemonic == "csrrw" and inst.csr == 0x300

    def test_slli_srai(self):
        # slli x1, x2, 5
        inst = decode(0x00511093)
        assert inst.mnemonic == "slli" and inst.imm == 5
        # srai x1, x2, 5
        inst = decode(0x40515093)
        assert inst.mnemonic == "srai" and inst.imm == 5

    def test_unknown_opcode_raises(self):
        with pytest.raises(DecodeError):
            decode(0x0000007B)


class TestGoldenVectors:
    def test_one_vector_per_table_row(self):
        assert sorted(source.split()[0] for source, _, _ in GOLDEN) == sorted(OPS)

    @pytest.mark.parametrize("source,word,fields", GOLDEN, ids=[g[0].split()[0] for g in GOLDEN])
    def test_assemble_decode_format(self, source, word, fields):
        mnemonic = source.split()[0]
        assert int.from_bytes(assemble(source).image, "little") == word
        inst = decode(word)
        expected = dict(rd=0, rs1=0, rs2=0, imm=0, csr=0)
        expected.update(fields)
        got = {name: getattr(inst, name) for name in expected}
        assert (inst.mnemonic, got, inst.raw) == (mnemonic, expected, word)
        text = source
        if mnemonic in _PC_RELATIVE:  # rendered as a signed offset without a pc
            text = f"{source.rsplit(' ', 1)[0]} {inst.imm:+d}"
        assert format_instruction(inst) == text


class TestEncodeDecodeRoundTrip:
    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=-2048, max_value=2047),
    )
    def test_i_type_round_trip(self, rd, rs1, imm):
        word = encode_i(imm, rs1, 0, rd, OP_IMM)
        inst = decode(word)
        assert inst.mnemonic == "addi"
        assert (inst.rd, inst.rs1, inst.imm) == (rd, rs1, imm)

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=-2048, max_value=2047),
    )
    def test_s_type_round_trip(self, rs1, rs2, imm):
        word = encode_s(imm, rs2, rs1, 0b010, 0b0100011)
        inst = decode(word)
        assert inst.mnemonic == "sw"
        assert (inst.rs1, inst.rs2, inst.imm) == (rs1, rs2, imm)

    @given(st.integers(min_value=-2048, max_value=2046).map(lambda x: x * 2))
    def test_b_type_round_trip(self, imm):
        word = encode_b(imm, 1, 2, 0b000, 0b1100011)
        inst = decode(word)
        assert inst.mnemonic == "beq" and inst.imm == imm

    @given(st.integers(min_value=-(2**19), max_value=2**19 - 1).map(lambda x: x * 2))
    def test_j_type_round_trip(self, imm):
        word = encode_j(imm, 1, 0b1101111)
        inst = decode(word)
        assert inst.mnemonic == "jal" and inst.imm == imm

    @given(st.integers(min_value=0, max_value=0xFFFFF))
    def test_u_type_round_trip(self, imm20):
        word = encode_u(imm20 << 12, 5, 0b0110111)
        inst = decode(word)
        assert inst.mnemonic == "lui"
        assert (inst.imm & 0xFFFFFFFF) == ((imm20 << 12) & 0xFFFFFFFF)

    def test_b_imm_out_of_range(self):
        with pytest.raises(DecodeError):
            encode_b(4096, 0, 0, 0, 0b1100011)

    def test_b_imm_odd_rejected(self):
        with pytest.raises(DecodeError):
            encode_b(3, 0, 0, 0, 0b1100011)


class TestRegisters:
    def test_abi_names(self):
        assert parse_register("zero") == 0
        assert parse_register("ra") == 1
        assert parse_register("sp") == 2
        assert parse_register("a0") == 10
        assert parse_register("t6") == 31
        assert parse_register("fp") == 8

    def test_numeric_names(self):
        assert parse_register("x0") == 0
        assert parse_register("x31") == 31

    def test_bad_register(self):
        with pytest.raises(DecodeError):
            parse_register("x32")
        with pytest.raises(DecodeError):
            parse_register("q1")

    def test_sign_extend(self):
        assert sign_extend(0xFFF, 12) == -1
        assert sign_extend(0x7FF, 12) == 2047
        assert sign_extend(0x800, 12) == -2048


class TestReadsRegs:
    """``reads_regs`` against the operand roles of each row's kind,
    written out here independently of the table's operand shapes."""

    #: kind -> registers read out of (rs1=5, rs2=6)
    BY_KIND = {
        "alu-rr": (5, 6),
        "alu-imm": (5,),
        "shift-imm": (5,),
        "upper": (),
        "load": (5,),
        "store": (5, 6),  # base address, then the stored value
        "branch": (5, 6),
        "system": (),  # mret reads mepc/mstatus, not a register
    }

    @pytest.mark.parametrize("mnemonic", sorted(OPS))
    def test_every_row(self, mnemonic):
        kind = OPS[mnemonic].kind
        if kind == "jump":
            expected = (5,) if mnemonic == "jalr" else ()
        elif kind == "csr":
            expected = () if mnemonic.endswith("i") else (5,)  # zimm forms
        else:
            expected = self.BY_KIND[kind]
        assert reads_regs(mnemonic, 5, 6) == expected
        assert reads_regs(mnemonic, 0, 0) == ()  # x0 always reads zero
