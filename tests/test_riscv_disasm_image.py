"""Tests for the disassembler and the firmware image format."""

import pytest
from hypothesis import given, strategies as st

from repro.firmware import FORWARDER_ASM
from repro.riscv import assemble
from repro.riscv.disasm import disassemble, disassemble_word, reg_name
from repro.riscv.image import (
    FirmwareImage,
    ImageError,
    SEG_ACCMEM,
    SEG_DMEM,
    SEG_IMEM,
)


class TestDisassembler:
    def test_reg_names(self):
        assert reg_name(0) == "zero"
        assert reg_name(10) == "a0"
        assert reg_name(31) == "t6"

    @pytest.mark.parametrize("source,expected", [
        ("add a0, a1, a2", "add a0, a1, a2"),
        ("addi t0, t1, -5", "addi t0, t1, -5"),
        ("lw a0, 12(sp)", "lw a0, 12(sp)"),
        ("sw a0, 12(sp)", "sw a0, 12(sp)"),
        ("slli a0, a0, 4", "slli a0, a0, 4"),
        ("ecall", "ecall"),
        ("mret", "mret"),
        ("ret", "ret"),
        ("mul s2, s3, s4", "mul s2, s3, s4"),
    ])
    def test_round_trip_text(self, source, expected):
        program = assemble(source)
        word = int.from_bytes(program.image[:4], "little")
        assert disassemble_word(word) == expected

    @pytest.mark.parametrize("source", ["nop", "mv a0, a1", "ret", "ebreak"])
    def test_shorthands_reassemble(self, source):
        word = int.from_bytes(assemble(source).image, "little")
        rendered = disassemble_word(word)
        assert rendered == source
        assert int.from_bytes(assemble(rendered).image, "little") == word

    def test_nop_wins_over_li(self):
        # addi zero, zero, 0 also fits the li and mv shorthands
        assert disassemble_word(0x00000013) == "nop"
        assert disassemble_word(0x00000513) == "li a0, 0"

    def test_pseudo_recognition(self):
        program = assemble("mv a0, a1")
        word = int.from_bytes(program.image[:4], "little")
        assert disassemble_word(word) == "mv a0, a1"
        program = assemble("li a0, 5")
        # li expands to lui+addi; the addi half renders with rs1
        words = program.image
        second = int.from_bytes(words[4:8], "little")
        assert "addi" in disassemble_word(second) or "mv" in disassemble_word(second)

    def test_branch_target_with_pc(self):
        program = assemble("loop: j loop", base=0x100)
        word = int.from_bytes(program.image[:4], "little")
        assert disassemble_word(word, pc=0x100) == "j 0x100"

    def test_csr_names(self):
        program = assemble("csrw mtvec, t0")
        word = int.from_bytes(program.image[:4], "little")
        assert "mtvec" in disassemble_word(word)

    def test_listing_of_real_firmware(self):
        program = assemble(FORWARDER_ASM)
        lines = disassemble(program.image)
        assert len(lines) == len(program.image) // 4
        assert any("xori" in line for line in lines)

    def test_data_words_rendered(self):
        lines = disassemble(b"\x7b\x00\x00\x00")
        assert ".word" in lines[0]

    @given(st.sampled_from([
        "add", "sub", "xor", "or", "and", "sll", "srl", "sra",
        "mul", "div", "remu", "slt", "sltu",
    ]), st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
    def test_r_type_reassembles(self, op, rd, rs1, rs2):
        text = f"{op} x{rd}, x{rs1}, x{rs2}"
        word = int.from_bytes(assemble(text).image[:4], "little")
        rendered = disassemble_word(word)
        reassembled = int.from_bytes(assemble(rendered).image[:4], "little")
        assert reassembled == word


class TestFirmwareImage:
    def test_round_trip(self):
        image = FirmwareImage(entry_point=0x0)
        image.add_segment(SEG_IMEM, 0, b"\x13\x00\x00\x00" * 4)
        image.add_segment(SEG_DMEM, 0x100, b"data!")
        image.add_segment(SEG_ACCMEM, 0x40, b"table")
        blob = image.to_bytes()
        back = FirmwareImage.from_bytes(blob)
        assert len(back.segments) == 3
        assert back.segment(SEG_DMEM).payload == b"data!"
        assert back.segment(SEG_ACCMEM).address == 0x40

    def test_bad_magic(self):
        with pytest.raises(ImageError):
            FirmwareImage.from_bytes(b"XXXX" + b"\x00" * 12)

    def test_corrupted_payload_detected(self):
        image = FirmwareImage()
        image.add_segment(SEG_IMEM, 0, b"\x13\x00\x00\x00")
        blob = bytearray(image.to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(ImageError, match="CRC"):
            FirmwareImage.from_bytes(bytes(blob))

    def test_corrupted_table_detected(self):
        image = FirmwareImage()
        image.add_segment(SEG_IMEM, 0, b"\x13\x00\x00\x00")
        blob = bytearray(image.to_bytes())
        blob[16] ^= 0xFF  # first table entry
        with pytest.raises(ImageError):
            FirmwareImage.from_bytes(bytes(blob))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ImageError):
            FirmwareImage().add_segment(99, 0, b"")

    def test_from_asm(self):
        image = FirmwareImage.from_asm("nop\nebreak")
        assert image.segment(SEG_IMEM) is not None
        assert len(image.segment(SEG_IMEM).payload) == 8

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_arbitrary_payloads_round_trip(self, a, b):
        image = FirmwareImage(entry_point=4)
        image.add_segment(SEG_IMEM, 0, a)
        image.add_segment(SEG_DMEM, 8, b)
        back = FirmwareImage.from_bytes(image.to_bytes())
        assert back.segment(SEG_IMEM).payload == a
        assert back.segment(SEG_DMEM).payload == b
        assert back.entry_point == 4
