"""RV32IM disassembler.

Renders decoded instructions in conventional assembly syntax with ABI
register names — the firmware-debugging view the funcsim single-stepper
and the examples print.  Round-trips with the assembler for the whole
supported instruction set (property-tested).
"""

from __future__ import annotations

from typing import List, Optional

from .isa import ABI_NAMES, CSR_NAMES, OPS, PSEUDO, DecodeError, Instruction, decode

# the first ABI name listed for an index wins (s0 over fp)
_REG_NAMES = {index: name for name, index in reversed(ABI_NAMES.items())}
_CSR_NAMES = {address: name for name, address in CSR_NAMES.items()}

#: The pseudo-instructions rendered in place of the instruction they
#: expand to, most specific first.  ``li`` (``addi rd, zero, imm``) is
#: not in :data:`PSEUDO` because the assembler expands it to two words.
_LI = ("addi", ("rd", "imm"), {"rs1": 0})
_SHORTHANDS = tuple(
    (name, *(_LI if name == "li" else PSEUDO[name]))
    for name in ("nop", "li", "mv", "j", "ret", "beqz", "bnez", "bltz", "bgez")
)


def _target(inst: Instruction, pc: Optional[int]) -> str:
    if pc is not None:
        return f"{(pc + inst.imm) & 0xFFFFFFFF:#x}"
    return f"{inst.imm:+d}"


#: operand kind of a table row's shape -> its text for one instruction
_RENDER = {
    "rd": lambda inst, pc: reg_name(inst.rd),
    "rs1": lambda inst, pc: reg_name(inst.rs1),
    "rs2": lambda inst, pc: reg_name(inst.rs2),
    "imm": lambda inst, pc: str(inst.imm),
    "shamt": lambda inst, pc: str(inst.imm),
    "imm20": lambda inst, pc: f"{(inst.imm >> 12) & 0xFFFFF:#x}",
    "mem": lambda inst, pc: f"{inst.imm}({reg_name(inst.rs1)})",
    "target": _target,
    "csr": lambda inst, pc: csr_name(inst.csr),
    "zimm": lambda inst, pc: str(inst.rs1),
}


def reg_name(index: int) -> str:
    """ABI name of register ``index``."""
    return _REG_NAMES[index]


# front door: `repro disasm` of a firmware that uses CSRs
def csr_name(address: int) -> str:
    return _CSR_NAMES.get(address, f"{address:#x}")


def format_instruction(inst: Instruction, pc: Optional[int] = None) -> str:
    """One instruction in assembly syntax.

    When ``pc`` is given, branch/jump targets are rendered as absolute
    addresses instead of relative offsets.
    """
    name, shape = inst.mnemonic, OPS[inst.mnemonic].operands
    for pseudo, real, bound, fixed in _SHORTHANDS:
        if real == inst.mnemonic and all(getattr(inst, f) == v for f, v in fixed.items()):
            name, shape = pseudo, bound
            break
    return " ".join([name, ", ".join(_RENDER[operand](inst, pc) for operand in shape)]).strip()


def disassemble_word(word: int, pc: Optional[int] = None) -> str:
    """Decode + format a single 32-bit word."""
    return format_instruction(decode(word), pc)


def disassemble(image: bytes, base: int = 0, stop_on_error: bool = False) -> List[str]:
    """Disassemble a flat image into ``addr: word  text`` lines.

    Data words that don't decode render as ``.word``; with
    ``stop_on_error`` the first such word ends the listing (useful when
    code is followed by data).
    """
    lines: List[str] = []
    for offset in range(0, len(image) - len(image) % 4, 4):
        word = int.from_bytes(image[offset : offset + 4], "little")
        addr = base + offset
        try:
            text = disassemble_word(word, pc=addr)
        except DecodeError:
            if stop_on_error:
                break
            text = f".word {word:#010x}"
        lines.append(f"{addr:#010x}: {word:08x}  {text}")
    return lines
