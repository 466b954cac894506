"""RV32IM toolchain: bus, decoder, instruction-set simulator, assembler."""

from .assembler import Assembler, AssemblerError, Program, assemble
from .blocks import (
    MAX_BLOCK,
    TERMINAL_MNEMONICS,
    image_decoder,
    is_block_terminal,
)
from .bus import BusError, MemoryBus, MmioRegion, RamRegion
from .cpu import BACKENDS, CycleModel, CpuHalted, RiscvCpu
from .isa import ABI_NAMES, DecodeError, Instruction, decode, parse_register, sign_extend

__all__ = [
    "Assembler",
    "AssemblerError",
    "Program",
    "assemble",
    "MAX_BLOCK",
    "TERMINAL_MNEMONICS",
    "image_decoder",
    "is_block_terminal",
    "BusError",
    "MemoryBus",
    "MmioRegion",
    "RamRegion",
    "BACKENDS",
    "CycleModel",
    "CpuHalted",
    "RiscvCpu",
    "ABI_NAMES",
    "DecodeError",
    "Instruction",
    "decode",
    "parse_register",
    "sign_extend",
]
