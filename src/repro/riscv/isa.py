"""RV32IM as one table: a row per mnemonic, everything else derived.

Covers the full RV32I base set plus the M extension (MUL/DIV family),
which is what the VexRiscv configuration used in Rosebud provides, plus
the handful of Zicsr instructions the firmware runtime needs for the
timer/interrupt machinery.

:data:`OPS` is the single source of truth for what an instruction *is*:
its encoding, assembly operand shape, cost class, kind, block-ending
behaviour, access width, branch relation, ALU operation, and its
concrete value or condition as one Python expression.  The decoder and
encoder here, the assembler, the disassembler, the block-boundary rules,
the closure translator's templates, the constant folding of both static
analyzers and the abstract interpreter's interval transfers (one per ALU
operation) read the rows; none keeps a per-mnemonic table of its own.
The one deliberate second copy is the interpreter
(``RiscvCpu._execute``), the hand-written reference the differential
suites compare the table against.

``python -m repro.riscv.isa`` prints ``docs/ISA.md`` from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional, Tuple


class DecodeError(ValueError):
    """Raised for unrecognized or malformed encodings."""


def sign_extend(value: int, bits: int) -> int:
    mask = 1 << (bits - 1)
    return (value & (mask - 1)) - (value & mask)


MASK32 = 0xFFFFFFFF

# Cycle-cost classes, assigned at decode time so the retire path never
# has to compare mnemonic strings (the CycleModel keeps a small table
# indexed by these).
CC_SIMPLE = 0
CC_BRANCH = 1
CC_JUMP = 2
CC_LOAD = 3
CC_MUL = 4
CC_DIV = 5
CC_CSR = 6
N_COST_CLASSES = 7

_COST_NAMES = ("simple", "branch", "jump", "load", "mul", "div", "csr")

# opcode constants
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_REG = 0b0110011
OP_FENCE = 0b0001111
OP_SYSTEM = 0b1110011


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: Names a row expression may use besides its operands: ``M`` masks to
#: 32 bits, ``SIGN`` is the sign bit (``x ^ SIGN`` maps two's-complement
#: order onto unsigned order, so signed compares need no conversion),
#: ``s(x)`` is the signed view of an unsigned 32-bit value.
EXPR_GLOBALS = {
    "M": MASK32,
    "SIGN": 0x80000000,
    "s": lambda x: x - (1 << 32) if x & 0x80000000 else x,
}


@dataclass(frozen=True)
class Op:
    """One row of the instruction table.

    ``expr`` is written over ``a`` (the unsigned value of ``rs1``),
    ``b`` (the value of ``rs2``, or the immediate as an unsigned 32-bit
    value for rows without an ``rs2`` operand) and ``pc``.  It gives the
    value written to ``rd`` (ALU and upper rows), the taken condition
    (branches) or the target (jumps).  Load rows extend the raw bus
    value ``v``, CSR rows give the CSR's new value from ``old`` and
    ``b``, and system rows carry a prose description that is never
    compiled.
    """

    mnemonic: str
    kind: str  # alu-rr alu-imm shift-imm upper load store branch jump csr system
    fmt: str  # immediate layout: R I S B U J, SH (shift amount), CSR, - (none)
    match: int  # the fixed bits: opcode, funct3, funct7 / funct12
    mask: int  # which bits of a word ``match`` constrains
    operands: Tuple[str, ...]  # assembly operand shape
    cost: int  # cost class (CC_*)
    terminal: bool  # ends a superblock / basic block
    expr: str = ""
    nbytes: int = 0  # memory access width
    signed: bool = False  # sign-extending load / signed compare
    relation: str = ""  # branch relation over (rs1, rs2): eq ne lt ge
    alu: str = ""  # ALU operation, shared by a register row and its immediate form

    @cached_property
    def fold(self) -> Callable[..., int]:
        """``fold(a, b, pc=0)``: the row expression on concrete values."""
        return eval(f"lambda a, b, pc=0: {self.expr}", EXPR_GLOBALS)

    @property
    def syntax(self) -> str:
        """Assembly syntax, e.g. ``lw rd, imm(rs1)``."""
        shown = {"mem": "imm(rs1)", "target": "label"}
        operands = ", ".join(shown.get(o, o) for o in self.operands)
        return f"{self.mnemonic} {operands}".strip()


#: Kinds whose only effect is ``rd = expr``: their ``rd == x0`` forms
#: are architectural no-ops and their results fold at analysis time.
PURE_KINDS = frozenset({"alu-rr", "alu-imm", "shift-imm", "upper"})

#: kind -> (fmt, opcode, operand shape, cost class, ends a block);
#: ``None`` where every row of the kind supplies its own.
_KINDS = {
    "alu-rr": ("R", OP_REG, ("rd", "rs1", "rs2"), CC_SIMPLE, False),
    "alu-imm": ("I", OP_IMM, ("rd", "rs1", "imm"), CC_SIMPLE, False),
    "shift-imm": ("SH", OP_IMM, ("rd", "rs1", "shamt"), CC_SIMPLE, False),
    "upper": ("U", None, ("rd", "imm20"), CC_SIMPLE, False),
    "load": ("I", OP_LOAD, ("rd", "mem"), CC_LOAD, False),
    "store": ("S", OP_STORE, ("rs2", "mem"), CC_SIMPLE, False),
    "branch": ("B", OP_BRANCH, ("rs1", "rs2", "target"), CC_BRANCH, True),
    "jump": (None, None, None, CC_JUMP, True),
    "csr": ("CSR", OP_SYSTEM, ("rd", "csr", "rs1"), CC_CSR, True),
    "system": ("-", OP_SYSTEM, (), CC_SIMPLE, True),
}


def _row(mnemonic, kind, funct3=None, funct7=None, expr="", *, funct12=None, **over) -> Op:
    fmt, opcode, operands, cost, terminal = _KINDS[kind]
    spec = dict(fmt=fmt, opcode=opcode, operands=operands, cost=cost, terminal=terminal)
    spec.update(over)
    match, mask = spec.pop("opcode"), 0x7F
    for value, shift, bits in ((funct3, 12, 0x7), (funct7, 25, 0x7F), (funct12, 20, 0xFFF)):
        if value is not None:
            match |= value << shift
            mask |= bits << shift
    return Op(mnemonic, kind, match=match, mask=mask, expr=expr, **spec)


_COMPARE = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">="}


def _compare(relation: str, signed: bool) -> str:
    lhs, rhs = ("(a ^ SIGN)", "(b ^ SIGN)") if signed else ("a", "b")
    return f"{lhs} {_COMPARE[relation]} {rhs}"


def _branch(mnemonic, funct3, relation, signed=False) -> Op:
    return _row(mnemonic, "branch", funct3, expr=_compare(relation, signed),
                relation=relation, signed=signed)


def _load(mnemonic, funct3, nbytes, signed=False) -> Op:
    top = 1 << (8 * nbytes - 1)
    expr = f"((v & {top - 1:#x}) - (v & {top:#x})) & M" if signed else f"v & {2 * top - 1:#x}"
    return _row(mnemonic, "load", funct3, expr=expr, nbytes=nbytes, signed=signed)


_SLT = f"1 if {_compare('lt', True)} else 0"
_SLTU = f"1 if {_compare('lt', False)} else 0"
_ZIMM = ("rd", "csr", "zimm")

#: mnemonic -> row.  Encodings follow the RISC-V unprivileged spec
#: (RV32I, M, Zicsr) and the privileged spec (``mret``, ``wfi``).
OPS: Dict[str, Op] = {op.mnemonic: op for op in (
    _row("lui", "upper", expr="b", opcode=OP_LUI),
    _row("auipc", "upper", expr="(pc + b) & M", opcode=OP_AUIPC),
    _row("jal", "jump", expr="(pc + b) & M",
         fmt="J", opcode=OP_JAL, operands=("rd", "target")),
    _row("jalr", "jump", 0b000, expr="(a + b) & 0xFFFFFFFE",
         fmt="I", opcode=OP_JALR, operands=("rd", "mem")),
    _branch("beq", 0b000, "eq"),
    _branch("bne", 0b001, "ne"),
    _branch("blt", 0b100, "lt", signed=True),
    _branch("bge", 0b101, "ge", signed=True),
    _branch("bltu", 0b110, "lt"),
    _branch("bgeu", 0b111, "ge"),
    _load("lb", 0b000, 1, signed=True),
    _load("lh", 0b001, 2, signed=True),
    _load("lw", 0b010, 4),
    _load("lbu", 0b100, 1),
    _load("lhu", 0b101, 2),
    _row("sb", "store", 0b000, nbytes=1),
    _row("sh", "store", 0b001, nbytes=2),
    _row("sw", "store", 0b010, nbytes=4),
    _row("addi", "alu-imm", 0b000, expr="(a + b) & M", alu="add"),
    _row("slti", "alu-imm", 0b010, expr=_SLT, alu="slt"),
    _row("sltiu", "alu-imm", 0b011, expr=_SLTU, alu="sltu"),
    _row("xori", "alu-imm", 0b100, expr="a ^ b", alu="xor"),
    _row("ori", "alu-imm", 0b110, expr="a | b", alu="or"),
    _row("andi", "alu-imm", 0b111, expr="a & b", alu="and"),
    _row("slli", "shift-imm", 0b001, 0b0000000, "(a << b) & M", alu="sll"),
    _row("srli", "shift-imm", 0b101, 0b0000000, "a >> b", alu="srl"),
    _row("srai", "shift-imm", 0b101, 0b0100000, "(s(a) >> b) & M", alu="sra"),
    _row("add", "alu-rr", 0b000, 0b0000000, "(a + b) & M", alu="add"),
    _row("sub", "alu-rr", 0b000, 0b0100000, "(a - b) & M", alu="sub"),
    _row("sll", "alu-rr", 0b001, 0b0000000, "(a << (b & 31)) & M", alu="sll"),
    _row("slt", "alu-rr", 0b010, 0b0000000, _SLT, alu="slt"),
    _row("sltu", "alu-rr", 0b011, 0b0000000, _SLTU, alu="sltu"),
    _row("xor", "alu-rr", 0b100, 0b0000000, "a ^ b", alu="xor"),
    _row("srl", "alu-rr", 0b101, 0b0000000, "a >> (b & 31)", alu="srl"),
    _row("sra", "alu-rr", 0b101, 0b0100000, "(s(a) >> (b & 31)) & M", alu="sra"),
    _row("or", "alu-rr", 0b110, 0b0000000, "a | b", alu="or"),
    _row("and", "alu-rr", 0b111, 0b0000000, "a & b", alu="and"),
    _row("mul", "alu-rr", 0b000, 0b0000001, "(a * b) & M", cost=CC_MUL, alu="mul"),
    _row("mulh", "alu-rr", 0b001, 0b0000001, "((s(a) * s(b)) >> 32) & M", cost=CC_MUL, alu="mulh"),
    _row("mulhsu", "alu-rr", 0b010, 0b0000001, "((s(a) * b) >> 32) & M", cost=CC_MUL, alu="mulhsu"),
    _row("mulhu", "alu-rr", 0b011, 0b0000001, "(a * b) >> 32", cost=CC_MUL, alu="mulhu"),
    # truncating division on magnitudes; -2^31 / -1 wraps to -2^31 by the mask
    _row("div", "alu-rr", 0b100, 0b0000001,
         "M if b == 0 else (abs(s(a)) // abs(s(b)) * (-1 if (a ^ b) & SIGN else 1)) & M",
         cost=CC_DIV, alu="div"),
    _row("divu", "alu-rr", 0b101, 0b0000001, "M if b == 0 else a // b", cost=CC_DIV, alu="divu"),
    _row("rem", "alu-rr", 0b110, 0b0000001,
         "a if b == 0 else (abs(s(a)) % abs(s(b)) * (-1 if a & SIGN else 1)) & M",
         cost=CC_DIV, alu="rem"),
    _row("remu", "alu-rr", 0b111, 0b0000001, "a if b == 0 else a % b", cost=CC_DIV, alu="remu"),
    _row("fence", "system", expr="no-op (one in-order core)",
         opcode=OP_FENCE, terminal=False),
    _row("ecall", "system", 0b000, funct12=0x000, expr="run the host ecall handler, or halt"),
    _row("ebreak", "system", 0b000, funct12=0x001, expr="halt the core"),
    _row("mret", "system", 0b000, funct12=0x302, cost=CC_JUMP,
         expr="pc = mepc; mstatus.MIE = mstatus.MPIE; mstatus.MPIE = 1"),
    _row("wfi", "system", 0b000, funct12=0x105, expr="idle until an interrupt is raised"),
    _row("csrrw", "csr", 0b001, expr="b"),
    _row("csrrs", "csr", 0b010, expr="old | b"),
    _row("csrrc", "csr", 0b011, expr="old & ~b"),
    _row("csrrwi", "csr", 0b101, expr="b", operands=_ZIMM),
    _row("csrrsi", "csr", 0b110, expr="old | b", operands=_ZIMM),
    _row("csrrci", "csr", 0b111, expr="old & ~b", operands=_ZIMM),
)}

# -- views of the table -------------------------------------------------------

#: Access width per memory mnemonic.
LOAD_BYTES: Dict[str, int] = {m: op.nbytes for m, op in OPS.items() if op.kind == "load"}
STORE_BYTES: Dict[str, int] = {m: op.nbytes for m, op in OPS.items() if op.kind == "store"}

#: Conditional branch -> (relation on (rs1, rs2), signed compare).
#: Relations are over rs1 relative to rs2: e.g. ``blt`` takes when
#: ``rs1 < rs2``.
BRANCH_RELATIONS: Dict[str, Tuple[str, bool]] = {
    m: (op.relation, op.signed) for m, op in OPS.items() if op.kind == "branch"
}

#: Negation of a branch relation (the not-taken edge's constraint).
NEGATED_RELATION: Dict[str, str] = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt"}


def writes_rd(mnemonic: str, rd: int) -> bool:
    """True when the instruction defines ``rd`` (x0 writes are no-ops).

    ``csrrs``/``csrrc`` with ``rs1 == x0`` are pure CSR reads but still
    write ``rd``, so they count; use :func:`writes_csr` for the CSR
    side.
    """
    return rd != 0 and "rd" in OPS[mnemonic].operands


@lru_cache(maxsize=None)
def reads_regs(mnemonic: str, rs1: int, rs2: int) -> Tuple[int, ...]:
    """The registers the instruction reads, x0 (constant zero) excluded.

    A ``mem`` operand (``imm(rs1)``) reads its base register; the
    ``zimm`` CSR forms keep an immediate in the rs1 field and read none.
    """
    operands = OPS[mnemonic].operands
    uses = (("rs1" in operands or "mem" in operands, rs1), ("rs2" in operands, rs2))
    return tuple(r for used, r in uses if used and r)


def writes_csr(inst: "Instruction") -> bool:
    """True when a ``csr*`` instruction modifies its CSR (the set/clear
    forms with a zero mask are architecturally reads)."""
    op = OPS[inst.mnemonic]
    # rs1 is the register index, or the uimm for the *i forms; only the
    # csrrw forms (new value ``b``, whatever it is) write with a zero one
    return op.kind == "csr" and (op.expr == "b" or inst.rs1 != 0)


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction: mnemonic + register/immediate fields.

    ``cost_class`` is derived from the mnemonic on construction; the
    cycle models index their cost tables with it instead of scanning
    mnemonic strings on every retire.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    raw: int = 0
    cost_class: int = CC_SIMPLE

    def __post_init__(self) -> None:
        op = OPS.get(self.mnemonic)
        object.__setattr__(self, "cost_class", op.cost if op else CC_SIMPLE)


def constant_result(
    inst: Instruction, pc: int, a: Optional[int], b: Optional[int]
) -> Optional[int]:
    """The value ``inst`` at ``pc`` writes to ``rd`` when ``rs1``/``rs2``
    hold the known values ``a``/``b`` (``None`` = unknown), or ``None``
    when that does not determine it (loads, CSR reads)."""
    op = OPS[inst.mnemonic]
    if op.kind == "jump":
        return (pc + 4) & MASK32  # the link register
    if op.kind not in PURE_KINDS:
        return None
    if op.kind != "alu-rr":
        b = inst.imm & MASK32
    if op.kind == "upper":
        a = 0
    if a is None or b is None:
        return None
    return op.fold(a, b, pc)


# ---------------------------------------------------------------------------
# Decoder and encoder
# ---------------------------------------------------------------------------

#: fmt -> register fields an encoding of that format carries
_FORMAT_REGS = {
    "R": ("rd", "rs1", "rs2"), "I": ("rd", "rs1"), "S": ("rs1", "rs2"),
    "B": ("rs1", "rs2"), "U": ("rd",), "J": ("rd",),
    "SH": ("rd", "rs1"), "CSR": ("rd", "rs1"), "-": (),
}

#: fmt -> (immediate width, ((word bit, immediate bit, run length), ...)):
#: where each run of immediate bits sits in the word.
_IMM_LAYOUT = {
    "I": (12, ((20, 0, 12),)),
    "S": (12, ((25, 5, 7), (7, 0, 5))),
    "B": (13, ((31, 12, 1), (7, 11, 1), (25, 5, 6), (8, 1, 4))),
    "U": (32, ((12, 12, 20),)),
    "J": (21, ((31, 20, 1), (12, 12, 8), (20, 11, 1), (21, 1, 10))),
}

#: What the encoder accepts, (lowest, highest, step): immediates by
#: format, then the operand kinds that live in a register or CSR field.
#: ``U`` bounds the 20-bit operand of ``lui``/``auipc``; both its signed
#: and its unsigned reading are accepted (``lui a1, -1``, ``%hi()``).
IMM_RANGES: Dict[str, Tuple[int, int, int]] = {
    "I": (-2048, 2047, 1),
    "S": (-2048, 2047, 1),
    "B": (-4096, 4094, 2),
    "U": (-0x80000, 0xFFFFF, 1),
    "J": (-(1 << 20), (1 << 20) - 2, 2),
    "shamt": (0, 31, 1),
    "zimm": (0, 31, 1),
    "csr": (0, 0xFFF, 1),
}

_BY_OPCODE: Dict[int, list] = {}
for _op in OPS.values():
    _BY_OPCODE.setdefault(_op.match & 0x7F, []).append(_op)


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word into an :class:`Instruction`."""
    for op in _BY_OPCODE.get(word & 0x7F, ()):
        if word & op.mask == op.match:
            break
    else:
        raise DecodeError(f"word {word:#010x} matches no RV32IM encoding")
    regs = _FORMAT_REGS[op.fmt]
    imm = 0
    if op.fmt in _IMM_LAYOUT:
        width, runs = _IMM_LAYOUT[op.fmt]
        imm = sign_extend(
            sum(((word >> at) & ((1 << n) - 1)) << bit for at, bit, n in runs), width
        )
    elif op.fmt == "SH":
        imm = (word >> 20) & 0x1F
    return Instruction(
        op.mnemonic,
        rd=(word >> 7) & 0x1F if "rd" in regs else 0,
        rs1=(word >> 15) & 0x1F if "rs1" in regs else 0,
        rs2=(word >> 20) & 0x1F if "rs2" in regs else 0,
        imm=imm,
        csr=(word >> 20) & 0xFFF if op.fmt == "CSR" else 0,
        raw=word,
    )


def check_range(what: str, value: int) -> int:
    lo, hi, step = IMM_RANGES[what]
    if value % step or not lo <= value <= hi:
        raise DecodeError(
            f"{what} operand {value} out of range {lo}..{hi}"
            + (f" or not a multiple of {step}" if step > 1 else "")
        )
    return value


def _pack(fmt: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """The operand bits of a word in format ``fmt`` (range-checked)."""
    for reg in (rd, rs1, rs2):
        if not 0 <= reg <= 31:
            raise DecodeError(f"register x{reg} out of range")
    word = rd << 7 | rs1 << 15 | rs2 << 20
    if fmt in _IMM_LAYOUT:
        # the U operand is the 20-bit field; ``imm`` is the value it loads
        check_range(fmt, imm >> 12 if fmt == "U" else imm)
        word |= sum(((imm >> bit) & ((1 << n) - 1)) << at for at, bit, n in _IMM_LAYOUT[fmt][1])
    return word


def encode(op: Op, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0, csr: int = 0) -> int:
    """The word for table row ``op`` with these :class:`Instruction`
    fields — the inverse of :func:`decode`."""
    fmt = op.fmt
    if fmt == "SH":
        fmt, rs2 = "R", check_range("shamt", imm)
    elif fmt == "CSR":
        fmt, imm = "I", sign_extend(check_range("csr", csr), 12)
    return op.match | _pack(fmt, rd, rs1, rs2, imm)


# ---------------------------------------------------------------------------
# Assembly-level names
# ---------------------------------------------------------------------------

#: Pseudo-instructions that expand to one real instruction:
#: name -> (real mnemonic, the fields its operands bind in order, the
#: fields it fixes).  ``jal``/``jalr`` are the short forms, taken when
#: the operand count does not fit the real shape.  The two-word pseudos
#: (``li``/``la``, ``call``/``tail``) are code in the assembler.
PSEUDO: Dict[str, Tuple[str, Tuple[str, ...], Dict[str, int]]] = {
    "nop": ("addi", (), {"rd": 0, "rs1": 0, "imm": 0}),
    "mv": ("addi", ("rd", "rs1"), {"imm": 0}),
    "not": ("xori", ("rd", "rs1"), {"imm": -1}),
    "neg": ("sub", ("rd", "rs2"), {"rs1": 0}),
    "seqz": ("sltiu", ("rd", "rs1"), {"imm": 1}),
    "snez": ("sltu", ("rd", "rs2"), {"rs1": 0}),
    "j": ("jal", ("target",), {"rd": 0}),
    "jal": ("jal", ("target",), {"rd": 1}),
    "jr": ("jalr", ("rs1",), {"rd": 0, "imm": 0}),
    "jalr": ("jalr", ("rs1",), {"rd": 1, "imm": 0}),
    "ret": ("jalr", (), {"rd": 0, "rs1": 1, "imm": 0}),
    "beqz": ("beq", ("rs1", "target"), {"rs2": 0}),
    "bnez": ("bne", ("rs1", "target"), {"rs2": 0}),
    "bltz": ("blt", ("rs1", "target"), {"rs2": 0}),
    "bgez": ("bge", ("rs1", "target"), {"rs2": 0}),
    "blez": ("bge", ("rs2", "target"), {"rs1": 0}),
    "bgtz": ("blt", ("rs2", "target"), {"rs1": 0}),
    "bgt": ("blt", ("rs2", "rs1", "target"), {}),
    "ble": ("bge", ("rs2", "rs1", "target"), {}),
    "bgtu": ("bltu", ("rs2", "rs1", "target"), {}),
    "bleu": ("bgeu", ("rs2", "rs1", "target"), {}),
    "csrr": ("csrrs", ("rd", "csr"), {"rs1": 0}),
    "csrw": ("csrrw", ("csr", "rs1"), {"rd": 0}),
}

#: CSR names the assembler accepts and the disassembler prints.
CSR_NAMES: Dict[str, int] = {
    "mstatus": 0x300, "mie": 0x304, "mtvec": 0x305, "mscratch": 0x340,
    "mepc": 0x341, "mcause": 0x342, "mtval": 0x343, "mip": 0x344,
    "mcycle": 0xB00, "minstret": 0xB02, "mhartid": 0xF14,
}

#: ABI register-name mapping (x0..x31 aliases).
ABI_NAMES: Dict[str, int] = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7,
    "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
    "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}


def parse_register(name: str) -> int:
    """Parse ``x7``/``a0``-style register names into indices."""
    name = name.strip().lower()
    if name in ABI_NAMES:
        return ABI_NAMES[name]
    if name.startswith("x"):
        try:
            idx = int(name[1:])
        except ValueError as exc:
            raise DecodeError(f"bad register {name!r}") from exc
        if 0 <= idx <= 31:
            return idx
    raise DecodeError(f"bad register {name!r}")


# ---------------------------------------------------------------------------
# docs/ISA.md
# ---------------------------------------------------------------------------

_MEANING = {
    "load": "v = mem{nbytes}[a + imm]; rd = {expr}",
    "store": "mem{nbytes}[a + imm] = b",
    "branch": "if {expr}: pc = pc + imm",
    "jump": "t = {expr}; rd = pc + 4; pc = t",
    "csr": "old = csr; csr = {expr}; rd = old",
    "system": "{expr}",
}

_DOC = """\
# RV32IM instruction set

Generated from the table in `src/repro/riscv/isa.py` by
`python -m repro.riscv.isa`; `make isa-doc-check` fails when this file is
stale.  Edit the table, not this file.

In the meaning column `a` is the unsigned 32-bit value of `rs1`, `b` that
of `rs2` or, for instructions without an `rs2` operand, the immediate as
an unsigned 32-bit value (`imm` is the same immediate, signed).  `M` is
`0xFFFFFFFF`, `SIGN` is `0x80000000`, `s(x)` is the signed view of `x`, and
`(a ^ SIGN) < (b ^ SIGN)` is the signed compare `s(a) < s(b)`.  `memN` is
an N-byte little-endian access.  Writes to `x0` are discarded.
`csrrs`/`csrrc` and their `i` forms leave the CSR unwritten when the `rs1`
field is zero.  The expressions are the ones the translator compiles into
its closures and the static analyzers fold constants with; the interpreter
(`RiscvCpu._execute`) is written out separately as their reference.

The ALU column names the operation a register row shares with its
immediate form (`add` for both `add` and `addi`); the abstract interpreter
keeps one interval transfer per operation.

## Instructions

| Syntax | Kind | Format | opcode | funct3 | funct7/12 | Cost | Ends block | ALU | Meaning |
| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |
{instructions}

## Operand ranges the assembler enforces

An operand outside its range is an `AssemblerError` naming the source line;
nothing is masked silently.  `lui`/`auipc` take the 20-bit operand (`U`) in
either its signed or its unsigned reading.

| Operand | Lowest | Highest | Multiple of |
| --- | --- | --- | --- |
{ranges}

## Pseudo-instructions

| Pseudo | Expansion |
| --- | --- |
{pseudos}
| `li rd, value` / `la rd, symbol` | `lui rd, %hi(value)`; `addi rd, rd, %lo(value)` |
| `call label` | `auipc x1, %hi(offset)`; `jalr x1, %lo(offset)(x1)` |
| `tail label` | `auipc x6, %hi(offset)`; `jalr x0, %lo(offset)(x6)` |

`li`, `la`, `call` and `tail` always take two words, so label addresses do
not depend on operand values.
"""


def isa_markdown() -> str:
    """``docs/ISA.md``, generated from the table."""
    instructions = []
    for op in OPS.values():
        funct3 = f"`{(op.match >> 12) & 0x7:03b}`" if op.mask & 0x7000 else ""
        high = ""
        if op.mask >> 20 == 0xFFF:
            high = f"`{op.match >> 20:012b}`"
        elif op.mask >> 25:
            high = f"`{op.match >> 25:07b}`"
        meaning = _MEANING.get(op.kind, "rd = {expr}").format(expr=op.expr, nbytes=op.nbytes)
        meaning = meaning.replace("|", "\\|")  # a bare | would end the table cell
        instructions.append(
            f"| `{op.syntax}` | {op.kind} | {op.fmt} | `{op.match & 0x7F:07b}` | {funct3} "
            f"| {high} | {_COST_NAMES[op.cost]} | {'yes' if op.terminal else ''} "
            f"| {op.alu} | `{meaning}` |"
        )
    ranges = [
        f"| {f'{what}-format immediate' if what.isupper() else f'`{what}`'} | {lo} | {hi} | {step} |"
        for what, (lo, hi, step) in IMM_RANGES.items()
    ]
    pseudos = []
    for name, (real, bound, fixed) in PSEUDO.items():
        text = {f: "label" if f == "target" else f for f in bound}
        text.update({f: str(v) if f == "imm" else f"x{v}" for f, v in fixed.items()})
        text["mem"] = f"{text.get('imm')}({text.get('rs1')})"
        pseudo = " ".join([name, ", ".join(text[f] for f in bound)]).strip()
        expansion = " ".join([real, ", ".join(text[o] for o in OPS[real].operands)])
        pseudos.append(f"| `{pseudo}` | `{expansion}` |")
    return _DOC.format(
        instructions="\n".join(instructions), ranges="\n".join(ranges), pseudos="\n".join(pseudos)
    )


if __name__ == "__main__":
    print(isa_markdown(), end="")
