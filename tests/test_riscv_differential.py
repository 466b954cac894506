"""Differential testing of the ISS against Python reference semantics.

Random (op, operands) pairs execute on the CPU — once per backend —
and against a pure Python model of RV32 two's-complement arithmetic;
any divergence is a decode/execute bug in the interpreter or in the
instruction table the translated backend is generated from.  This is
the ISS's safety net beyond the hand-picked cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv import BACKENDS, MemoryBus, RiscvCpu, assemble

MASK = 0xFFFFFFFF


def _signed(x):
    return x - (1 << 32) if x & 0x80000000 else x


def _ref(op, a, b):
    sa, sb = _signed(a), _signed(b)
    if op == "add":
        return (a + b) & MASK
    if op == "sub":
        return (a - b) & MASK
    if op == "xor":
        return a ^ b
    if op == "or":
        return a | b
    if op == "and":
        return a & b
    if op == "sll":
        return (a << (b & 31)) & MASK
    if op == "srl":
        return a >> (b & 31)
    if op == "sra":
        return (sa >> (b & 31)) & MASK
    if op == "slt":
        return int(sa < sb)
    if op == "sltu":
        return int(a < b)
    if op == "mul":
        return (a * b) & MASK
    if op == "mulh":
        return ((sa * sb) >> 32) & MASK
    if op == "mulhu":
        return ((a * b) >> 32) & MASK
    if op == "mulhsu":
        return ((sa * b) >> 32) & MASK
    if op == "div":
        if b == 0:
            return MASK
        if sa == -(1 << 31) and sb == -1:
            return a
        q = abs(sa) // abs(sb)
        return (-q if (sa < 0) != (sb < 0) else q) & MASK
    if op == "divu":
        return MASK if b == 0 else a // b
    if op == "rem":
        if b == 0:
            return a
        if sa == -(1 << 31) and sb == -1:
            return 0
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & MASK
    if op == "remu":
        return a if b == 0 else a % b
    raise AssertionError(op)


def _run(source, backend, data=b""):
    """Run ``source`` (with ``data`` at 0x800) to its ebreak."""
    bus = MemoryBus()
    bus.add_ram(0, 4096)
    bus.load_blob(0, assemble(source).image)
    bus.load_blob(0x800, data)
    cpu = RiscvCpu(bus, backend=backend)
    cpu.run()
    return cpu


def _execute(op, a, b, backend):
    source = f"""
        li a0, {a}
        li a1, {b}
        {op} a2, a0, a1
        ebreak
    """
    return _run(source, backend).read_reg(12)


ALL_OPS = [
    "add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu",
    "mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu",
]

_words = st.one_of(
    st.integers(min_value=0, max_value=MASK),
    st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE]),
)


backends = pytest.mark.parametrize("backend", BACKENDS)

#: operands on both sides of the signed and the unsigned boundary
BOUNDARY = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]


# The three property tests check both backends on every draw (rather
# than being parametrized) so their test ids stay what they were.

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_OPS), _words, _words)
def test_alu_matches_reference(op, a, b):
    for backend in BACKENDS:
        assert _execute(op, a, b, backend) == _ref(op, a, b), backend


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["addi", "xori", "ori", "andi", "slti", "sltiu"]),
    _words,
    st.integers(min_value=-2048, max_value=2047),
)
def test_imm_ops_match_reference(op, a, imm):
    source = f"""
        li a0, {a}
        {op} a2, a0, {imm}
        ebreak
    """
    base = {"addi": "add", "xori": "xor", "ori": "or", "andi": "and",
            "slti": "slt", "sltiu": "sltu"}[op]
    for backend in BACKENDS:
        assert _run(source, backend).read_reg(12) == _ref(base, a, imm & MASK), backend


@settings(max_examples=60, deadline=None)
@given(_words, st.integers(min_value=0, max_value=31),
       st.sampled_from(["slli", "srli", "srai"]))
def test_shift_imm_match_reference(a, shamt, op):
    source = f"""
        li a0, {a}
        {op} a2, a0, {shamt}
        ebreak
    """
    base = {"slli": "sll", "srli": "srl", "srai": "sra"}[op]
    for backend in BACKENDS:
        assert _run(source, backend).read_reg(12) == _ref(base, a, shamt), backend


_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


@backends
@pytest.mark.parametrize("op", sorted(_TAKEN))
def test_branches_at_the_boundaries(backend, op):
    for a in BOUNDARY:
        for b in BOUNDARY:
            source = f"""
                li a0, {a}
                li a1, {b}
                li a2, 1
                {op} a0, a1, taken
                li a2, 0
            taken:
                ebreak
            """
            cpu = _run(source, backend)
            assert cpu.read_reg(12) == int(_TAKEN[op](a, b)), (op, hex(a), hex(b))
            # li is two words, and taken skips one li
            assert cpu.instret == (8 if cpu.read_reg(12) else 10)


@backends
@pytest.mark.parametrize("op,nbytes,signed", [
    ("lb", 1, True), ("lh", 2, True), ("lw", 4, False), ("lbu", 1, False), ("lhu", 2, False),
])
def test_load_extension(backend, op, nbytes, signed):
    for value in (0x00, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF, 0x80000000, MASK):
        source = f"""
            li a0, 0x800
            {op} a1, 0(a0)
            {op} zero, 0(a0)
            ebreak
        """
        cpu = _run(source, backend, data=value.to_bytes(4, "little"))
        raw = value & ((1 << 8 * nbytes) - 1)
        if signed and raw >> (8 * nbytes - 1):
            raw -= 1 << 8 * nbytes
        assert cpu.read_reg(11) == raw & MASK, (op, hex(value))
        assert cpu.read_reg(0) == 0


@backends
def test_upper_immediates_and_links(backend):
    # rd == x0 forms are the ones the translator turns into no-ops
    cpu = _run("""
        lui a0, 0xFFFFF
        lui zero, 0xFFFFF
        auipc a1, 0x80000
        auipc zero, 1
        jal a2, over
        ebreak
    over:
        jal zero, next
        ebreak
    next:
        li a3, 0x100
        jalr a4, 9(a3)
    .org 0x108
        jalr zero, 0x10(a3)
    .org 0x110
        mv a5, ra
        ebreak
    """, backend)
    assert cpu.read_reg(10) == 0xFFFFF000
    assert cpu.read_reg(11) == (0x80000000 + 8) & MASK  # pc of the auipc is 8
    assert cpu.read_reg(12) == 0x14  # jal at 0x10 links the next word
    assert cpu.read_reg(14) == 0x2C  # jalr at 0x28; target 0x109 drops bit 0
    assert cpu.read_reg(15) == 0 and cpu.read_reg(0) == 0
    assert cpu.pc == 0x118 and cpu.instret == 12
