"""Property suite for the abstract interpreter (``repro.verify.absint``).

The core soundness claim — every concrete execution stays inside the
inferred abstract state — is checked the only way it can be: generate
hundreds of random (seeded) assembly programs, run each one concretely
on :class:`repro.riscv.RiscvCpu`, and at every retired instruction
assert the concrete register file and every concrete memory address
lie within the intervals the fixpoint computed.  A single containment
failure is an unsoundness bug in the analyzer, not test flakiness.

A second property runs one instruction at a time: for every pure row
of the instruction table, a concrete ``a``/``b`` drawn inside plain
intervals (or the row's immediate) folds, through the row's own
expression, to a value inside what the row's interval transfer gives.

Regression tests pin the mechanisms individually: widening on a
long-trip-count loop, induction clamping recovering the counter bound,
infeasible-edge pruning tightening the WCET, and an intentional
out-of-range store producing a memory-safety violation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.funcsim import DMEM_BASE
from repro.riscv import CycleModel, MemoryBus, RiscvCpu, assemble, sign_extend
from repro.riscv.isa import IMM_RANGES, OPS, PURE_KINDS, Instruction
from repro.verify import analyze_firmware, analyze_wcet
from repro.verify.absint import AbsState, MachineEnv, _Transfer, interval

U32 = 0xFFFFFFFF

# registers the generator may clobber with random ops (ABI name, index)
_OP_REGS = [("t0", 5), ("t1", 6), ("t2", 7), ("a0", 10), ("a1", 11),
            ("a2", 12)]
# reserved: s4 = dmem base pointer, s5/s6 = loop counter/bound
_PROGRAMS = 200


def _random_program(rng: random.Random) -> str:
    """A random straight-line-ish program: constant inits, ALU ops,
    dmem loads/stores through s4, forward branches, and optionally one
    counted loop.  Always halts at an ebreak."""
    lines = []
    base_off = 4 * rng.randrange(64)
    lines.append(f"li s4, {DMEM_BASE + base_off}")
    for name, _ in _OP_REGS:
        lines.append(f"li {name}, {rng.randrange(1 << 12)}")

    label_n = 0

    def emit_op():
        kind = rng.randrange(10)
        rd = rng.choice(_OP_REGS)[0]
        ra = rng.choice(_OP_REGS)[0]
        rb = rng.choice(_OP_REGS)[0]
        if kind < 4:
            op = rng.choice(["add", "sub", "and", "or", "xor", "sltu",
                             "slt", "mul", "divu", "remu", "sll", "srl", "sra"])
            lines.append(f"{op} {rd}, {ra}, {rb}")
        elif kind < 7:
            op = rng.choice(["addi", "andi", "ori", "xori", "slli", "srli",
                             "srai", "slti", "sltiu"])
            if op in ("slli", "srli", "srai"):
                imm = rng.randrange(32)
            elif op in ("addi", "slti", "sltiu"):
                imm = rng.randrange(-2048, 2048)
            else:
                imm = rng.randrange(2048)
            lines.append(f"{op} {rd}, {ra}, {imm}")
        elif kind < 9:
            off = 4 * rng.randrange(32)
            if rng.randrange(2):
                lines.append(f"sw {ra}, {off}(s4)")
            else:
                lines.append(f"lw {rd}, {off}(s4)")
        else:
            nonlocal label_n
            label_n += 1
            label = f"skip{label_n}"
            br = rng.choice(["beq", "bne", "blt", "bge", "bltu", "bgeu"])
            lines.append(f"{br} {ra}, {rb}, {label}")
            for _ in range(rng.randrange(1, 3)):
                op = rng.choice(["add", "xor", "addi"])
                if op == "addi":
                    lines.append(f"addi {rd}, {rd}, {rng.randrange(64)}")
                else:
                    lines.append(f"{op} {rd}, {ra}, {rb}")
            lines.append(f"{label}:")

    for _ in range(rng.randrange(6, 14)):
        emit_op()

    if rng.randrange(2):
        trips = rng.randrange(1, 9)
        lines.append("li s5, 0")
        lines.append(f"li s6, {trips}")
        lines.append("loopz:")
        for _ in range(rng.randrange(1, 4)):
            emit_op()
        lines.append("addi s5, s5, 1")
        lines.append("blt s5, s6, loopz")

    lines.append("ebreak")
    return "\n".join(lines)


def _contains(val, concrete: int) -> bool:
    """Concrete u32 value within the abstract interval (the interval
    may be kept in signed form after a wrap — accept either view)."""
    return (val.lo <= concrete <= val.hi
            or val.lo <= concrete - (1 << 32) <= val.hi)


def _check_containment(asm: str, seed: int) -> int:
    """Run ``asm`` concretely, asserting per-step interval containment.
    Returns the number of instructions checked."""
    _, absres, _, safety = analyze_firmware(asm, name=f"prop{seed}")
    assert not absres.incomplete, f"seed {seed}: analysis incomplete"
    assert safety.violations == 0, (
        f"seed {seed}: spurious violation: "
        + "; ".join(d.format() for d in safety.diagnostics)
    )

    bus = MemoryBus()
    bus.add_ram(0, 0x20000)  # imem + the dmem window the generator uses
    program = assemble(asm)
    bus.load_blob(0, program.image)
    cpu = RiscvCpu(bus)

    checked = 0
    for _ in range(20000):
        pc = cpu.pc
        inst = cpu.fetch_decode(pc)
        if inst.mnemonic == "ebreak":
            break
        state = absres.state_before(pc)
        assert state is not None, f"seed {seed}: no state at {pc:#x}"
        for idx in range(1, 32):
            v = state.regs[idx]
            if v.is_plain:
                assert _contains(v, cpu.read_reg(idx)), (
                    f"seed {seed} pc {pc:#x}: x{idx}={cpu.read_reg(idx)} "
                    f"outside {v.describe()}"
                )
        acc = next((a for a in absres.accesses if a.pc == pc), None)
        if acc is not None and acc.addr.is_plain:
            concrete = (cpu.read_reg(inst.rs1) + inst.imm) & U32
            assert _contains(acc.addr, concrete), (
                f"seed {seed} pc {pc:#x}: addr {concrete:#x} outside "
                f"{acc.addr.describe()}"
            )
        cpu.step()
        checked += 1
    else:
        pytest.fail(f"seed {seed}: program did not halt")
    return checked


class TestRandomProgramContainment:
    """The headline property: abstract over-approximates concrete."""

    @pytest.mark.parametrize("chunk", range(10))
    def test_concrete_execution_stays_inside_abstract_state(self, chunk):
        # 200 programs, chunked so a failure names a narrow seed range
        per_chunk = _PROGRAMS // 10
        total = 0
        for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
            rng = random.Random(1_000_003 + seed)
            asm = _random_program(rng)
            total += _check_containment(asm, seed)
        assert total > 0


@st.composite
def _operand(draw):
    """A plain interval and a concrete value inside it."""
    lo, hi = sorted((draw(st.integers(0, U32)), draw(st.integers(0, U32))))
    return interval(lo, hi), draw(st.integers(lo, hi))


@st.composite
def _immediate(draw, op):
    """An immediate in the row's encodable range, as ``Instruction.imm``."""
    if op.fmt == "U":  # the 20-bit operand; imm is the value it loads
        lo, hi, _ = IMM_RANGES["U"]
        return sign_extend((draw(st.integers(lo, hi)) << 12) & U32, 32)
    lo, hi, _ = IMM_RANGES["shamt" if op.fmt == "SH" else op.fmt]
    return draw(st.integers(lo, hi))


class TestTransferContainsFold:
    """Each pure row's interval transfer over-approximates its ``expr``."""

    @pytest.mark.parametrize(
        "mnemonic", sorted(m for m, op in OPS.items() if op.kind in PURE_KINDS)
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fold_lies_inside_the_transfer(self, mnemonic, data):
        op = OPS[mnemonic]
        state = AbsState.reset()
        state.regs[5], a = data.draw(_operand())
        if op.kind == "alu-rr":
            state.regs[6], b = data.draw(_operand())
            imm = 0
        else:
            imm = data.draw(_immediate(op))
            b = imm & U32
        pc = 0x100
        _Transfer(MachineEnv()).step(Instruction(mnemonic, rd=7, rs1=5, rs2=6, imm=imm), pc, state)
        result = state.regs[7]
        value = op.fold(0 if op.kind == "upper" else a, b, pc)
        assert result.is_plain and result.lo <= value <= result.hi, (
            f"{mnemonic}: a={a:#x} b={b:#x} gives {value:#x}, outside {result.describe()}"
        )


class TestWidening:
    def test_long_loop_widens_then_clamps(self):
        asm = """
        li t0, 0
        li t1, 0
        li t2, 2000
        loopz:
        addi t1, t1, 3
        addi t0, t0, 1
        blt t0, t2, loopz
        ebreak
        """
        cfg, absres, _, _ = analyze_firmware(asm, name="widen")
        assert not absres.incomplete
        # the 2000-trip loop must have triggered widening (WIDEN_AFTER
        # is far below 2000 joins) ...
        assert absres.widened, "no block widened on a 2000-trip loop"
        # ... and induction analysis still recovers the exact bound
        header = cfg.program.symbols["loopz"]
        assert absres.loop_bounds is not None
        assert absres.loop_bounds.bounds[header].bound == 2000
        # the header clamp, met in the same fixpoint, keeps the counter
        # interval finite and tight
        state = absres.state_before(header)
        assert state is not None
        counter = state.regs[5]  # t0
        assert counter.is_plain
        assert 0 <= counter.lo and counter.hi <= 2000

    def test_widened_interval_still_contains_concrete(self):
        asm = """
        li t0, 0
        li t1, 0
        li t2, 500
        loopz:
        addi t1, t1, 7
        addi t0, t0, 1
        blt t0, t2, loopz
        ebreak
        """
        _check_containment(asm, seed=-1)

    def test_a_register_stepping_below_zero_is_not_clamped(self):
        # a2 wraps to 0xffffffff on the first iteration: the clamp
        # 0 - 1*[0, 3] leaves the unsigned range, so it must not apply
        asm = """
        li s5, 0
        li s6, 3
        li a2, 0
        loopz:
        addi a2, a2, -1
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        _check_containment(asm, seed=-4)


class TestClampGrowsWithTheFixpoint:
    """A header's clamp is derived from partial states, so it must be
    re-derived as they grow, and a header whose clamp grew must be
    re-joined: a clamp frozen at its first non-empty value, or one that
    re-queues nothing when it moves, excludes concrete values."""

    def test_second_entry_with_a_larger_start(self):
        # the worklist reaches the loop from the short path (start 3)
        # and clamps it before the longer path (start 10, the one run:
        # the dmem word is 0) arrives
        asm = f"""
        li s4, {DMEM_BASE}
        lw t0, 0(s4)
        li s5, 3
        bnez t0, loopz
        li s5, 10
        bnez t0, longer
        longer:
        bnez t0, loopz
        loopz:
        addi s5, s5, -1
        bnez s5, loopz
        ebreak
        """
        _check_containment(asm, seed=-2)

    def test_late_entry_inside_the_settled_header_state(self):
        # the loop settles (a2 clamped to [0, 12]) before the long path
        # (a2 = 5, the one run: both dmem words are 0) arrives; 5 changes
        # no header interval, only the clamp (now [0, 17]), so the loop
        # must be re-queued for a2 to reach 14
        hops = "\n".join(f"bne t0, t1, hop{i}\nhop{i}:" for i in range(8))
        asm = f"""
        li s4, {DMEM_BASE}
        lw t0, 0(s4)
        lw t1, 4(s4)
        li s5, 0
        li s6, 4
        li a2, 0
        bne t0, t1, loopz
        li a2, 5
        {hops}
        loopz:
        addi a2, a2, 3
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        _check_containment(asm, seed=-5)

    def test_inner_start_follows_the_outer_counter(self):
        # the inner walk t3 starts at the outer counter, so its first
        # clamp (t3 = 0 on entry: [0, 6]) is too tight for later entries
        asm = """
        li s2, 0
        li s3, 4
        outer:
        mv t3, s2
        li s4, 0
        li s5, 3
        inner:
        addi t3, t3, 2
        addi s4, s4, 1
        blt s4, s5, inner
        addi s2, s2, 1
        blt s2, s3, outer
        ebreak
        """
        _check_containment(asm, seed=-3)


class TestInfeasibleEdges:
    ASM = """
    li t1, 3
    li t2, 10
    li s5, 0
    li s6, 4
    loopz:
    blt t1, t2, fast
    mul a0, a0, a0
    mul a0, a0, a0
    mul a0, a0, a0
    mul a0, a0, a0
    fast:
    addi s5, s5, 1
    blt s5, s6, loopz
    ebreak
    """

    def test_always_taken_branch_prunes_the_expensive_path(self):
        cfg, absres, pruned, _ = analyze_firmware(self.ASM, name="prune")
        # 3 < 10 is a constant fact: the fall-through edge is infeasible
        assert absres.infeasible_edges
        loose = analyze_wcet(cfg, absres, infeasible=set())
        assert pruned.wcet_cycles < loose.wcet_cycles
        # both still use the inferred trip count, so the gap is purely
        # the pruned mul chain
        assert pruned.loop_bounds == {"loopz": 4}
        assert pruned.bound_provenance == {"loopz": "inferred"}

    @pytest.mark.parametrize("value, dead", [(-5, "taken"), (5, "fall-through")])
    def test_signed_branch_on_a_negative_constant_prunes(self, value, dead):
        # bgez is bge t0, zero: a signed compare whose operand sits above
        # 2^31 unsigned when negative; the sign flip refines both halves
        asm = f"li t0, {value}\nbgez t0, pos\naddi a0, a0, 1\npos:\nebreak\n"
        cfg, absres, _, _ = analyze_firmware(asm, name="signed")
        block = next(b for b in cfg.blocks.values() if b.taken is not None)
        taken = (block.start, block.taken)
        assert len(absres.infeasible_edges) == 1
        assert (taken in absres.infeasible_edges) == (dead == "taken")

    def test_branch_to_its_own_fall_through_decides_nothing(self):
        # both outcomes land on `next`: the one edge is never pruned (3 != 10
        # would refute the taken case) and always pays the taken cost
        asm = "li t0, 3\nli t1, 10\nbeq t0, t1, next\nnext:\nebreak\n"
        _, absres, branchy, _ = analyze_firmware(asm, name="degenerate")
        assert not absres.infeasible_edges
        plain = analyze_firmware(asm.replace("beq t0, t1, next", ""), name="plain").wcet
        taken = CycleModel.vexriscv_full().branch_taken_cost
        assert branchy.wcet_cycles - plain.wcet_cycles == taken


class TestIntentionalViolation:
    def test_store_outside_every_region_is_a_violation(self):
        asm = """
        li t0, 0x05000000
        li t1, 7
        sw t1, 0(t0)
        ebreak
        """
        safety = analyze_firmware(asm, name="oob").safety
        assert safety.violations == 1
        assert not safety.passed
        codes = [d.code for d in safety.diagnostics]
        assert "memsafe-violation" in codes
        bad = next(c for c in safety.checks if c.verdict == "violation")
        assert bad.kind == "store"
        assert "no declared region" in bad.detail

    def test_store_into_imem_is_a_violation(self):
        asm = """
        li t0, 16
        sw t0, 0(t0)
        ebreak
        """
        safety = analyze_firmware(asm, name="selfmod").safety
        assert safety.violations == 1
        bad = next(c for c in safety.checks if c.verdict == "violation")
        assert bad.region == "imem"
