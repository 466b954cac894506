"""Property suite for the abstract interpreter (``repro.verify.absint``).

The core soundness claim — every concrete execution stays inside the
inferred abstract state — is checked the only way it can be: generate
hundreds of random (seeded) assembly programs, run each one concretely
on :class:`repro.riscv.RiscvCpu`, and at every retired instruction
assert the concrete register file and every concrete memory address
lie within the intervals the fixpoint computed.  A single containment
failure is an unsoundness bug in the analyzer, not test flakiness.

Regression tests pin the mechanisms individually: widening on a
long-trip-count loop, induction clamping recovering the counter bound,
infeasible-edge pruning tightening the WCET, and an intentional
out-of-range store producing a memory-safety violation.
"""

import random

import pytest

from repro.core.funcsim import DMEM_BASE
from repro.riscv import MemoryBus, RiscvCpu, assemble
from repro.verify import analyze_firmware, analyze_wcet

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
                             "slt", "mul"])
            lines.append(f"{op} {rd}, {ra}, {rb}")
        elif kind < 7:
            op = rng.choice(["addi", "andi", "ori", "xori", "slli", "srli"])
            if op in ("slli", "srli"):
                imm = rng.randrange(32)
            elif op == "addi":
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
        # pass 2's clamp keeps the counter interval finite and tight
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
