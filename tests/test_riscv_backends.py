"""Differential tests: closure-translated backend vs interpreter.

The interpreter (``backend="interp"``) is the reference semantics; the
translated superblock engine must match it bit-for-bit on architectural
state *and* on the cycle/instret counters, including the awkward cases:
self-modifying code, interrupts raised mid-superblock by MMIO handlers,
``max_instructions`` cut-offs inside a block, and cycle-model swaps
after translation has already cached closures.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv import BACKENDS, MemoryBus, RiscvCpu, assemble
from repro.riscv.cpu import CycleModel

SCRATCH = 0x2000  # data region the random programs load/store through
RAM_SIZE = 0x4000


def _build(source, backend, setup=None):
    bus = MemoryBus()
    bus.add_ram(0, RAM_SIZE)
    bus.load_blob(0, assemble(source).image)
    cpu = RiscvCpu(bus, backend=backend)
    if setup is not None:
        setup(cpu, bus)
    return cpu, bus


def _state(cpu, bus):
    return {
        "regs": list(cpu.regs),
        "pc": cpu.pc,
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "halted": cpu.halted,
        "csrs": dict(cpu.csrs),
        "scratch": bus.dump(SCRATCH, 256),
    }


def run_both(source, max_instructions=100_000, setup=None):
    """Run ``source`` under both backends and assert identical state."""
    results = {}
    for backend in ("interp", "translated"):
        cpu, bus = _build(source, backend, setup=setup)
        cpu.run(max_instructions=max_instructions)
        results[backend] = _state(cpu, bus)
    assert results["translated"] == results["interp"]
    return results["interp"]


# -- randomized program equivalence ------------------------------------------

_REGS = ["a0", "a1", "a2", "a3", "a4", "a5"]
_ALU_RR = ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu"]
_ALU_IMM = ["addi", "xori", "ori", "andi", "slti", "sltiu"]
_MDIV = ["mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_MEMOPS = [("lw", "sw", 4), ("lh", "sh", 2), ("lhu", "sh", 2),
           ("lb", "sb", 1), ("lbu", "sb", 1)]

_seed_words = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]),
)


@st.composite
def _programs(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    body = []
    for i in range(n):
        body.append(f"L{i}:")
        kind = draw(st.sampled_from(
            ["alu", "alu", "imm", "imm", "mdiv", "mem", "branch", "csr"]
        ))
        rd = draw(st.sampled_from(_REGS))
        rs1 = draw(st.sampled_from(_REGS))
        rs2 = draw(st.sampled_from(_REGS))
        if kind == "alu":
            op = draw(st.sampled_from(_ALU_RR))
            body.append(f"{op} {rd}, {rs1}, {rs2}")
        elif kind == "imm":
            op = draw(st.sampled_from(_ALU_IMM))
            imm = draw(st.integers(min_value=-2048, max_value=2047))
            body.append(f"{op} {rd}, {rs1}, {imm}")
        elif kind == "mdiv":
            op = draw(st.sampled_from(_MDIV))
            body.append(f"{op} {rd}, {rs1}, {rs2}")
        elif kind == "mem":
            load, store, width = draw(st.sampled_from(_MEMOPS))
            off = draw(st.integers(min_value=0, max_value=63)) * width
            if draw(st.booleans()):
                body.append(f"{store} {rs1}, {off}(s0)")
            else:
                body.append(f"{load} {rd}, {off}(s0)")
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCHES))
            target = draw(st.integers(min_value=i + 1, max_value=n))
            body.append(f"{op} {rs1}, {rs2}, L{target}")
        else:  # csr read mid-block: catches cycle-accounting order skew
            body.append(f"csrrs {rd}, mcycle, x0")
    body.append(f"L{n}:")
    body.append("ebreak")
    seeds = [f"li s0, {SCRATCH}"]
    for reg in _REGS:
        seeds.append(f"li {reg}, {draw(_seed_words)}")
    return "\n".join(seeds + body)


@settings(max_examples=80, deadline=None)
@given(_programs())
def test_random_programs_identical_state(source):
    run_both(source)


# -- M-extension edge cases --------------------------------------------------

@pytest.mark.parametrize("op,a,b", [
    ("div", -(1 << 31), -1),   # signed overflow: quotient wraps
    ("rem", -(1 << 31), -1),   # remainder is 0 by spec
    ("div", 12345, 0),         # div by zero -> all ones
    ("divu", 12345, 0),
    ("rem", 12345, 0),         # rem by zero -> dividend
    ("remu", 12345, 0),
    ("mulh", -(1 << 31), -(1 << 31)),
])
def test_mdiv_edges_identical(op, a, b):
    run_both(f"""
        li a0, {a}
        li a1, {b}
        {op} a2, a0, a1
        ebreak
    """)


# -- cycle counter visibility mid-block --------------------------------------

def test_mcycle_reads_mid_sequence():
    # the translated backend must retire cycles in the same order as the
    # interpreter so mcycle snapshots land on identical values
    state = run_both("""
        addi a0, x0, 5
        csrrs a1, mcycle, x0
        addi a0, a0, 7
        mul  a0, a0, a0
        csrrs a2, mcycle, x0
        ebreak
    """)
    assert state["regs"][12] > state["regs"][11]  # a2 > a1


# -- self-modifying code ------------------------------------------------------

def _word_of(inst_source):
    return int.from_bytes(assemble(inst_source).image[:4], "little")


def test_smc_store_into_own_block():
    # first pass executes 'addi a0, a0, 1', then a store inside the SAME
    # superblock rewrites that word to 'addi a0, a0, 100'; the second
    # pass must execute the patched instruction on both backends
    patch = _word_of("addi a0, a0, 100")
    state = run_both(f"""
        li a0, 0
        li s1, 2
        li t0, {patch}
    loop:
    target:
        addi a0, a0, 1
        sw t0, target(x0)
        addi s1, s1, -1
        bne s1, x0, loop
        ebreak
    """)
    assert state["regs"][10] == 101
    assert state["halted"]


def test_smc_host_patch_between_runs():
    # host-side writes (debugger pokes, loader overlays) go through the
    # same store hooks and must also invalidate translations
    source = """
    top:
        addi a0, a0, 1
        ebreak
    """
    patch = _word_of("addi a0, a0, 50")
    states = {}
    for backend in ("interp", "translated"):
        cpu, bus = _build(source, backend)
        cpu.run()
        first = cpu.read_reg(10)
        bus.write(0, patch, 4)
        cpu.halted = False
        cpu.pc = 0
        cpu.run()
        states[backend] = (first, cpu.read_reg(10), cpu.cycles, cpu.instret)
    assert states["translated"] == states["interp"]
    assert states["interp"][0] == 1
    assert states["interp"][1] == 51


# -- interrupts ---------------------------------------------------------------

_IRQ_SOURCE = """
    la t0, handler
    csrw mtvec, t0
    li t0, 0x10000       # external line 1
    csrw mie, t0
    csrrsi x0, mstatus, 8
    li s0, 0x8000        # MMIO doorbell
    li a0, 0
    addi a0, a0, 1
    addi a0, a0, 2
    sw a0, 0(s0)         # handler-raised interrupt lands mid-superblock
    addi a0, a0, 4
    addi a0, a0, 8
    ebreak
handler:
    addi a5, a5, 1
    li t1, 0x10000
    csrrc x0, mip, t1
    mret
"""


def test_interrupt_raised_mid_block():
    def setup(cpu, bus):
        def on_write(off, value, nbytes):
            cpu.raise_interrupt(1)
        bus.add_mmio(0x8000, 16, lambda off, nbytes: 0, on_write, name="doorbell")

    state = run_both(_IRQ_SOURCE, setup=setup)
    assert state["regs"][15] == 1          # handler ran exactly once
    assert state["regs"][10] == 1 + 2 + 4 + 8
    assert state["halted"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_subword_mmio_store_delivers_byte_lane(backend):
    writes = []

    def setup(cpu, bus):
        bus.add_mmio(0x8000, 16, lambda off, nbytes: 0,
                     lambda off, value, nbytes: writes.append((off, value, nbytes)),
                     name="lanes")

    source = """
    li s0, 0x8000
    li t6, 0x12345
    sb t6, 0(s0)
    sh t6, 4(s0)
    sw t6, 8(s0)
    ebreak
"""
    cpu, _ = _build(source, backend, setup=setup)
    cpu.run(max_instructions=100)
    assert writes == [(0, 0x45, 1), (4, 0x2345, 2), (8, 0x12345, 4)]


def test_host_interrupt_and_wfi_parity():
    source = """
        la t0, handler
        csrw mtvec, t0
        li t0, 0x10000
        csrw mie, t0
        csrrsi x0, mstatus, 8
        wfi
        addi a0, a0, 100
        ebreak
    handler:
        addi a5, a5, 1
        li t1, 0x10000
        csrrc x0, mip, t1
        mret
    """
    states = {}
    for backend in ("interp", "translated"):
        cpu, bus = _build(source, backend)
        for _ in range(10):
            cpu.step()
        assert cpu.waiting_for_interrupt
        cpu.raise_interrupt(1)
        cpu.run(max_instructions=1000)
        states[backend] = _state(cpu, bus)
    assert states["translated"] == states["interp"]
    assert states["interp"]["regs"][15] == 1
    assert states["interp"]["regs"][10] == 100


# -- execution-control parity -------------------------------------------------

def test_max_instructions_cuts_inside_block():
    # 20 straight-line addis form one superblock; a budget of 7 must
    # stop exactly at instruction 7 even though the block is longer
    source = "\n".join(["addi a0, a0, 1"] * 20 + ["ebreak"])
    for backend in ("interp", "translated"):
        cpu, _ = _build(source, backend)
        executed = cpu.run(max_instructions=7)
        assert executed == 7
        assert cpu.instret == 7
        assert cpu.read_reg(10) == 7
        assert cpu.pc == 7 * 4


def test_step_matches_run_granularity():
    source = """
        li a0, 3
        li a1, 4
        add a2, a0, a1
        mul a3, a2, a2
        ebreak
    """
    traces = {}
    for backend in ("interp", "translated"):
        cpu, bus = _build(source, backend)
        trace = []
        while not cpu.halted:
            cpu.step()
            trace.append((cpu.pc, cpu.cycles, cpu.instret, list(cpu.regs)))
        traces[backend] = trace
    assert traces["translated"] == traces["interp"]


def test_cycle_model_swap_flushes_translations():
    # assigning a new cycle model after blocks are cached must recompile
    # closures with the new costs (tests the property-setter flush)
    source = """
        li s1, 3
    loop:
        addi a0, a0, 1
        mul a1, a0, a0
        addi s1, s1, -1
        bne s1, x0, loop
        ebreak
    """
    states = {}
    for backend in ("interp", "translated"):
        cpu, bus = _build(source, backend)
        cpu.run(max_instructions=6)        # caches translations
        cpu.cycle_model = CycleModel.vexriscv_light()
        cpu.run(max_instructions=100_000)
        states[backend] = _state(cpu, bus)
    assert states["translated"] == states["interp"]


# -- backend selection API ----------------------------------------------------

def test_backend_selection_and_validation():
    assert set(BACKENDS) == {"interp", "translated"}
    bus = MemoryBus()
    bus.add_ram(0, 4096)
    bus.load_blob(0, assemble("ebreak").image)
    assert RiscvCpu(bus, backend="interp")._engine is None
    bus2 = MemoryBus()
    bus2.add_ram(0, 4096)
    bus2.load_blob(0, assemble("ebreak").image)
    assert RiscvCpu(bus2, backend="translated")._engine is not None
    with pytest.raises(ValueError):
        RiscvCpu(bus, backend="threaded-jit")
