"""RV32IM instruction-set simulator with a VexRiscv-like cycle model.

The CPU models the 5-stage, in-order VexRiscv pipeline used inside each
RPU at instruction granularity: most instructions retire in one cycle;
taken branches and jumps pay a flush penalty; loads pay a use latency;
division is iterative.  That is enough fidelity to *measure* the
cycles-per-packet numbers the paper reports (e.g. the 16-cycle
forwarder loop, §6.1) without simulating per-stage state.

Interrupts follow a simplified machine-mode scheme: external interrupt
lines (Rosebud's *evict*, *poke*, and broadcast-message interrupts) and
a timer line set bits in ``mip``; when enabled via ``mie``/``mstatus.MIE``
the core traps to ``mtvec`` with ``mcause`` indicating the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .bus import MemoryBus
from .isa import (
    CC_CSR,
    CC_DIV,
    CC_JUMP,
    CC_LOAD,
    CC_MUL,
    N_COST_CLASSES,
    DecodeError,
    Instruction,
    decode,
    reads_regs,
    writes_rd,
)

MASK32 = 0xFFFFFFFF

#: Execution backends: the reference interpreter and the
#: closure-translation fast path (see :mod:`repro.riscv.translate`).
BACKENDS = ("interp", "translated")

# CSR addresses (subset)
CSR_MSTATUS = 0x300
CSR_MIE = 0x304
CSR_MTVEC = 0x305
CSR_MSCRATCH = 0x340
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_MIP = 0x344
CSR_MCYCLE = 0xB00
CSR_MINSTRET = 0xB02
CSR_MHARTID = 0xF14

MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7

# Interrupt cause numbers (machine external uses platform-custom lines)
IRQ_TIMER = 7
IRQ_EXTERNAL_BASE = 16  # custom platform lines: 16+line


#: Why a recording that runs the instruction cannot be replayed.
UNSTABLE_COUNTER = "reads mcycle/minstret"
#: ... and an ``ecall``'s, which holds only while a handler is installed.
UNSTABLE_ECALL = "ecall handler side effects"


def record_facts(inst: Instruction) -> Tuple[Tuple[int, ...], int, str]:
    """What a replay recording needs of one instruction: the registers
    it reads, the register it writes (0 for none), and why a bracket
    that runs it cannot be replayed ("" when it can).  The interpreter's
    recording loop asks per instruction; the translated backend folds
    the answers over a block once, when it traces the block."""
    m = inst.mnemonic
    if m.startswith("csr") and inst.csr in (CSR_MCYCLE, CSR_MINSTRET):
        unstable = UNSTABLE_COUNTER
    elif m == "ecall":
        unstable = UNSTABLE_ECALL
    else:
        unstable = ""
    write = inst.rd if writes_rd(m, inst.rd) else 0
    return reads_regs(m, inst.rs1, inst.rs2), write, unstable


@dataclass
class CycleModel:
    """Per-instruction-class cycle costs (VexRiscv-flavoured).

    VexRiscv with a 5-stage pipeline retires one instruction per cycle;
    the costs here are *additional* stall cycles.
    """

    base: int = 1
    branch_taken_penalty: int = 2
    jump_penalty: int = 2
    load_extra: int = 1
    mul_extra: int = 0
    div_extra: int = 32
    csr_extra: int = 1

    @classmethod
    def vexriscv_full(cls) -> "CycleModel":
        """The default: 5-stage VexRiscv with hardware mul/div."""
        return cls()

    # front door: §4.1's "customize the core" (docs/ARCHITECTURE.md)
    @classmethod
    def vexriscv_light(cls) -> "CycleModel":
        """A 2-stage minimal VexRiscv configuration: cheaper fabric
        footprint, higher CPI — the kind of core-capability trade §4.1
        leaves open to the developer ("customize the core")."""
        return cls(
            base=1,
            branch_taken_penalty=1,
            jump_penalty=1,
            load_extra=2,
            mul_extra=32,  # no hardware multiplier: iterative
            div_extra=32,
            csr_extra=2,
        )

    def cost_table(self) -> tuple:
        """Per-cost-class cycle costs, indexed by ``Instruction.cost_class``.

        Branches carry their *not-taken* cost here; the taken cost is
        :attr:`branch_taken_cost`.  Both backends resolve costs through
        this table so the mnemonic string scan stays off the retire path.
        """
        table = [self.base] * N_COST_CLASSES
        table[CC_JUMP] = self.base + self.jump_penalty
        table[CC_LOAD] = self.base + self.load_extra
        table[CC_MUL] = self.base + self.mul_extra
        table[CC_DIV] = self.base + self.div_extra
        table[CC_CSR] = self.base + self.csr_extra
        return tuple(table)

    @property
    def branch_taken_cost(self) -> int:
        return self.base + self.branch_taken_penalty


class CpuHalted(Exception):
    """Raised internally when the core executes ebreak or is halted."""


class RiscvCpu:
    """The instruction-set simulator.

    ``step()`` executes one instruction and returns its cycle cost;
    ``run(max_instructions)`` loops.  ``cycles`` accumulates the cycle
    model so firmware loops can be timed exactly.
    """

    def __init__(
        self,
        bus: MemoryBus,
        reset_pc: int = 0,
        hartid: int = 0,
        cycle_model: Optional[CycleModel] = None,
        backend: str = "translated",
    ) -> None:
        self.bus = bus
        self.regs: List[int] = [0] * 32
        self.pc = reset_pc
        self.reset_pc = reset_pc
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.waiting_for_interrupt = False
        self.hartid = hartid
        self._engine = None
        self.csrs: Dict[int, int] = {
            CSR_MSTATUS: 0,
            CSR_MIE: 0,
            CSR_MTVEC: 0,
            CSR_MSCRATCH: 0,
            CSR_MEPC: 0,
            CSR_MCAUSE: 0,
            CSR_MTVAL: 0,
            CSR_MIP: 0,
        }
        self._decode_cache: Dict[int, Instruction] = {}
        #: optional hook invoked on ecall: hook(cpu) -> None
        self.ecall_handler: Optional[Callable[["RiscvCpu"], None]] = None

        # store-aware instruction-cache coherence: the bus reports every
        # RAM mutation; words we have decoded/translated are invalidated
        # (fixes self-modifying code executing stale instructions)
        self._code_words: set = set()
        self._code_lo = 1 << 62
        self._code_hi = -1
        self._break_block = False
        #: bumped whenever decoded code may be stale (icache flush or a
        #: store into decoded words) or its cycle costs change — replay
        #: records pin this so stale brackets can never be replayed
        #: against patched firmware or a swapped cycle model
        self.code_epoch = 0
        self.cycle_model = cycle_model or CycleModel()
        bus.watch_stores(self._store_watch)

        if backend not in BACKENDS:
            raise ValueError(
                f"unknown cpu backend {backend!r}; choices: {BACKENDS}"
            )
        self.backend = backend
        if backend == "translated":
            from .translate import TranslatedEngine

            self._engine = TranslatedEngine(self)

    # -- cycle model (swappable; costs are baked into caches) ----------------

    # front door: the read side of the swappable cycle model
    @property
    def cycle_model(self) -> CycleModel:
        return self._cycle_model

    @cycle_model.setter
    def cycle_model(self, model: CycleModel) -> None:
        self._cycle_model = model
        self._cost_table = model.cost_table()
        self._branch_taken_cost = model.branch_taken_cost
        if self._engine is not None:
            # translated closures embed their cycle costs
            self._engine.flush()
        # ... and so do replay records, as cycle deltas
        self.code_epoch += 1

    # -- register access ----------------------------------------------------

    def read_reg(self, idx: int) -> int:
        return self.regs[idx]

    def write_reg(self, idx: int, value: int) -> None:
        if idx != 0:
            self.regs[idx] = value & MASK32

    # -- reset / interrupt lines ---------------------------------------------

    # front door: the RV32 architectural reset state
    def reset(self) -> None:
        # in place: translated closures capture the list itself
        self.regs[:] = [0] * 32
        self.pc = self.reset_pc
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.waiting_for_interrupt = False
        for csr in (CSR_MSTATUS, CSR_MIE, CSR_MEPC, CSR_MCAUSE, CSR_MIP):
            self.csrs[csr] = 0
        self.invalidate_icache()
        self._break_block = False

    # front door: the RV32 interrupt path (FORWARDER_IRQ_ASM's timer and poke lines, §3.4)
    def raise_interrupt(self, line: int) -> None:
        """Assert platform interrupt ``line`` (0 = timer, >=1 external)."""
        if line == 0:
            self.csrs[CSR_MIP] |= 1 << IRQ_TIMER
        else:
            self.csrs[CSR_MIP] |= 1 << (IRQ_EXTERNAL_BASE + line - 1)
        self.waiting_for_interrupt = False
        # force the translated backend back to its block-entry interrupt
        # check so latency stays at instruction granularity
        self._break_block = True

    # front door: the RV32 interrupt path (FORWARDER_IRQ_ASM's timer and poke lines, §3.4)
    def clear_interrupt(self, line: int) -> None:
        if line == 0:
            self.csrs[CSR_MIP] &= ~(1 << IRQ_TIMER)
        else:
            self.csrs[CSR_MIP] &= ~(1 << (IRQ_EXTERNAL_BASE + line - 1))

    def _pending_interrupt(self) -> Optional[int]:
        if not self.csrs[CSR_MSTATUS] & MSTATUS_MIE:
            return None
        pending = self.csrs[CSR_MIP] & self.csrs[CSR_MIE]
        if not pending:
            return None
        # lowest set bit wins (deterministic priority)
        return (pending & -pending).bit_length() - 1

    # front door: the RV32 interrupt path (FORWARDER_IRQ_ASM's timer and poke lines, §3.4)
    def _take_interrupt(self, cause_bit: int) -> None:
        # platform lines are latched: taking the interrupt consumes it
        # (one-shot semantics, like Rosebud's poke/evict interrupts)
        self.csrs[CSR_MIP] &= ~(1 << cause_bit)
        status = self.csrs[CSR_MSTATUS]
        # save MIE to MPIE, clear MIE
        status = (status & ~MSTATUS_MPIE) | (
            MSTATUS_MPIE if status & MSTATUS_MIE else 0
        )
        status &= ~MSTATUS_MIE
        self.csrs[CSR_MSTATUS] = status
        self.csrs[CSR_MEPC] = self.pc
        self.csrs[CSR_MCAUSE] = (1 << 31) | cause_bit
        self.pc = self.csrs[CSR_MTVEC] & ~0x3
        self.cycles += 3  # trap entry latency

    # -- execution -----------------------------------------------------------

    def fetch_decode(self, addr: int) -> Instruction:
        inst = self._decode_cache.get(addr)
        if inst is None:
            word = self.bus.read_u32(addr)
            inst = decode(word)
            self._decode_cache[addr] = inst
            self._note_code_word(addr)
        return inst

    def invalidate_icache(self) -> None:
        """Drop all decoded/translated instructions (full flush)."""
        self._decode_cache.clear()
        self._code_words.clear()
        self._code_lo = 1 << 62
        self._code_hi = -1
        self.code_epoch += 1
        if self._engine is not None:
            self._engine.flush()

    # -- store-aware coherence ------------------------------------------------

    def _note_code_word(self, addr: int) -> None:
        word = addr & ~0x3
        self._code_words.add(word)
        if word < self._code_lo:
            self._code_lo = word
        if word > self._code_hi:
            self._code_hi = word

    def _store_watch(self, addr: int, nbytes: int) -> None:
        # fast reject: almost every store lands outside the code range
        # (dmem/pmem), and host blob loads stream kilobytes at a time
        if addr > self._code_hi or addr + nbytes <= self._code_lo:
            return
        first = addr & ~0x3
        last = (addr + nbytes - 1) & ~0x3
        for word in range(first, last + 4, 4):
            if word in self._code_words:
                self._invalidate_word(word)

    # front door: self-modifying code (a store into a decoded word)
    def _invalidate_word(self, word: int) -> None:
        self._code_words.discard(word)
        self._decode_cache.pop(word, None)
        self.code_epoch += 1
        if self._engine is not None:
            self._engine.invalidate_word(word)
        # if we are mid-superblock, stop fusing at the next boundary
        self._break_block = True

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed."""
        if self.halted:
            raise CpuHalted("core is halted")

        cause = self._pending_interrupt()
        if cause is not None:
            self._take_interrupt(cause)

        if self.waiting_for_interrupt:
            self.cycles += 1
            return 1

        start_cycles = self.cycles
        if self._engine is not None:
            self._engine.run(1)
        else:
            self._execute(self.fetch_decode(self.pc))
            self.instret += 1
        return self.cycles - start_cycles

    def run(
        self,
        max_instructions: int = 1_000_000,
        until: Optional[Callable[["RiscvCpu"], bool]] = None,
    ) -> int:
        """Run until halt, ``until(cpu)`` is true, or the instruction cap.

        Returns instructions executed.  With the translated backend,
        ``until`` is evaluated at superblock boundaries rather than
        before every instruction (see docs/ARCHITECTURE.md).
        """
        if self._engine is not None:
            return self._engine.run(max_instructions, until)

        executed = 0
        while executed < max_instructions and not self.halted:
            if until is not None and until(self):
                break
            self.step()
            executed += 1
        return executed

    def record_run(
        self,
        recorder,
        max_instructions: int = 1_000_000,
        until: Optional[Callable[["RiscvCpu"], bool]] = None,
    ) -> int:
        """``run`` with every data-bus transaction routed through
        ``recorder`` (replay capture, see ``repro.replay``).

        The translated backend's one ``run`` loop takes the recorder
        and runs *traced* blocks: the same superblocks, whose loads and
        stores go through ``cpu.bus`` (the recorder) and which carry
        their register facts, so ``until`` is polled at the same block
        boundaries as an unrecorded run.  The interpreter traces one
        instruction at a time.  Either way a register read before the
        bracket writes it lands in ``recorder.live_in`` with its value,
        and every written one in ``recorder.written_regs``; unstable
        inputs (``mcycle``/``minstret`` CSR reads, ``ecall`` with a
        handler installed) mark the recording unreplayable.
        """
        real_bus = self.bus
        self.bus = recorder
        try:
            if self._engine is not None:
                return self._engine.run(max_instructions, until, recorder)
            return self._record_interp(recorder, max_instructions, until)
        finally:
            self.bus = real_bus

    # front door: interpreter-backend recording, the per-packet
    # reference of the replay tests (every workload records translated)
    def _record_interp(self, recorder, max_instructions, until) -> int:
        regs = self.regs
        live_in = recorder.live_in
        written = recorder.written_regs
        executed = 0
        while executed < max_instructions and not self.halted:
            if until is not None and until(self):
                break
            cause = self._pending_interrupt()
            if cause is not None:
                self._take_interrupt(cause)
            if self.waiting_for_interrupt:
                self.cycles += 1
                executed += 1
                continue
            inst = self.fetch_decode(self.pc)
            reads, write, unstable = record_facts(inst)
            for r in reads:
                if r not in written and r not in live_in:
                    live_in[r] = regs[r]
            if write:
                written.add(write)
            if unstable and self.is_unstable(unstable):
                recorder.mark_unreplayable(unstable)
            self._execute(inst)
            self.instret += 1
            executed += 1
        return executed

    # front door: brackets that read mcycle/minstret or run an ecall;
    # no bundled firmware executes one
    def is_unstable(self, reason: str) -> bool:
        """Whether ``reason`` (from :func:`record_facts`) holds now: an
        ``ecall`` is unstable only while a handler is installed."""
        return reason != UNSTABLE_ECALL or self.ecall_handler is not None

    # -- the big dispatch ------------------------------------------------------

    def _execute(self, inst: Instruction) -> None:
        m = inst.mnemonic
        regs = self.regs
        next_pc = (self.pc + 4) & MASK32
        taken = False

        if m == "lui":
            self.write_reg(inst.rd, inst.imm)
        elif m == "auipc":
            self.write_reg(inst.rd, self.pc + inst.imm)
        elif m == "jal":
            self.write_reg(inst.rd, next_pc)
            next_pc = (self.pc + inst.imm) & MASK32
        elif m == "jalr":
            target = (regs[inst.rs1] + inst.imm) & MASK32 & ~1
            self.write_reg(inst.rd, next_pc)
            next_pc = target
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            a, b = regs[inst.rs1], regs[inst.rs2]
            sa, sb = _signed(a), _signed(b)
            taken = {
                "beq": a == b,
                "bne": a != b,
                "blt": sa < sb,
                "bge": sa >= sb,
                "bltu": a < b,
                "bgeu": a >= b,
            }[m]
            if taken:
                next_pc = (self.pc + inst.imm) & MASK32
        elif m in ("lb", "lh", "lw", "lbu", "lhu"):
            addr = (regs[inst.rs1] + inst.imm) & MASK32
            nbytes = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[m]
            value = self.bus.read(addr, nbytes)
            if m == "lb":
                value = _sext(value, 8)
            elif m == "lh":
                value = _sext(value, 16)
            self.write_reg(inst.rd, value)
        elif m in ("sb", "sh", "sw"):
            addr = (regs[inst.rs1] + inst.imm) & MASK32
            nbytes = {"sb": 1, "sh": 2, "sw": 4}[m]
            # the bus sees the byte lane, as RAM and MMIO hardware would
            self.bus.write(addr, regs[inst.rs2] & ((1 << (nbytes * 8)) - 1), nbytes)
        elif m == "addi":
            self.write_reg(inst.rd, regs[inst.rs1] + inst.imm)
        elif m == "slti":
            self.write_reg(inst.rd, int(_signed(regs[inst.rs1]) < inst.imm))
        elif m == "sltiu":
            self.write_reg(inst.rd, int(regs[inst.rs1] < (inst.imm & MASK32)))
        elif m == "xori":
            self.write_reg(inst.rd, regs[inst.rs1] ^ inst.imm)
        elif m == "ori":
            self.write_reg(inst.rd, regs[inst.rs1] | inst.imm)
        elif m == "andi":
            self.write_reg(inst.rd, regs[inst.rs1] & inst.imm)
        elif m == "slli":
            self.write_reg(inst.rd, regs[inst.rs1] << (inst.imm & 0x1F))
        elif m == "srli":
            self.write_reg(inst.rd, regs[inst.rs1] >> (inst.imm & 0x1F))
        elif m == "srai":
            self.write_reg(inst.rd, _signed(regs[inst.rs1]) >> (inst.imm & 0x1F))
        elif m == "add":
            self.write_reg(inst.rd, regs[inst.rs1] + regs[inst.rs2])
        elif m == "sub":
            self.write_reg(inst.rd, regs[inst.rs1] - regs[inst.rs2])
        elif m == "sll":
            self.write_reg(inst.rd, regs[inst.rs1] << (regs[inst.rs2] & 0x1F))
        elif m == "slt":
            self.write_reg(inst.rd, int(_signed(regs[inst.rs1]) < _signed(regs[inst.rs2])))
        elif m == "sltu":
            self.write_reg(inst.rd, int(regs[inst.rs1] < regs[inst.rs2]))
        elif m == "xor":
            self.write_reg(inst.rd, regs[inst.rs1] ^ regs[inst.rs2])
        elif m == "srl":
            self.write_reg(inst.rd, regs[inst.rs1] >> (regs[inst.rs2] & 0x1F))
        elif m == "sra":
            self.write_reg(inst.rd, _signed(regs[inst.rs1]) >> (regs[inst.rs2] & 0x1F))
        elif m == "or":
            self.write_reg(inst.rd, regs[inst.rs1] | regs[inst.rs2])
        elif m == "and":
            self.write_reg(inst.rd, regs[inst.rs1] & regs[inst.rs2])
        elif m == "mul":
            self.write_reg(inst.rd, regs[inst.rs1] * regs[inst.rs2])
        elif m == "mulh":
            self.write_reg(
                inst.rd, (_signed(regs[inst.rs1]) * _signed(regs[inst.rs2])) >> 32
            )
        elif m == "mulhsu":
            self.write_reg(inst.rd, (_signed(regs[inst.rs1]) * regs[inst.rs2]) >> 32)
        elif m == "mulhu":
            self.write_reg(inst.rd, (regs[inst.rs1] * regs[inst.rs2]) >> 32)
        elif m == "div":
            self.write_reg(inst.rd, _div(_signed(regs[inst.rs1]), _signed(regs[inst.rs2])))
        elif m == "divu":
            b = regs[inst.rs2]
            self.write_reg(inst.rd, MASK32 if b == 0 else regs[inst.rs1] // b)
        elif m == "rem":
            self.write_reg(inst.rd, _rem(_signed(regs[inst.rs1]), _signed(regs[inst.rs2])))
        elif m == "remu":
            b = regs[inst.rs2]
            self.write_reg(inst.rd, regs[inst.rs1] if b == 0 else regs[inst.rs1] % b)
        elif m == "fence":
            pass
        elif m == "ecall":
            if self.ecall_handler is not None:
                self.ecall_handler(self)
            else:
                self.halted = True
        elif m == "ebreak":
            self.halted = True
        elif m == "wfi":
            self.waiting_for_interrupt = True
        elif m == "mret":
            status = self.csrs[CSR_MSTATUS]
            if status & MSTATUS_MPIE:
                status |= MSTATUS_MIE
            else:
                status &= ~MSTATUS_MIE
            status |= MSTATUS_MPIE
            self.csrs[CSR_MSTATUS] = status
            next_pc = self.csrs[CSR_MEPC]
        elif m.startswith("csr"):
            self._execute_csr(inst)
        else:  # pragma: no cover - decode() guarantees coverage
            raise DecodeError(f"unimplemented mnemonic {m}")

        if taken:
            self.cycles += self._branch_taken_cost
        else:
            self.cycles += self._cost_table[inst.cost_class]
        self.pc = next_pc

    # front door: the Zicsr instructions, which no front door's firmware executes
    def _execute_csr(self, inst: Instruction) -> None:
        csr = inst.csr
        old = self._read_csr(csr)
        m = inst.mnemonic
        if m.endswith("i"):
            operand = inst.rs1  # zimm encoded in rs1 field
        else:
            operand = self.regs[inst.rs1]
        if m in ("csrrw", "csrrwi"):
            new = operand
        elif m in ("csrrs", "csrrsi"):
            new = old | operand
        else:  # csrrc / csrrci
            new = old & ~operand
        self._write_csr(csr, new)
        self.write_reg(inst.rd, old)

    # front door: the Zicsr instructions, which no front door's firmware executes
    def _read_csr(self, csr: int) -> int:
        if csr == CSR_MCYCLE:
            return self.cycles & MASK32
        if csr == CSR_MINSTRET:
            return self.instret & MASK32
        if csr == CSR_MHARTID:
            return self.hartid
        return self.csrs.get(csr, 0)

    # front door: the Zicsr instructions, which no front door's firmware executes
    def _write_csr(self, csr: int, value: int) -> None:
        if csr in (CSR_MCYCLE, CSR_MINSTRET, CSR_MHARTID):
            return  # read-only in this model
        self.csrs[csr] = value & MASK32


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


# front door: RV32M div/rem, which no front door's firmware executes
def _sext(value: int, bits: int) -> int:
    mask = 1 << (bits - 1)
    return ((value & (mask - 1)) - (value & mask)) & MASK32


# front door: RV32M div/rem, which no front door's firmware executes
def _div(a: int, b: int) -> int:
    if b == 0:
        return MASK32
    if a == -(1 << 31) and b == -1:
        return a & MASK32
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q & MASK32


# front door: RV32M div/rem, which no front door's firmware executes
def _rem(a: int, b: int) -> int:
    if b == 0:
        return a & MASK32
    if a == -(1 << 31) and b == -1:
        return 0
    r = abs(a) % abs(b)
    if a < 0:
        r = -r
    return r & MASK32
