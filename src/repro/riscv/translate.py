"""Closure-translation fast path for the RV32IM ISS.

Instead of re-dispatching on mnemonic strings every step, each
instruction word is compiled *once* into a zero-argument Python closure
with its register indices, immediates, sign-extension, and precomputed
cycle cost bound in.  Straight-line runs of closures are fused into
**superblocks** keyed by entry pc that execute with a single Python call
per instruction and one interrupt check per block entry.

Parity rules (the differential tests in ``tests/test_riscv_backends.py``
enforce these against the interpreter):

* A closure performs its architectural effect first, then adds its
  cycle cost and bumps ``instret``, and returns the next pc — the same
  order as ``RiscvCpu._execute``, so ``csrr mcycle`` and MMIO cycle
  reads observe identical values.
* While a closure runs, ``cpu.pc`` holds that instruction's address
  (the executor assigns the return value *between* closures), so bus
  faults and ecall handlers see the same pc as the interpreter.
* Every instruction that can change interrupt enablement or redirect
  control (branches, jal/jalr, mret, ecall, ebreak, wfi, csr*)
  terminates its block, and ``RiscvCpu.raise_interrupt`` sets
  ``_break_block``, so interrupts are taken at exactly the same
  instruction boundaries as the interpreter.
* Stores that hit a translated word invalidate it (and every block
  spanning it) via ``RiscvCpu._store_watch`` and abort the current
  block, so self-modifying code never executes stale closures.

Hot-path tricks, in decreasing order of impact: per-site inline caches
for load/store regions (bound method + bounds, like a JIT's monomorphic
IC), closures generated per table row with the row's expression in the
closure body (no generic-lambda frame), signed compares via the
XOR-``0x80000000`` bias, and a rare-exception protocol (:class:`_BlockAbort`) instead of a
per-instruction flag check for mid-block invalidation/interrupts.

Replay recording (``RiscvCpu.record_run``) runs *traced* blocks: the
same superblocks from the same templates, except that loads and stores
call ``cpu.bus`` per access (the replay recorder while a bracket is
captured) instead of an inline cache, and each block carries the
register facts a recording needs, folded once when it is traced.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .blocks import MAX_BLOCK, is_block_terminal
from .bus import BusError
from .isa import EXPR_GLOBALS, OPS, PURE_KINDS, DecodeError, decode
from .cpu import (
    CSR_MEPC,
    CSR_MIE,
    CSR_MIP,
    CSR_MSTATUS,
    MASK32,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    CpuHalted,
    record_facts,
)

_OpFn = Callable[[], int]


class _BlockAbort(Exception):
    """Internal: a load/store tripped ``_break_block`` (interrupt raised
    by an MMIO handler, or a store patched translated code).  Raised
    *after* the instruction fully retires, with ``cpu.pc`` already
    advanced, so architectural state matches the interpreter exactly;
    the executor catches it and re-enters through the block-entry
    checks.  Only loads and stores can trip the flag (MMIO handlers run
    inside them), so no other closure pays for the check."""


# -- closure templates ---------------------------------------------------------
#
# One factory per table row is generated at import from the template of
# the row's kind, with the row's expression substituted into the closure
# body: operands become direct ``regs[...]`` reads or the bound
# immediate and the constants become literals, so no closure pays an
# operator-lambda frame.  Every factory takes the same arguments and
# returns the zero-argument closure that executes one instruction.

_FACTORY_ARGS = "cpu, regs, rd, rs1, rs2, imm, pc, next_pc, cost, taken_cost"

#: rd = value (ALU and upper rows)
_ALU_TEMPLATE = """
    def fn():
        regs[rd] = {expr}
        cpu.cycles += cost
        cpu.instret += 1
        return next_pc
"""

_BRANCH_TEMPLATE = """
    target = (pc + imm) & 0xFFFFFFFF
    def fn():
        if {expr}:
            cpu.cycles += taken_cost
            cpu.instret += 1
            return target
        cpu.cycles += cost
        cpu.instret += 1
        return next_pc
"""

_JUMP_TEMPLATE = """
    def fn():
        target = {expr}
        if rd:
            regs[rd] = next_pc
        cpu.cycles += cost
        cpu.instret += 1
        return target
"""

# The inline cache: a given load site almost always hits the same
# region, so remember [base, limit, innermost reader] and skip the bus
# scan plus all dispatch frames on the hit path.  The cached callable is
# the offset-based ``_read`` - the raw MMIO handler itself, or
# RamRegion's offset twin - so RAM and MMIO cost one call frame alike;
# the row expression masks or sign-extends the result because raw
# handlers are allowed to return unmasked values.
_LOAD_TEMPLATE = """
    find = cpu.bus._find
    cache = [1, 0, None]
    def fn():
        addr = (regs[rs1] + imm) & 0xFFFFFFFF
        if not cache[0] <= addr < cache[1]:
            region = find(addr)
            cache[0] = region.base
            cache[1] = region.base + region.size
            cache[2] = region._read
        v = cache[2](addr - cache[0], {nbytes})
        if rd:
            regs[rd] = {expr}
        cpu.cycles += cost
        cpu.instret += 1
        if cpu._break_block:
            cpu.pc = next_pc
            raise _BlockAbort
        return next_pc
"""

#: A traced load: no inline cache, the access goes through ``cpu.bus``
#: so a replay recorder swapped in there sees it.
_TRACED_LOAD_TEMPLATE = """
    def fn():
        v = cpu.bus.read((regs[rs1] + imm) & 0xFFFFFFFF, {nbytes})
        if rd:
            regs[rd] = {expr}
        cpu.cycles += cost
        cpu.instret += 1
        if cpu._break_block:
            cpu.pc = next_pc
            raise _BlockAbort
        return next_pc
"""

_TEMPLATES = {
    "alu-rr": _ALU_TEMPLATE, "alu-imm": _ALU_TEMPLATE, "shift-imm": _ALU_TEMPLATE,
    "upper": _ALU_TEMPLATE, "branch": _BRANCH_TEMPLATE, "jump": _JUMP_TEMPLATE,
    "load": _LOAD_TEMPLATE,
}


def _factory(op, template=None):
    """Compile ``op``'s template (or ``template``) with its expression
    in the closure body."""
    names = {
        "a": "regs[rs1]",
        "b": "regs[rs2]" if "rs2" in op.operands else "imm",
        "M": "0xFFFFFFFF",
        "SIGN": "0x80000000",
    }
    expr = re.sub(r"\b(a|b|M|SIGN)\b", lambda match: names[match.group()], op.expr)
    hoist = ""
    if "regs[" not in expr and op.kind != "load":
        # no register input (lui, auipc, jal): evaluate once per site
        hoist, expr = f"    value = {expr}", "value"
    body = (template or _TEMPLATES[op.kind]).format(expr=expr, nbytes=op.nbytes)
    scope = {"s": EXPR_GLOBALS["s"], "_BlockAbort": _BlockAbort}
    exec(f"def make({_FACTORY_ARGS}):\n{hoist}{body}    return fn\n", scope)
    return scope["make"]


_FACTORIES = {m: _factory(op) for m, op in OPS.items() if op.kind in _TEMPLATES}
#: traced load factories, generated on a core's first recording
_TRACED_FACTORIES: Dict[str, Callable] = {}


# front door: the closures of opcodes that no bundled firmware uses
def _compile(cpu, inst, pc: int, traced: bool = False) -> Tuple[_OpFn, bool]:
    """Compile ``inst`` at ``pc`` into ``(closure, is_block_terminal)``;
    ``traced`` loads and stores go through ``cpu.bus`` on every access."""
    m = inst.mnemonic
    op = OPS[m]
    # single source of truth for block boundaries, shared with the
    # static CFG builder (repro.verify.cfg)
    terminal = is_block_terminal(m)
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm & MASK32
    cost = cpu._cost_table[inst.cost_class]
    next_pc = (pc + 4) & MASK32
    # reset() clears the register file in place, so the list identity is
    # stable for the cpu's lifetime and closures can bind it directly
    regs = cpu.regs

    if m == "fence" or (rd == 0 and op.kind in PURE_KINDS):
        def fn() -> int:  # no architectural effect beyond its cost
            cpu.cycles += cost
            cpu.instret += 1
            return next_pc
        return fn, terminal

    factory = _FACTORIES.get(m)
    if traced and op.kind == "load":
        factory = _TRACED_FACTORIES.get(m)
        if factory is None:
            factory = _TRACED_FACTORIES[m] = _factory(op, _TRACED_LOAD_TEMPLATE)
    if factory is not None:
        return (
            factory(cpu, regs, rd, rs1, rs2, imm, pc, next_pc, cost, cpu._branch_taken_cost),
            terminal,
        )

    if op.kind == "store":
        nbytes = op.nbytes
        lane = (1 << (nbytes * 8)) - 1
        if traced:
            def fn() -> int:
                cpu.bus.write((regs[rs1] + imm) & MASK32, regs[rs2] & lane, nbytes)
                cpu.cycles += cost
                cpu.instret += 1
                if cpu._break_block:
                    cpu.pc = next_pc
                    raise _BlockAbort
                return next_pc

            return fn, terminal

        find = cpu.bus._find
        cache = [1, 0, None]  # inline cache, as in _LOAD_TEMPLATE

        def fn() -> int:
            addr = (regs[rs1] + imm) & MASK32
            if not cache[0] <= addr < cache[1]:
                region = find(addr)
                cache[0] = region.base
                cache[1] = region.base + region.size
                cache[2] = region._write
            cache[2](addr - cache[0], regs[rs2] & lane, nbytes)
            cpu.cycles += cost
            cpu.instret += 1
            if cpu._break_block:
                cpu.pc = next_pc
                raise _BlockAbort
            return next_pc

        return fn, terminal

    if m == "ecall":
        def fn() -> int:
            handler = cpu.ecall_handler
            if handler is not None:
                handler(cpu)
            else:
                cpu.halted = True
            cpu.cycles += cost
            cpu.instret += 1
            return next_pc

        return fn, terminal

    if m == "ebreak":
        def fn() -> int:
            cpu.halted = True
            cpu.cycles += cost
            cpu.instret += 1
            return next_pc

        return fn, terminal

    if m == "wfi":
        def fn() -> int:
            cpu.waiting_for_interrupt = True
            cpu.cycles += cost
            cpu.instret += 1
            return next_pc

        return fn, terminal

    if m == "mret":
        def fn() -> int:
            csrs = cpu.csrs
            status = csrs[CSR_MSTATUS]
            if status & MSTATUS_MPIE:
                status |= MSTATUS_MIE
            else:
                status &= ~MSTATUS_MIE
            status |= MSTATUS_MPIE
            csrs[CSR_MSTATUS] = status
            cpu.cycles += cost
            cpu.instret += 1
            return csrs[CSR_MEPC]

        return fn, terminal

    if op.kind == "csr":
        # csr* can flip mstatus.MIE / mie, so blocks end here and the
        # run loop re-checks pending interrupts — same boundary as the
        # interpreter's per-step check
        def fn() -> int:
            cpu._execute_csr(inst)
            cpu.cycles += cost
            cpu.instret += 1
            return next_pc

        return fn, terminal

    raise DecodeError(f"unimplemented mnemonic {m}")  # pragma: no cover


#: The facts of a word that does not decode: it faults when run.
_NO_FACTS = ((), 0, "")


def _fold_facts(facts: Sequence[Tuple[Tuple[int, ...], int, str]]):
    """``(reads, writes)`` of a straight-line run of instructions: the
    registers it reads before writing them, and the ones it writes."""
    reads: List[int] = []
    writes: Set[int] = set()
    for regs_read, write, _unstable in facts:
        for r in regs_read:
            if r not in writes and r not in reads:
                reads.append(r)
        if write:
            writes.add(write)
    return tuple(reads), frozenset(writes)


class _TracedBlock:
    """A superblock for replay recording: its closures, and what a
    recording needs of it as a whole, computed once."""

    __slots__ = ("ops", "reads", "writes", "unstable", "facts")

    def __init__(self, ops: List[_OpFn], facts: list) -> None:
        self.ops = ops
        #: per instruction, from ``record_facts``: a run cut short folds
        #: the prefix that retired
        self.facts = facts
        self.reads, self.writes = _fold_facts(facts)
        # only a block's terminal instruction can be unstable
        self.unstable = facts[-1][2]


class TranslatedEngine:
    """Owns the per-word closure cache and the superblock caches."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        #: word addr -> (closure, terminal)
        self.ops: Dict[int, Tuple[_OpFn, bool]] = {}
        #: entry pc -> fused closure list
        self.blocks: Dict[int, List[_OpFn]] = {}
        #: entry pc -> traced block, filled by the first recording
        self.traced: Dict[int, _TracedBlock] = {}
        #: word addr -> entry pcs of the blocks (of either cache)
        #: spanning it; a block and its traced twin span the same words
        self.block_index: Dict[int, Set[int]] = {}
        #: the bus object the cached closures were compiled against.
        #: Their loads and stores bind ``bus._find`` and region handlers
        #: at compile time, so running them after a bus swap would
        #: silently read and write the *old* bus.  ``run``/``step``
        #: check identity once per call and fail loudly instead.
        #: Replay recording swaps the bus on purpose and runs the traced
        #: blocks, which look ``cpu.bus`` up on every access.
        self.compiled_bus = None

    # -- cache maintenance ---------------------------------------------------

    def flush(self) -> None:
        self.ops.clear()
        self.blocks.clear()
        self.traced.clear()
        self.block_index.clear()
        self.compiled_bus = None

    def _check_bus(self) -> None:
        if self.compiled_bus is not None and self.compiled_bus is not self.cpu.bus:
            raise RuntimeError(
                "cpu.bus was swapped under the translated engine's "
                "compiled closures; trace through RiscvCpu.record_run "
                "(which runs traced blocks) or invalidate_icache() "
                "before running"
            )

    # front door: self-modifying code (RiscvCpu._invalidate_word)
    def invalidate_word(self, word: int) -> None:
        self.ops.pop(word, None)
        for entry in self.block_index.pop(word, ()):
            self.blocks.pop(entry, None)
            self.traced.pop(entry, None)

    # -- translation ---------------------------------------------------------

    def _compile_at(self, pc: int, traced: bool = False):
        """``(closure, terminal, facts)`` for the word at ``pc``; the
        ``record_facts`` of its instruction only when ``traced``."""
        cpu = self.cpu
        try:
            inst = decode(cpu.bus.read_u32(pc))
        except (BusError, DecodeError) as exc:
            err = exc

            # front door: a fetch that faults (bus error or undecodable word)
            def fn() -> int:  # fault lazily, exactly when executed
                raise err

            return fn, True, _NO_FACTS  # decode faults end the block (see blocks.py)
        fn, terminal = _compile(cpu, inst, pc, traced)
        return fn, terminal, record_facts(inst) if traced else None

    def _translate_op(self, pc: int) -> Tuple[_OpFn, bool]:
        entry = self.ops.get(pc)
        if entry is None:
            self.compiled_bus = self.cpu.bus
            entry = self._compile_at(pc)[:2]
            self.ops[pc] = entry
            self.cpu._note_code_word(pc)
        return entry

    def translate_block(self, entry_pc: int) -> List[_OpFn]:
        block_index = self.block_index
        ops_list: List[_OpFn] = []
        pc = entry_pc
        for _ in range(MAX_BLOCK):
            fn, terminal = self._translate_op(pc)
            ops_list.append(fn)
            block_index.setdefault(pc, set()).add(entry_pc)
            if terminal:
                break
            pc = (pc + 4) & MASK32
        self.blocks[entry_pc] = ops_list
        return ops_list

    def trace_block(self, entry_pc: int) -> _TracedBlock:
        """Translate the superblock at ``entry_pc`` for recording."""
        cpu = self.cpu
        block_index = self.block_index
        ops_list: List[_OpFn] = []
        facts = []
        pc = entry_pc
        for _ in range(MAX_BLOCK):
            fn, terminal, fact = self._compile_at(pc, traced=True)
            ops_list.append(fn)
            facts.append(fact)
            cpu._note_code_word(pc)
            block_index.setdefault(pc, set()).add(entry_pc)
            if terminal:
                break
            pc = (pc + 4) & MASK32
        block = self.traced[entry_pc] = _TracedBlock(ops_list, facts)
        return block

    # -- execution -----------------------------------------------------------

    def step(self) -> int:
        """Execute exactly one instruction (interpreter-step parity)."""
        cpu = self.cpu
        if cpu.halted:
            raise CpuHalted("core is halted")
        self._check_bus()

        cause = cpu._pending_interrupt()
        if cause is not None:
            cpu._take_interrupt(cause)

        if cpu.waiting_for_interrupt:
            cpu.cycles += 1
            return 1

        fn, _terminal = self._translate_op(cpu.pc)
        start_cycles = cpu.cycles
        try:
            cpu.pc = fn()
        except _BlockAbort:
            pass  # closure retired fully and set pc itself
        return cpu.cycles - start_cycles

    def run(
        self,
        max_instructions: int = 1_000_000,
        until: Optional[Callable[[object], bool]] = None,
    ) -> int:
        cpu = self.cpu
        self._check_bus()
        blocks = self.blocks
        csrs = cpu.csrs
        executed = 0
        while executed < max_instructions and not cpu.halted:
            if until is not None and until(cpu):
                break

            # inlined _pending_interrupt fast reject (hot: once per block)
            if csrs[CSR_MSTATUS] & MSTATUS_MIE and csrs[CSR_MIP] & csrs[CSR_MIE]:
                cause = cpu._pending_interrupt()
                if cause is not None:
                    cpu._take_interrupt(cause)
            if cpu.waiting_for_interrupt:
                cpu.cycles += 1
                executed += 1
                continue

            pc = cpu.pc
            try:
                ops_list = blocks[pc]
            except KeyError:
                ops_list = self.translate_block(pc)
            remaining = max_instructions - executed
            if len(ops_list) > remaining:
                ops_list = ops_list[:remaining]

            cpu._break_block = False
            before = cpu.instret
            try:
                for fn in ops_list:
                    cpu.pc = fn()
            except _BlockAbort:
                # interrupt raised or code word patched mid-block;
                # re-enter through the checks above
                pass
            executed += cpu.instret - before
        return executed

    def record(self, recorder, max_instructions: int, until) -> int:
        """:meth:`run` on traced blocks, with ``cpu.bus`` already the
        ``recorder``: each block adds the registers it reads before
        writing them to ``recorder.live_in`` and its write set to
        ``recorder.written_regs``.  A block cut short by ``_BlockAbort``
        or by ``max_instructions`` contributes the facts of the prefix
        that retired, never its whole write set, which could hide a
        register the next block reads."""
        cpu = self.cpu
        traced = self.traced
        csrs = cpu.csrs
        regs = cpu.regs
        live_in = recorder.live_in
        written = recorder.written_regs
        #: registers already classified, live-in or written
        seen = set(written)
        seen.update(live_in)
        executed = 0
        while executed < max_instructions and not cpu.halted:
            if until is not None and until(cpu):
                break

            if csrs[CSR_MSTATUS] & MSTATUS_MIE and csrs[CSR_MIP] & csrs[CSR_MIE]:
                cause = cpu._pending_interrupt()
                if cause is not None:
                    cpu._take_interrupt(cause)
            if cpu.waiting_for_interrupt:
                cpu.cycles += 1
                executed += 1
                continue

            pc = cpu.pc
            try:
                block = traced[pc]
            except KeyError:
                block = self.trace_block(pc)
            ops_list = block.ops
            remaining = max_instructions - executed
            if len(ops_list) > remaining:
                ops_list = ops_list[:remaining]

            fresh: Sequence[int] = ()
            if not seen.issuperset(block.reads):
                fresh = [r for r in block.reads if r not in seen]
                for r in fresh:
                    live_in[r] = regs[r]
                seen.update(fresh)
            unstable = block.unstable and cpu.is_unstable(block.unstable)

            cpu._break_block = False
            before = cpu.instret
            try:
                for fn in ops_list:
                    cpu.pc = fn()
            except _BlockAbort:
                pass
            retired = cpu.instret - before
            executed += retired
            if retired == len(block.ops):
                written.update(block.writes)
                seen.update(block.writes)
                if unstable:
                    recorder.mark_unreplayable(block.unstable)
                continue
            # cut short: only the prefix that retired read and wrote
            reads, writes = _fold_facts(block.facts[:retired])
            for r in fresh:
                if r not in reads:
                    del live_in[r]
                    seen.discard(r)
            written.update(writes)
            seen.update(writes)
        return executed
