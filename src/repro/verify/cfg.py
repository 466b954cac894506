"""Basic-block CFG construction and structural checks over RV32 firmware.

The analyzer decodes a loaded firmware image **once** and builds a
control-flow graph whose block boundaries are, by construction, the
same boundaries the closure-translation engine fuses superblocks at:
both sides import :func:`repro.riscv.blocks.is_block_terminal` (the
differential test in ``tests/test_verify_cfg.py`` keeps them honest).
The only difference is that a CFG block additionally ends *before* a
join point (another block's entry), so every CFG block is a prefix of
the superblock starting at the same pc.

On top of the graph the builder runs a small constant-propagation
dataflow (registers lattice: known 32-bit value / unknown) so that
absolute load/store addresses — ``li``-built MMIO window pointers, the
dominant idiom in the bundled firmwares — can be classified by memory
region.  That classification powers the structural checks:

* static self-modifying-code detection (stores into the text segment;
  the runtime twin is ``RiscvCpu._store_watch``),
* MMIO footprint extraction (which interconnect / accelerator window
  offsets each firmware can touch),
* worst-case stack depth (``sp`` deltas along paths),
* unreachable-block reporting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core import funcsim
from ..riscv.assembler import Program, assemble
from ..riscv.blocks import (
    MAX_BLOCK,
    image_decoder,
    is_block_terminal,
    static_successors,
)
from ..riscv.isa import OPS, Instruction, constant_result, sign_extend, writes_rd

_MASK32 = 0xFFFFFFFF

#: Register index of the stack pointer in the RV32 ABI.
_SP = 2

#: Memory regions of the functional RPU, in ascending base order.
#: The names match ``repro.core.funcsim``'s constants.
REGIONS: Tuple[Tuple[str, int], ...] = (
    ("imem", funcsim.IMEM_BASE),
    ("dmem", funcsim.DMEM_BASE),
    ("pmem", funcsim.PMEM_BASE),
    ("accmem", funcsim.ACCMEM_BASE),
    ("interconnect", funcsim.IO_BASE),
    ("accel", funcsim.IO_EXT_BASE),
)


def region_of(addr: int) -> Tuple[str, int]:
    """``(region name, offset within region)`` for an absolute address."""
    name, base = REGIONS[0]
    for candidate, cbase in REGIONS:
        if addr < cbase:
            break
        name, base = candidate, cbase
    return name, addr - base


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, pc-anchored when it concerns a location."""

    level: str  # "error" | "warning" | "note"
    code: str  # stable kebab-case identifier, e.g. "smc-store"
    message: str
    pc: Optional[int] = None
    firmware: str = ""

    def format(self) -> str:
        where = f" @0x{self.pc:x}" if self.pc is not None else ""
        fw = f"{self.firmware}: " if self.firmware else ""
        return f"{self.level}[{self.code}]{where}: {fw}{self.message}"

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "code": self.code,
            "message": self.message,
            "pc": self.pc,
            "firmware": self.firmware,
        }


@dataclass
class MemAccess:
    """A load or store site, with its statically-resolved address when
    the dataflow proved one."""

    pc: int
    kind: str  # "load" | "store"
    nbytes: int
    addr: Optional[int]  # absolute address, or None when unproven
    region: Optional[str] = None
    offset: Optional[int] = None  # offset within the region

    def __post_init__(self) -> None:
        if self.addr is not None and self.region is None:
            self.region, self.offset = region_of(self.addr)


@dataclass
class BasicBlock:
    start: int
    pcs: List[int]
    insts: List[Instruction]
    successors: Tuple[int, ...] = ()
    #: why the block ended: "terminal" (control-flow instruction),
    #: "join" (next pc is another block's entry), "fault" (undecodable
    #: word), or "cap" (MAX_BLOCK limit).
    end_reason: str = "terminal"

    @property
    def last(self) -> Optional[Instruction]:
        return self.insts[-1] if self.insts else None

    @property
    def end(self) -> int:
        """pc just past the last instruction."""
        return (self.pcs[-1] + 4) & _MASK32 if self.pcs else self.start


@dataclass
class Loop:
    """A natural loop: header plus the union of back-edge bodies."""

    header: int
    body: Set[int]  # block start pcs, header included
    back_edges: List[Tuple[int, int]]
    bound: Optional[int] = None  # iterations, from "# loop-bound N"
    annotated: bool = False


@dataclass
class FirmwareCfg:
    """The decoded firmware, its CFG, and every structural finding."""

    name: str
    program: Program
    entry: int
    entries: Tuple[int, ...]
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    loops: Dict[int, Loop] = field(default_factory=dict)
    accesses: List[MemAccess] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    max_stack_bytes: int = 0

    # -- derived views ------------------------------------------------------

    def label_at(self, pc: int) -> Optional[str]:
        for label, addr in self.program.symbols.items():
            if addr == pc:
                return label
        return None

    def describe(self, pc: int) -> str:
        label = self.label_at(pc)
        return f"{label}(0x{pc:x})" if label else f"0x{pc:x}"

    def mmio_footprint(self) -> Dict[str, Dict[int, Set[str]]]:
        """``{"interconnect"|"accel": {offset: {"load"/"store"}}}`` over
        all proven MMIO accesses."""
        out: Dict[str, Dict[int, Set[str]]] = {"interconnect": {}, "accel": {}}
        for acc in self.accesses:
            if acc.region in out and acc.offset is not None:
                out[acc.region].setdefault(acc.offset, set()).add(acc.kind)
        return out

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.level == "error"]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "entry": self.entry,
            "blocks": {
                f"0x{b.start:x}": {
                    "pcs": [f"0x{pc:x}" for pc in b.pcs],
                    "mnemonics": [i.mnemonic for i in b.insts],
                    "successors": sorted(f"0x{s:x}" for s in b.successors),
                    "end_reason": b.end_reason,
                }
                for b in sorted(self.blocks.values(), key=lambda b: b.start)
            },
            "loops": {
                f"0x{lp.header:x}": {
                    "body": sorted(f"0x{s:x}" for s in lp.body),
                    "bound": lp.bound,
                    "annotated": lp.annotated,
                }
                for lp in sorted(self.loops.values(), key=lambda lp: lp.header)
            },
            "mmio": {
                region: {hex(off): sorted(kinds) for off, kinds in sorted(offs.items())}
                for region, offs in self.mmio_footprint().items()
            },
            "max_stack_bytes": self.max_stack_bytes,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def fingerprint(self) -> str:
        """Deterministic digest of the whole analysis (stability tests)."""
        return json.dumps(self.to_dict(), sort_keys=True)


# -- successor rules ----------------------------------------------------------

# Edge rules live in repro.riscv.blocks next to the block-boundary
# rules; this alias keeps the historical local name for in-module use.
_successor_pcs = static_successors


# -- builder ------------------------------------------------------------------


def build_cfg(
    program: Program,
    name: str = "",
    entries: Optional[List[int]] = None,
) -> FirmwareCfg:
    """Decode ``program`` once and build its reachable CFG.

    ``entries`` defaults to the ``main`` symbol (or the image base) plus
    every ``*_handler`` symbol — trap handlers are roots the fall-through
    walk would otherwise never reach.
    """
    symbols = program.symbols
    base = program.base
    decode_at = image_decoder(program.image, base)

    if entries is None:
        entry = symbols.get("main", base)
        entries = [entry] + sorted(
            addr
            for label, addr in symbols.items()
            if label.endswith("_handler") and addr != entry
        )
    entry = entries[0]

    cfg = FirmwareCfg(name=name, program=program, entry=entry, entries=tuple(entries))
    diags = cfg.diagnostics

    # pass 1: reachable instructions + leaders
    insts: Dict[int, Instruction] = {}
    leaders: Set[int] = set(entries)
    worklist: List[int] = list(entries)
    seen: Set[int] = set()
    while worklist:
        pc = worklist.pop()
        if pc in seen:
            continue
        seen.add(pc)
        inst = decode_at(pc)
        if inst is None:
            diags.append(
                Diagnostic(
                    "error",
                    "undecodable-word",
                    "reachable pc does not decode (data executed as code, "
                    "or a jump outside the image)",
                    pc=pc,
                    firmware=name,
                )
            )
            continue
        insts[pc] = inst
        if is_block_terminal(inst.mnemonic):
            succs = _successor_pcs(inst, pc)
            leaders.update(succs)
            worklist.extend(succs)
            if inst.mnemonic == "jalr":
                diags.append(
                    Diagnostic(
                        "note",
                        "indirect-jump",
                        "jalr target is not statically known; successors "
                        "under-approximated",
                        pc=pc,
                        firmware=name,
                    )
                )
        else:
            worklist.append((pc + 4) & _MASK32)
    # jump/branch targets into label'd code count as leaders even when
    # discovered late; also treat every symbol that is reachable as a
    # potential join point so blocks align with source labels.
    for label, addr in symbols.items():
        if addr in insts:
            leaders.add(addr)

    # pass 2: blocks (each a prefix of the superblock at the same entry)
    for leader in sorted(pc for pc in leaders if pc in insts):
        pcs: List[int] = []
        block_insts: List[Instruction] = []
        pc = leader
        end_reason = "cap"
        for _ in range(MAX_BLOCK):
            inst = insts.get(pc)
            if inst is None:
                end_reason = "fault"
                break
            pcs.append(pc)
            block_insts.append(inst)
            if is_block_terminal(inst.mnemonic):
                end_reason = "terminal"
                break
            nxt = (pc + 4) & _MASK32
            if nxt in leaders:
                end_reason = "join"
                pc = nxt
                break
            pc = nxt
        block = BasicBlock(leader, pcs, block_insts, end_reason=end_reason)
        if end_reason == "terminal":
            block.successors = tuple(
                s for s in _successor_pcs(block.last, block.pcs[-1]) if s in insts
            )
        elif end_reason == "join":
            block.successors = (pc,)
        elif end_reason == "cap":
            block.successors = ((block.end) & _MASK32,) if block.end in insts else ()
        cfg.blocks[leader] = block

    _find_loops(cfg)
    _report_unreachable(cfg, decode_at)
    _dataflow(cfg)
    return cfg


def analyze_source(source: str, name: str = "", base: int = 0) -> FirmwareCfg:
    """Assemble ``source`` (at the RPU's imem base) and build its CFG.

    ``# loop-bound N`` annotations in the source are attached to their
    loops (``Loop.bound`` / ``Loop.annotated``) so downstream passes
    can cross-check them against inferred bounds."""
    cfg = build_cfg(assemble(source, base=base), name=name)
    for label, bound in parse_loop_bounds(source).items():
        header = cfg.program.symbols.get(label)
        if header is not None and header in cfg.loops:
            cfg.loops[header].bound = bound
            cfg.loops[header].annotated = True
    return cfg


# -- loop-bound annotations ---------------------------------------------------

_BOUND_RE = re.compile(r"#\s*loop-bound\s+(\d+)")
_LABEL_RE = re.compile(r"^\s*([A-Za-z_.$][\w.$]*)\s*:")


def parse_loop_bounds(source: str) -> Dict[str, int]:
    """``{label: bound}`` from ``# loop-bound N`` annotations.

    An annotation applies to the loop whose header label it shares a
    line with, or — when written on its own line — to the next label::

        drain:                  # loop-bound 8
        # loop-bound 8
        drain:
    """
    bounds: Dict[str, int] = {}
    pending: Optional[int] = None
    for line in source.splitlines():
        bound = _BOUND_RE.search(line)
        label = _LABEL_RE.match(line)
        if label and bound:
            bounds[label.group(1)] = int(bound.group(1))
            pending = None
        elif label and pending is not None:
            bounds[label.group(1)] = pending
            pending = None
        elif bound:
            pending = int(bound.group(1))
        elif line.strip():
            pending = None
    return bounds


# -- loops --------------------------------------------------------------------


def _find_loops(cfg: FirmwareCfg) -> None:
    """DFS back-edge detection + natural-loop bodies (blocks are the
    nodes).  Multiple back edges to one header merge into one loop."""
    color: Dict[int, int] = {}  # 0 absent/white, 1 grey, 2 black
    back_edges: List[Tuple[int, int]] = []

    for root in cfg.entries:
        if root not in cfg.blocks or color.get(root):
            continue
        # iterative DFS with explicit grey/black colouring
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, idx = stack[-1]
            succs = cfg.blocks[node].successors
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                succ = succs[idx]
                if succ not in cfg.blocks:
                    continue
                c = color.get(succ, 0)
                if c == 1:
                    back_edges.append((node, succ))
                elif c == 0:
                    color[succ] = 1
                    stack.append((succ, 0))
            else:
                color[node] = 2
                stack.pop()

    preds: Dict[int, List[int]] = {}
    for block in cfg.blocks.values():
        for succ in block.successors:
            preds.setdefault(succ, []).append(block.start)

    for tail, header in back_edges:
        loop = cfg.loops.get(header)
        if loop is None:
            loop = Loop(header=header, body={header}, back_edges=[])
            cfg.loops[header] = loop
        loop.back_edges.append((tail, header))
        # natural loop body: nodes that reach the tail without passing
        # through the header
        work = [tail]
        while work:
            node = work.pop()
            if node in loop.body:
                continue
            loop.body.add(node)
            work.extend(p for p in preds.get(node, ()) if p not in loop.body)


def _report_unreachable(cfg: FirmwareCfg, decode_at) -> None:
    reached = {pc for block in cfg.blocks.values() for pc in block.pcs}
    base = cfg.program.base
    dead_labels = []
    orphan_words = 0
    for off in range(0, len(cfg.program.image), 4):
        pc = base + off
        if pc in reached or decode_at(pc) is None:
            continue
        orphan_words += 1
        label = cfg.label_at(pc)
        if label:
            dead_labels.append((label, pc))
    for label, pc in dead_labels:
        cfg.diagnostics.append(
            Diagnostic(
                "warning",
                "unreachable-block",
                f"label '{label}' decodes but is unreachable from any entry",
                pc=pc,
                firmware=cfg.name,
            )
        )
    if orphan_words and not dead_labels:
        cfg.diagnostics.append(
            Diagnostic(
                "note",
                "unreachable-words",
                f"{orphan_words} decodable word(s) not reached from any "
                "entry (trailing data or padding)",
                firmware=cfg.name,
            )
        )


# -- constant-propagation dataflow --------------------------------------------

RegState = List[Optional[int]]


def _transfer(inst: Instruction, pc: int, regs: RegState) -> Optional[Tuple[str, int, Optional[int]]]:
    """Apply ``inst`` to the register lattice in place; return a memory
    access descriptor ``(kind, nbytes, addr)`` when it loads or stores.

    What an instruction computes comes from its row of the instruction
    table (:func:`repro.riscv.isa.constant_result`): ALU results fold
    when their inputs are known, jumps define the link register, and
    anything else that writes ``rd`` (loads, CSR reads) clobbers it."""
    op = OPS[inst.mnemonic]
    access = None
    if op.kind in ("load", "store"):
        a = regs[inst.rs1]
        addr = (a + inst.imm) & _MASK32 if a is not None else None
        access = (op.kind, op.nbytes, addr)
    if writes_rd(inst.mnemonic, inst.rd):
        regs[inst.rd] = constant_result(inst, pc, regs[inst.rs1], regs[inst.rs2])
    return access


def _join(a: RegState, b: RegState) -> Tuple[RegState, bool]:
    changed = False
    out = list(a)
    for i in range(32):
        if out[i] is not None and out[i] != b[i]:
            out[i] = None
            changed = True
    return out, changed


def _dataflow(cfg: FirmwareCfg) -> None:
    """Worklist constant propagation; classifies every load/store and
    runs the structural checks that need addresses."""
    blocks = cfg.blocks
    # entry state: the core resets its register file to zero, so the
    # primary entry starts fully known; handler entries inherit nothing
    in_states: Dict[int, RegState] = {}
    for i, root in enumerate(cfg.entries):
        if root in blocks:
            in_states[root] = [0] * 32 if i == 0 else [None] * 32
            in_states[root][0] = 0

    worklist = [root for root in cfg.entries if root in blocks]
    final_in: Dict[int, RegState] = {}
    iterations = 0
    cap = max(64, 16 * len(blocks))
    while worklist and iterations < cap * 4:
        iterations += 1
        start = worklist.pop(0)
        state = list(in_states[start])
        final_in[start] = list(state)
        block = blocks[start]
        for pc, inst in zip(block.pcs, block.insts):
            _transfer(inst, pc, state)
        for succ in block.successors:
            if succ not in blocks:
                continue
            prev = in_states.get(succ)
            if prev is None:
                in_states[succ] = list(state)
                worklist.append(succ)
            else:
                joined, changed = _join(prev, state)
                if changed:
                    in_states[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)

    # final pass: with the fixpoint in-states, record accesses + checks
    text_lo = cfg.program.base
    text_hi = text_lo + len(cfg.program.image)
    sp_tracked = True
    min_sp_delta = 0  # most negative sp excursion seen (bytes)

    for start in sorted(final_in):
        state = list(final_in[start])
        block = blocks[start]
        sp_in = state[_SP]
        for pc, inst in zip(block.pcs, block.insts):
            access = _transfer(inst, pc, state)
            if access is None:
                continue
            kind, nbytes, addr = access
            mem = MemAccess(pc=pc, kind=kind, nbytes=nbytes, addr=addr)
            cfg.accesses.append(mem)
            if addr is None:
                continue
            if kind == "store" and addr < text_hi and addr + nbytes > text_lo:
                cfg.diagnostics.append(
                    Diagnostic(
                        "error",
                        "smc-store",
                        f"store into the text segment (0x{addr:x}); the "
                        "runtime _store_watch would invalidate translated "
                        "code here",
                        pc=pc,
                        firmware=cfg.name,
                    )
                )
        # stack tracking: known sp in and out -> depth excursion
        sp_out = state[_SP]
        if sp_in is not None and sp_out is not None:
            delta = sign_extend(sp_out - sp_in, 32)
            if delta < 0:
                min_sp_delta = min(min_sp_delta, delta)
                header = next(
                    (lp for lp in cfg.loops.values() if start in lp.body), None
                )
                if header is not None:
                    cfg.diagnostics.append(
                        Diagnostic(
                            "warning",
                            "stack-grows-in-loop",
                            f"block {cfg.describe(start)} lowers sp by "
                            f"{-delta} bytes inside a loop; worst-case "
                            "stack depth is unbounded",
                            pc=start,
                            firmware=cfg.name,
                        )
                    )
        elif sp_in is None and any(i.rd == _SP for i in block.insts):
            sp_tracked = False

    cfg.max_stack_bytes = -min_sp_delta
    if not sp_tracked:
        cfg.diagnostics.append(
            Diagnostic(
                "note",
                "stack-unproven",
                "sp written from a statically-unknown value; stack depth "
                "bound is best-effort",
                firmware=cfg.name,
            )
        )

    # unproven MMIO-looking accesses: flag stores through unknown
    # pointers only when the firmware never proves *any* address —
    # computed addresses into dmem tables (flow counter) are normal.
    unproven = sum(1 for a in cfg.accesses if a.addr is None)
    if unproven:
        cfg.diagnostics.append(
            Diagnostic(
                "note",
                "unproven-addresses",
                f"{unproven} access(es) through statically-unknown "
                "pointers (packet data / table indexing); excluded from "
                "the MMIO footprint",
                firmware=cfg.name,
            )
        )
