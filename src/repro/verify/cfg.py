"""Basic-block CFG construction and structural checks over RV32 firmware.

The analyzer decodes a loaded firmware image **once** and builds a
control-flow graph whose block boundaries are, by construction, the
same boundaries the closure-translation engine fuses superblocks at:
both sides import :func:`repro.riscv.blocks.is_block_terminal` (the
differential test in ``tests/test_verify_cfg.py`` keeps them honest).
The only difference is that a CFG block additionally ends *before* a
join point (another block's entry), so every CFG block is a prefix of
the superblock starting at the same pc.

This module is purely structural — blocks, edges, natural loops with
their nesting, reachability, unreachable code.  Every fact about a
*value* (which address a load/store touches, the MMIO footprint, the
stack depth, stores into the text segment) comes from the abstract
interpreter in :mod:`repro.verify.absint`, which runs over this graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..riscv.assembler import Program, assemble
from ..riscv.blocks import (
    BRANCH_MNEMONICS,
    MAX_BLOCK,
    image_decoder,
    is_block_terminal,
    static_successors,
)
from ..riscv.isa import Instruction

_MASK32 = 0xFFFFFFFF


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
class BasicBlock:
    start: int
    pcs: List[int]
    insts: List[Instruction]
    successors: Tuple[int, ...] = ()
    #: why the block ended: "terminal" (control-flow instruction),
    #: "join" (next pc is another block's entry), "fault" (undecodable
    #: word), or "cap" (MAX_BLOCK limit).
    end_reason: str = "terminal"
    #: taken target of the conditional branch that ends the block (the
    #: other edge is the fall-through); ``None`` for any other ending
    taken: Optional[int] = None

    @property
    def last(self) -> Optional[Instruction]:
        return self.insts[-1] if self.insts else None


@dataclass
class Loop:
    """A natural loop: header plus the union of back-edge bodies."""

    header: int
    body: Set[int]  # block start pcs, header included
    back_edges: List[Tuple[int, int]]
    bound: Optional[int] = None  # iterations, from "# loop-bound N"
    annotated: bool = False
    #: header of the innermost loop strictly enclosing this one
    parent: Optional[int] = None


@dataclass
class FirmwareCfg:
    """The decoded firmware, its CFG, and every structural finding."""

    name: str
    program: Program
    entry: int
    entries: Tuple[int, ...]
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    loops: Dict[int, Loop] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    # -- derived views ------------------------------------------------------

    def label_at(self, pc: int) -> Optional[str]:
        for label, addr in self.program.symbols.items():
            if addr == pc:
                return label
        return None

    def describe(self, pc: int) -> str:
        label = self.label_at(pc)
        return f"{label}(0x{pc:x})" if label else f"0x{pc:x}"

    def reachable(self, root: int) -> Set[int]:
        """Start pcs of every block reachable from ``root``."""
        seen: Set[int] = set()
        work = [root]
        while work:
            node = work.pop()
            if node in seen or node not in self.blocks:
                continue
            seen.add(node)
            work.extend(self.blocks[node].successors)
        return seen


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
            succs = static_successors(inst, pc)
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
                s for s in static_successors(block.last, block.pcs[-1]) if s in insts
            )
            if block.last.mnemonic in BRANCH_MNEMONICS:
                block.taken = (block.pcs[-1] + block.last.imm) & _MASK32
        elif end_reason == "join":
            block.successors = (pc,)
        elif end_reason == "cap":
            block.successors = (pc,) if pc in insts else ()
        cfg.blocks[leader] = block

    _find_loops(cfg)
    _report_unreachable(cfg, decode_at)
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
    nodes).  Multiple back edges to one header merge into one loop.
    Nesting is settled here, once, as ``Loop.parent``."""
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

    # innermost first: a loop's parent is the next-smallest body
    # holding its header
    by_size = sorted(cfg.loops.values(), key=lambda lp: (len(lp.body), lp.header))
    for i, loop in enumerate(by_size):
        loop.parent = next(
            (o.header for o in by_size[i + 1 :] if loop.header in o.body), None
        )


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
