"""Loop-bound inference: induction variables, stream drains, cross-checks.

PR 5's WCET engine trusted ``# loop-bound N`` annotations.  This module
*derives* bounds from the program instead, using two rules over the
abstract-interpretation states (:mod:`repro.verify.absint`):

**Induction rule.**  A register ``r`` with exactly one definition in the
loop body, that definition an ``addi r, r, c`` which dominates every
back edge (loop-local dominators — the global relation is useless
inside a loop once the back edges are cut), is an induction variable:
``r = init + c*k`` on iteration ``k``.  If a conditional branch that
also dominates every back edge tests ``r`` against a loop-invariant
bound ``B`` and exactly one of its edges leaves the loop, the iteration
count follows from the continue relation — e.g. counted-up ``blt r, B``
with increment before the test gives ``ceil((B.hi - init.lo) / c)``.
An increment *after* (or incomparable with) the guard costs one extra
iteration: the guard re-tests the pre-increment value once more.

**Stream rule.**  Drain loops (pigasus: pop match FIFO until the
end-of-packet marker) have no induction variable — their trip count is
a property of the *device*.  When the guard tests a value loaded from
an accelerator register whose row declares ``stream_depth=d`` (see
``repro.accel.base.Register``), the loop body also advances the stream
(a store of a value that provably lies in some row's ``advance_on``),
and the continue relation is "while nonzero", the FIFO capacity bounds
the loop: at most ``d`` iterations (``d - 1`` data words plus the zero
marker).

``# loop-bound`` annotations are **cross-checks** now, not trusted
inputs: an annotation that disagrees with an inferred bound is an
``error[loop-bound-mismatch]``; an annotation on a loop the engine
cannot bound is used, but flagged ``warning[loop-bound-trusted]``.

The rules run inside the one fixpoint.  :class:`LoopShape` is a loop's
structure, computed once from the CFG; every time a loop header's
in-state is updated, the engine asks it for a clamp — ``r ∈ init +
c*[0, n]`` for every stepped register, from the current entry join and
guard states — and meets the header state with it.  That is how the
widened pigasus append offset collapses back to ``len + [0, 32]`` and
the append store proves in-slot.  :func:`infer_loop_bounds` reads the
report off the final states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..riscv.isa import BRANCH_RELATIONS, NEGATED_RELATION, OPS, writes_rd
from .absint import U32, AbsintResult, AbsVal, _add, _sym, const
from .cfg import Diagnostic, FirmwareCfg, Loop

#: Bounds larger than this are rejected as widening artifacts — no
#: bundled firmware loops a million times per packet, and a bogus huge
#: bound would silently wreck the WCET instead of flagging the loop.
MAX_SANE_BOUND = 1 << 20


@dataclass(frozen=True)
class LoopBound:
    """One bounded loop: where the bound came from and why."""

    header: int
    bound: int
    source: str  # "induction" | "stream" | "annotation"
    detail: str = ""
    reg: Optional[int] = None  # induction register, when source == "induction"
    step: int = 0  # its per-iteration increment


@dataclass
class LoopBoundReport:
    """Inference results for every loop in one firmware CFG."""

    bounds: Dict[int, LoopBound] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)


# -- loop-local dominators ----------------------------------------------------


def local_dominators(cfg: FirmwareCfg, loop: Loop) -> Dict[int, Set[int]]:
    """Dominator sets over the loop body *with this loop's back edges
    removed*, rooted at the header.

    Global dominators cannot answer "does the increment run on every
    iteration": inside the body the question is about paths from the
    header to the back-edge tails, which is exactly dominance in the
    acyclic(ified) body subgraph.
    """
    body = loop.body
    back = set(loop.back_edges)
    preds: Dict[int, List[int]] = {n: [] for n in body}
    for n in sorted(body):
        if n not in cfg.blocks:
            continue
        for s in cfg.blocks[n].successors:
            if s in body and (n, s) not in back:
                preds[s].append(n)

    doms: Dict[int, Set[int]] = {loop.header: {loop.header}}
    others = sorted(body - {loop.header})
    for n in others:
        doms[n] = set(body)
    changed = True
    while changed:
        changed = False
        for n in others:
            plist = [doms[p] for p in preds[n] if p in doms]
            new = set.intersection(*plist) if plist else set()
            new = new | {n}
            if new != doms[n]:
                doms[n] = new
                changed = True
    return doms


_SWAPPED = {"lt": "gt", "ge": "le", "gt": "lt", "le": "ge", "eq": "eq", "ne": "ne"}


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# -- the per-loop structure ---------------------------------------------------


class LoopShape:
    """What the bound rules need of one loop that no abstract state
    changes, computed once before the fixpoint."""

    def __init__(self, cfg: FirmwareCfg, loop: Loop) -> None:
        self.cfg = cfg
        self.loop = loop
        self.doms = doms = local_dominators(cfg, loop)
        #: body blocks that dominate every back edge: they run on every
        #: iteration
        self.every = {
            s for s in loop.body
            if all(s in doms.get(tail, ()) for tail, _ in loop.back_edges)
        }
        defs: Dict[int, List[Tuple[int, object]]] = {}
        for start in sorted(loop.body):
            for inst in cfg.blocks[start].insts:
                if writes_rd(inst.mnemonic, inst.rd):
                    defs.setdefault(inst.rd, []).append((start, inst))
        #: registers the body writes (a guard's bound must not be one)
        self.written = set(defs)
        #: ``{reg: (def block, step)}`` for every register whose only
        #: write in the body is an ``addi r, r, step`` at this loop's own
        #: nesting level (not inside a deeper loop)
        self.stepped: Dict[int, Tuple[int, int]] = {}
        deeper = [o.body for o in cfg.loops.values() if o.parent == loop.header]
        for reg, sites in sorted(defs.items()):
            start, inst = sites[0]
            op = OPS[inst.mnemonic]
            if (len(sites) == 1 and op.kind == "alu-imm" and op.alu == "add"
                    and inst.rs1 == reg and inst.imm != 0
                    and not any(start in body for body in deeper)):
                self.stepped[reg] = (start, inst.imm)
        #: ``(guard block, continue relation, signed)`` for every block
        #: that runs on every iteration and ends in a conditional branch
        #: with exactly one loop-exiting successor
        self.guards: List[Tuple[int, str, bool]] = []
        for start in sorted(self.every):
            block = cfg.blocks[start]
            stays = [s for s in block.successors if s in loop.body]
            if block.taken is None or len(stays) != 1 or len(block.successors) != 2:
                continue
            relation, signed = BRANCH_RELATIONS[block.last.mnemonic]
            if stays[0] != block.taken:
                relation = NEGATED_RELATION[relation]
            self.guards.append((start, relation, signed))
        #: stores that run on every iteration: the stream rule's advance
        #: candidates
        self.stores = [
            (pc, inst)
            for start in sorted(self.every)
            for pc, inst in zip(cfg.blocks[start].pcs, cfg.blocks[start].insts)
            if OPS[inst.mnemonic].kind == "store"
        ]

    def infer(self, absres: AbsintResult) -> Optional[LoopBound]:
        """The induction rule's bound, else the stream rule's, read off
        ``absres``'s current states."""
        guards = []
        for guard, relation, signed in self.guards:
            state = absres.state_before(self.cfg.blocks[guard].pcs[-1])
            if state is not None:
                guards.append((guard, relation, signed, state))
        return self._induction(absres, guards) or self._stream(absres, guards)

    def _induction(self, absres: AbsintResult, guards) -> Optional[LoopBound]:
        cfg, loop = self.cfg, self.loop
        entry = absres.entry_joins.get(loop.header)
        if entry is None:
            return None
        for guard, relation, signed, state in guards:
            last = cfg.blocks[guard].last
            for reg, (def_block, step) in sorted(self.stepped.items()):
                if def_block not in self.every:
                    continue
                if last.rs1 == reg and last.rs2 != reg:
                    bound_reg, rel = last.rs2, relation
                elif last.rs2 == reg and last.rs1 != reg:
                    bound_reg, rel = last.rs1, _SWAPPED[relation]
                else:
                    continue
                # bound operand must be loop-invariant
                if bound_reg != 0 and bound_reg in self.written:
                    continue
                init, bval = entry.regs[reg], state.regs[bound_reg]
                if not init.is_plain or not bval.is_plain:
                    continue
                if signed and (init.hi >= 0x8000_0000 or bval.hi >= 0x8000_0000):
                    continue
                n = _iteration_count(rel, step, init, bval)
                if n is None:
                    continue
                # the increment runs strictly before the guard test when
                # its block dominates the guard's (the branch is last, so
                # the same block counts)
                if def_block not in self.doms.get(guard, ()):
                    n += 1
                n = max(n, 1)
                if n > MAX_SANE_BOUND:
                    continue
                return LoopBound(
                    header=loop.header,
                    bound=n,
                    source="induction",
                    detail=(
                        f"x{reg} = {init.describe()} step {step}, guard "
                        f"{last.mnemonic} vs {bval.describe()} at "
                        f"{cfg.describe(guard)}"
                    ),
                    reg=reg,
                    step=step,
                )
        return None

    def _stream(self, absres: AbsintResult, guards) -> Optional[LoopBound]:
        for guard, relation, _, state in guards:
            last = self.cfg.blocks[guard].last
            # a drain tests one register against zero and continues while
            # the word is nonzero
            if relation != "ne" or (last.rs1 == 0) == (last.rs2 == 0):
                continue
            tag = state.regs[last.rs1 or last.rs2].tag
            if not tag or tag[0] != "stream":
                continue
            _, offset, load_pc = tag
            registers = absres.env.accel.registers
            depth = registers[offset].stream_depth
            # the tagged load must run on every iteration, and so must an
            # advance of the stream, or the FIFO head never moves and the
            # loop spins forever
            if not any(load_pc in self.cfg.blocks[s].pcs for s in self.every):
                continue
            if not self._advances(absres, registers):
                continue
            return LoopBound(
                header=self.loop.header,
                bound=depth,
                source="stream",
                detail=(
                    f"drains accel stream @+{offset:#x} (depth {depth}) via "
                    f"load at 0x{load_pc:x}"
                ),
            )
        return None

    def _advances(self, absres: AbsintResult, registers) -> bool:
        """Some every-iteration store writes an accelerator register a
        value that provably pops the stream: the stored value's whole
        interval lies inside the row's ``advance_on``."""
        for pc, inst in self.stores:
            state = absres.state_before(pc)
            if state is None:
                continue
            addr = _add(state.regs[inst.rs1], const(inst.imm))
            if not addr.is_const:
                continue
            region, offset = absres.env.region_of(addr.lo)
            reg = registers.get(offset) if region == "accel" else None
            if reg is None or not reg.advance_on:
                continue
            value = state.regs[inst.rs2]
            # the write handler sees the whole register, whatever the width
            if value.is_plain and value.hi - value.lo < len(reg.advance_on) and all(
                v in reg.advance_on for v in range(value.lo, value.hi + 1)
            ):
                return True
        return False

    def clamp(self, absres: AbsintResult) -> Dict[int, AbsVal]:
        """``r ∈ init + step*[0, n]`` at the header for every stepped
        register — not just the guard's induction variable: the pigasus
        drain walks its append offset — where ``n`` is the inferred
        bound, else the annotation's.  ``init`` is the header's entry
        join, which sees only states from outside the loop."""
        inferred = self.infer(absres)
        bound = inferred.bound if inferred is not None else self.loop.bound
        entry = absres.entry_joins.get(self.loop.header)
        clamps: Dict[int, AbsVal] = {}
        if bound is None or entry is None:
            return clamps
        for reg, (_, step) in self.stepped.items():
            init = entry.regs[reg]
            lo, hi = init.lo + min(step, 0) * bound, init.hi + max(step, 0) * bound
            if not init.is_plain:
                clamps[reg] = _sym(init.base, init.lc, lo, hi)
            elif 0 <= lo and hi <= U32:  # a range that wraps clamps nothing
                clamps[reg] = AbsVal("num", 0, lo, hi)
        return clamps


def _iteration_count(relation: str, step: int, init: AbsVal, bval: AbsVal) -> Optional[int]:
    if step > 0:
        if relation == "lt":
            return max(_ceil_div(bval.hi - init.lo, step), 0)
        if relation == "le":
            return max(_ceil_div(bval.hi + 1 - init.lo, step), 0)
        if relation == "ne" and step == 1 and init.hi <= bval.lo:
            return bval.hi - init.lo
        return None
    if step < 0:
        if relation == "gt":
            return max(_ceil_div(init.hi - bval.lo, -step), 0)
        if relation == "ge":
            return max(_ceil_div(init.hi + 1 - bval.lo, -step), 0)
        if relation == "ne" and step == -1 and init.lo >= bval.hi:
            return init.hi - bval.lo
        return None
    return None


# -- the report ---------------------------------------------------------------


def infer_loop_bounds(absres: AbsintResult, shapes: Dict[int, LoopShape]) -> LoopBoundReport:
    """Every loop's bound, read off ``absres``'s final states, each
    cross-checked against the ``# loop-bound N`` annotation
    :func:`~repro.verify.cfg.analyze_source` left on the loop
    (``Loop.bound``), if any."""
    cfg = absres.cfg
    report = LoopBoundReport()
    for header, shape in sorted(shapes.items()):
        inferred = shape.infer(absres)
        annotated = shape.loop.bound
        if inferred is not None:
            if annotated is not None and annotated != inferred.bound:
                report.diagnostics.append(
                    Diagnostic(
                        "error",
                        "loop-bound-mismatch",
                        f"loop {cfg.describe(header)}: annotation says "
                        f"{annotated} iterations but {inferred.source} "
                        f"analysis proves {inferred.bound} ({inferred.detail})",
                        pc=header,
                        firmware=cfg.name,
                    )
                )
            report.bounds[header] = inferred
        elif annotated is not None:
            report.bounds[header] = LoopBound(
                header=header,
                bound=annotated,
                source="annotation",
                detail="trusted annotation; no induction variable or "
                "stream guard found",
            )
            report.diagnostics.append(
                Diagnostic(
                    "warning",
                    "loop-bound-trusted",
                    f"loop {cfg.describe(header)}: bound {annotated} comes "
                    "from an annotation the analyzer could not verify",
                    pc=header,
                    firmware=cfg.name,
                )
            )
    return report
