"""Loop-bound inference: induction variables, stream drains, cross-checks.

PR 5's WCET engine trusted ``# loop-bound N`` annotations.  This module
*derives* bounds from the program instead, using two rules over the
abstract-interpretation fixpoint (:mod:`repro.verify.absint`):

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
an accelerator register declaring ``stream_depth=d`` (see
``Accelerator.define_register``), the loop body also advances the
stream (a store to a ``stream_advance`` register), and the continue
relation is "while nonzero", the FIFO capacity bounds the loop: at most
``d`` iterations (``d - 1`` data words plus the zero marker).

``# loop-bound`` annotations are **cross-checks** now, not trusted
inputs: an annotation that disagrees with an inferred bound is an
``error[loop-bound-mismatch]``; an annotation on a loop the engine
cannot bound is used, but flagged ``warning[loop-bound-trusted]``.

:func:`induction_clamps` converts inferred bounds back into abstract
facts — ``r ∈ init + c*[0, n]`` at the header — for the second fixpoint
pass, which is how the widened pigasus byte-copy offset collapses back
to ``len + [0, 35]`` and the append store proves in-slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..riscv.isa import BRANCH_RELATIONS, NEGATED_RELATION, OPS, writes_rd
from .absint import U32, AbsintResult, AbsVal, MachineEnv, _sym
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


# -- helpers ------------------------------------------------------------------


def _defs_of(cfg: FirmwareCfg, loop: Loop, reg: int) -> List[Tuple[int, int, object]]:
    """``(block start, pc, inst)`` for every write of ``reg`` in the body."""
    out = []
    for start in sorted(loop.body):
        block = cfg.blocks.get(start)
        if block is None:
            continue
        for pc, inst in zip(block.pcs, block.insts):
            if writes_rd(inst.mnemonic, inst.rd) and inst.rd == reg:
                out.append((start, pc, inst))
    return out


def _stepped_registers(cfg: FirmwareCfg, loop: Loop) -> Dict[int, Tuple[int, int]]:
    """``{reg: (def block, step)}`` for every register whose only write
    in the body is an ``addi r, r, step`` at this loop's own nesting
    level (not inside a deeper loop)."""
    written = {
        inst.rd
        for start in loop.body
        for inst in cfg.blocks[start].insts
        if writes_rd(inst.mnemonic, inst.rd)
    }
    deeper = [o.body for o in cfg.loops.values() if o.parent == loop.header]
    out: Dict[int, Tuple[int, int]] = {}
    for reg in sorted(written):
        defs = _defs_of(cfg, loop, reg)
        if len(defs) != 1:
            continue
        start, _, inst = defs[0]
        op = OPS[inst.mnemonic]
        if op.kind != "alu-imm" or op.alu != "add" or inst.rs1 != reg or inst.imm == 0:
            continue
        if any(start in body for body in deeper):
            continue
        out[reg] = (start, inst.imm)
    return out


def _dominates_all_tails(doms: Dict[int, Set[int]], loop: Loop, start: int) -> bool:
    return all(start in doms.get(tail, set()) for tail, _ in loop.back_edges)


def _guard_blocks(cfg: FirmwareCfg, loop: Loop, doms: Dict[int, Set[int]]) -> List[int]:
    """Body blocks that dominate every back edge and end in a
    conditional branch with exactly one loop-exiting successor."""
    out = []
    for start in sorted(loop.body):
        block = cfg.blocks.get(start)
        if block is None or block.taken is None:
            continue
        if not _dominates_all_tails(doms, loop, start):
            continue
        exits = [s for s in block.successors if s not in loop.body]
        stays = [s for s in block.successors if s in loop.body]
        if len(exits) == 1 and len(stays) == 1:
            out.append(start)
    return out


def _continue_relation(cfg: FirmwareCfg, loop: Loop, guard: int) -> Tuple[str, bool, int]:
    """``(relation, signed, continue successor)`` on the stay-in-loop
    edge of the guard branch."""
    block = cfg.blocks[guard]
    relation, signed = BRANCH_RELATIONS[block.last.mnemonic]
    stay = next(s for s in block.successors if s in loop.body)
    if stay != block.taken:
        relation = NEGATED_RELATION[relation]
    return relation, signed, stay


_SWAPPED = {"lt": "gt", "ge": "le", "gt": "lt", "le": "ge", "eq": "eq", "ne": "ne"}


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# -- the induction rule -------------------------------------------------------


def _infer_induction(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    loop: Loop,
    doms: Dict[int, Set[int]],
) -> Optional[LoopBound]:
    guards = _guard_blocks(cfg, loop, doms)
    if not guards:
        return None

    # candidate induction registers: a stepped register whose def
    # dominates every back edge
    candidates = {
        reg: cand
        for reg, cand in _stepped_registers(cfg, loop).items()
        if _dominates_all_tails(doms, loop, cand[0])
    }

    entry = absres.entry_joins.get(loop.header)
    if entry is None or not candidates:
        return None

    for guard in guards:
        block = cfg.blocks[guard]
        last = block.last
        for reg, (def_block, step) in sorted(candidates.items()):
            if last.rs1 == reg and last.rs2 != reg:
                bound_reg = last.rs2
                swap = False
            elif last.rs2 == reg and last.rs1 != reg:
                bound_reg = last.rs1
                swap = True
            else:
                continue
            # bound operand must be loop-invariant
            if bound_reg != 0 and _defs_of(cfg, loop, bound_reg):
                continue
            relation, signed, _ = _continue_relation(cfg, loop, guard)
            if swap:
                relation = _SWAPPED[relation]

            init = entry.regs[reg]
            state = absres.state_before(block.pcs[-1])
            bval = state.regs[bound_reg] if state is not None else None
            if bval is None or not init.is_plain or not bval.is_plain:
                continue
            if signed and (init.hi >= 0x8000_0000 or bval.hi >= 0x8000_0000):
                continue

            n = _iteration_count(relation, step, init, bval)
            if n is None:
                continue
            # increment strictly before the guard test?  same block
            # (branch is last, so the addi precedes it) or the def
            # block strictly dominates the guard block.
            before = def_block == guard or (
                def_block != guard and def_block in doms.get(guard, set())
            )
            if not before:
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


# -- the stream rule ----------------------------------------------------------


def _infer_stream(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    env: MachineEnv,
    loop: Loop,
    doms: Dict[int, Set[int]],
) -> Optional[LoopBound]:
    accel = env.accel
    reg_meta = getattr(accel, "reg_meta", None)
    if not callable(reg_meta):
        return None

    for guard in _guard_blocks(cfg, loop, doms):
        block = cfg.blocks[guard]
        last = block.last
        if BRANCH_RELATIONS[last.mnemonic][0] not in ("eq", "ne"):
            continue
        if last.rs2 == 0 and last.rs1 != 0:
            tested = last.rs1
        elif last.rs1 == 0 and last.rs2 != 0:
            tested = last.rs2
        else:
            continue
        relation, _, _ = _continue_relation(cfg, loop, guard)
        if relation != "ne":
            continue  # a drain continues while the word is nonzero
        state = absres.state_before(block.pcs[-1])
        if state is None:
            continue
        tag = state.regs[tested].tag
        if not tag or tag[0] != "stream":
            continue
        _, offset, load_pc = tag
        meta = reg_meta(offset) or {}
        depth = meta.get("stream_depth")
        if not depth:
            continue
        # the tagged load must run on every iteration
        load_block = _body_block(cfg, loop, load_pc)
        if load_block is None or not _dominates_all_tails(doms, loop, load_block):
            continue
        # ... and so must an advance of the same stream, or the FIFO
        # head never moves and the loop spins forever
        if not _has_dominating_advance(cfg, absres, loop, doms, reg_meta):
            continue
        return LoopBound(
            header=loop.header,
            bound=depth,
            source="stream",
            detail=(
                f"drains accel stream @+{offset:#x} (depth {depth}) via "
                f"load at 0x{load_pc:x}"
            ),
        )
    return None


def _body_block(cfg: FirmwareCfg, loop: Loop, pc: int) -> Optional[int]:
    """The body block holding ``pc``, if any."""
    return next((s for s in loop.body if pc in cfg.blocks[s].pcs), None)


def _has_dominating_advance(cfg, absres, loop, doms, reg_meta) -> bool:
    for acc, region, offset in absres.resolved():
        if acc.kind != "store" or region != "accel":
            continue
        if not (reg_meta(offset) or {}).get("stream_advance"):
            continue
        store_block = _body_block(cfg, loop, acc.pc)
        if store_block is not None and _dominates_all_tails(doms, loop, store_block):
            return True
    return False


# -- entry points -------------------------------------------------------------


def infer_loop_bounds(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    env: Optional[MachineEnv] = None,
) -> LoopBoundReport:
    """Infer a bound for every loop in ``cfg`` and cross-check it against
    the ``# loop-bound N`` annotation :func:`~repro.verify.cfg.analyze_source`
    left on the loop (``Loop.bound``), if any."""
    env = env or absres.env
    report = LoopBoundReport()

    for header in sorted(cfg.loops):
        loop = cfg.loops[header]
        doms = local_dominators(cfg, loop)
        inferred = _infer_induction(cfg, absres, loop, doms)
        if inferred is None:
            inferred = _infer_stream(cfg, absres, env, loop, doms)

        annotated = loop.bound
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


def induction_clamps(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    report: LoopBoundReport,
) -> Dict[int, Dict[int, AbsVal]]:
    """Per-header register clamps for the second fixpoint pass.

    For every bounded loop, every single-def ``addi r, r, c`` register
    (not just the guard's induction variable — the pigasus byte-copy
    walks *two* counters) is confined to ``init + c*[0, n]``.  The init
    value comes from the first pass's entry joins, which only see
    states from outside the loop — a sound superset of the real entry
    values, so meeting with the clamp at the header is sound.
    """
    clamps: Dict[int, Dict[int, AbsVal]] = {}
    for header, lb in sorted(report.bounds.items()):
        loop = cfg.loops.get(header)
        entry = absres.entry_joins.get(header)
        if loop is None or entry is None:
            continue
        for reg, (_, step) in _stepped_registers(cfg, loop).items():
            init = entry.regs[reg]
            span = abs(step) * lb.bound
            if step > 0:
                lo, hi = init.lo, init.hi + span
            else:
                lo, hi = init.lo - span, init.hi
            if init.is_plain:
                if hi > U32:
                    continue  # wrapped: no useful clamp
                clamp = AbsVal("num", 0, max(lo, 0), hi)
            else:
                clamp = _sym(init.base, init.lc, lo, hi)
            clamps.setdefault(header, {})[reg] = clamp
    return clamps
