"""Worst-case cycles-per-packet bounds over a firmware CFG.

The bound is computed the way classic IPET-free WCET analyzers do it on
reducible loop nests:

1. find the **packet loop** — the outermost natural loop that touches
   the interconnect window (every bundled firmware's ``loop:``),
2. collapse each nested loop into a supernode costing
   ``bound x iteration-WCET`` (bounds are the ones
   :mod:`repro.verify.loopbound` inferred — ``# loop-bound N``
   annotations are its cross-checks — or a conservative default),
3. take the longest path through the resulting DAG from the loop
   header back around any back edge.

Costs come from the same :class:`repro.riscv.CycleModel` cost table
the ISS retires with, and block boundaries from the same
:mod:`repro.riscv.blocks` rules the translator fuses with — so the
static bound and the dynamic measurement can only diverge in the sound
direction (the analyzer assumes every branch takes its worst edge and
every inner loop runs to its bound).

Soundness caveats are documented in ``docs/STATIC_ANALYSIS.md``:
``jalr`` targets are not followed (flagged as a diagnostic), and
unannotated inner loops get :data:`DEFAULT_LOOP_BOUND` with a warning
rather than a proof.

Every value fact comes in through the one
:class:`~repro.verify.absint.AbsintResult` the caller passes —
:func:`repro.verify.registry.analyze_firmware` is where the passes are
chained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..riscv.cpu import CycleModel
from .absint import AbsintResult
from .cfg import BasicBlock, Diagnostic, FirmwareCfg, Loop

__all__ = [
    "DEFAULT_LOOP_BOUND",
    "TRAP_ENTRY_CYCLES",
    "CriticalStep",
    "WcetReport",
    "IrreducibleCfgError",
    "analyze_wcet",
]

#: Iteration cap assumed for inner loops without a ``# loop-bound N``
#: annotation.  Deliberately conservative: an unannotated drain loop is
#: charged 64 iterations per packet (and flagged).
DEFAULT_LOOP_BOUND = 64

#: Cycles ``RiscvCpu._take_interrupt`` charges before the first handler
#: instruction retires (trap entry latency).
TRAP_ENTRY_CYCLES = 3


# -- report structures --------------------------------------------------------


@dataclass(frozen=True)
class CriticalStep:
    """One node of the critical path: a block, or a collapsed loop."""

    pc: int
    where: str  # human-readable, e.g. "loop(0x18)" or "loop drain(0x54) x8"
    cycles: float  # this node's contribution to the bound

    def to_dict(self) -> dict:
        return {"pc": self.pc, "where": self.where, "cycles": self.cycles}


@dataclass
class WcetReport:
    name: str
    wcet_cycles: float  # worst-case cycles per packet (sw path)
    packet_loop: Optional[int]  # header pc of the per-packet loop
    critical_path: List[CriticalStep] = field(default_factory=list)
    handlers: Dict[str, float] = field(default_factory=dict)
    loop_bounds: Dict[str, int] = field(default_factory=dict)
    #: where each used bound came from: "inferred" (induction/stream
    #: analysis), "annotation" (trusted ``# loop-bound``), or "default"
    bound_provenance: Dict[str, str] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def chain(self) -> str:
        return " -> ".join(step.where for step in self.critical_path)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wcet_cycles": self.wcet_cycles,
            "packet_loop": self.packet_loop,
            "critical_path": [s.to_dict() for s in self.critical_path],
            "handlers": self.handlers,
            "loop_bounds": self.loop_bounds,
            "bound_provenance": self.bound_provenance,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class IrreducibleCfgError(Exception):
    """The loop nest cannot be collapsed into a DAG (irreducible
    control flow, or loops sharing bodies without nesting)."""


# -- the analyzer -------------------------------------------------------------


class _Wcet:
    def __init__(
        self,
        cfg: FirmwareCfg,
        absres: AbsintResult,
        cycle_model: CycleModel,
        infeasible: Set[Tuple[int, int]],
    ) -> None:
        self.cfg = cfg
        self.costs = cycle_model.cost_table()
        self.taken = cycle_model.branch_taken_cost
        self.diags: List[Diagnostic] = []
        self.used_bounds: Dict[str, int] = {}
        self.used_provenance: Dict[str, str] = {}
        #: loop header pc -> :class:`~repro.verify.loopbound.LoopBound`
        self.bounds = absres.loop_bounds.bounds
        #: CFG edges the abstract interpreter proved can never be taken;
        #: the longest-path search skips them (loop back edges are never
        #: in this set — the final-sweep refinement runs on loop-exit
        #: tests with the fixpoint state, which keeps the continue edge)
        self.infeasible = infeasible

    # node/edge costs ------------------------------------------------------

    def body_cost(self, block: BasicBlock) -> int:
        """Cost of every instruction but the last (that one is charged
        on the out-edge, where taken/not-taken is known)."""
        return sum(self.costs[i.cost_class] for i in block.insts[:-1])

    def exit_cost(self, block: BasicBlock) -> int:
        """Cost of the last instruction when the path *ends* here
        (ebreak, mret, or a sink)."""
        last = block.last
        return self.costs[last.cost_class] if last is not None else 0

    def edge_cost(self, block: BasicBlock, succ: int) -> int:
        last = block.last
        if last is None:
            return 0
        # a branch to its own fall-through has only the taken edge to pay
        return self.taken if succ == block.taken else self.costs[last.cost_class]

    def bound_for(self, header: int) -> int:
        label = self.cfg.label_at(header) or f"0x{header:x}"
        proven = self.bounds.get(header)
        if proven is not None:
            bound = proven.bound
            provenance = "annotation" if proven.source == "annotation" else "inferred"
        else:
            bound, provenance = DEFAULT_LOOP_BOUND, "default"
            self.diags.append(
                Diagnostic(
                    "warning",
                    "unannotated-loop",
                    f"inner loop at {self.cfg.describe(header)} has no "
                    "inferred or annotated bound; assuming "
                    f"{bound} iterations per packet",
                    pc=header,
                    firmware=self.cfg.name,
                )
            )
        self.used_bounds[label] = bound
        self.used_provenance[label] = provenance
        return bound

    # collapse, then longest path ------------------------------------------

    def longest(
        self, nodes: Set[int], src: int, own: Optional[Loop] = None
    ) -> Tuple[float, List[CriticalStep]]:
        """Worst-case cycles from ``src`` through ``nodes``, every loop
        nested in them collapsed into a supernode costing ``bound x
        iteration-WCET``.  With ``own`` (the loop whose body ``nodes``
        is) the path runs from the header back around the costliest
        back edge — one full iteration; without, to the costliest sink
        of the region."""
        cfg = self.cfg
        inside = {h for h, lp in cfg.loops.items() if lp is not own and lp.body <= nodes}
        tops = {h for h in inside if cfg.loops[h].parent not in inside}
        rep = {node: h for h in tops for node in cfg.loops[h].body}
        if own is not None and src in rep:
            raise IrreducibleCfgError(
                f"loop {cfg.describe(src)} header sits inside a nested loop body"
            )
        src = rep.get(src, src)

        # collapsed node id: block pc, or collapsed-loop header pc
        cnodes = {rep.get(n, n) for n in nodes}
        edges: Dict[int, List[Tuple[int, float]]] = {n: [] for n in cnodes}
        for node in sorted(nodes):
            block = cfg.blocks[node]
            for succ in block.successors:
                if succ not in nodes:
                    continue  # leaves the region: charged by the caller
                if own is not None and (node, succ) in own.back_edges:
                    continue  # the back edge closes the iteration
                if (node, succ) in self.infeasible:
                    continue  # proven never-taken: prune the path
                ru, rv = rep.get(node, node), rep.get(succ, succ)
                if ru != rv:  # else internal to one collapsed loop
                    edges[ru].append((rv, self.edge_cost(block, succ)))

        weights: Dict[int, float] = {}
        notes: Dict[int, str] = {}
        for n in sorted(cnodes):
            if n in tops:
                bound = self.bound_for(n)
                inner, _ = self.longest(cfg.loops[n].body, n, cfg.loops[n])
                weights[n] = bound * inner
                notes[n] = f"loop {cfg.describe(n)} x{bound}"
            else:
                weights[n] = float(self.body_cost(cfg.blocks[n]))
                notes[n] = cfg.describe(n)

        # where a path may end, and what ending there costs on top
        if own is not None:
            ends = [
                (rep.get(tail, tail), self.edge_cost(cfg.blocks[tail], header))
                for tail, header in own.back_edges
            ]
        else:
            ends = [
                (n, 0.0 if n in tops else float(self.exit_cost(cfg.blocks[n])))
                for n in sorted(cnodes)
                if not edges[n]
            ]
        best = -1.0
        best_path: List[CriticalStep] = []
        for end, extra in ends:
            cycles, path = _longest_path(src, end, cnodes, edges, weights, notes)
            if cycles >= 0 and cycles + extra > best:
                best, best_path = cycles + extra, path
        if best < 0:
            # also what infeasible-edge pruning that disconnected the
            # region looks like: analyze_wcet retries without pruning
            raise IrreducibleCfgError(
                f"no path from {cfg.describe(src)} to "
                + ("any back edge" if own is not None else "any sink")
            )
        return best, best_path


def _longest_path(
    src: int,
    dst: int,
    nodes: Set[int],
    edges: Dict[int, List[Tuple[int, float]]],
    weights: Dict[int, float],
    notes: Dict[int, str],
) -> Tuple[float, List[CriticalStep]]:
    """Longest ``src -> dst`` path in a DAG (node + edge weights).
    Returns ``(-1, [])`` when ``dst`` is unreachable; raises
    :class:`IrreducibleCfgError` on a cycle."""
    memo: Dict[int, Tuple[float, Optional[Tuple[int, float]]]] = {}
    on_stack: Set[int] = set()

    def visit(node: int) -> float:
        if node == dst:
            memo[node] = (weights[node], None)
            return weights[node]
        cached = memo.get(node)
        if cached is not None:
            return cached[0]
        if node in on_stack:
            raise IrreducibleCfgError("cycle survived loop collapse")
        on_stack.add(node)
        best = -1.0
        best_next: Optional[Tuple[int, float]] = None
        for succ, ecost in edges.get(node, ()):
            if succ not in nodes:
                continue
            sub = visit(succ)
            if sub < 0:
                continue
            total = weights[node] + ecost + sub
            if total > best:
                best = total
                best_next = (succ, ecost)
        on_stack.discard(node)
        memo[node] = (best, best_next)
        return best

    total = visit(src)
    if total < 0:
        return -1.0, []
    path: List[CriticalStep] = []
    node: Optional[int] = src
    while node is not None:
        entry = memo[node]
        path.append(CriticalStep(pc=node, where=notes[node], cycles=weights[node]))
        nxt = entry[1]
        node = nxt[0] if nxt else None
    return total, path


def analyze_wcet(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    cycle_model: Optional[CycleModel] = None,
    *,
    infeasible: Optional[Set[Tuple[int, int]]] = None,
) -> WcetReport:
    """Worst-case cycles-per-packet bound for ``cfg``.

    ``absres`` is the deep abstract-interpretation result for ``cfg``
    (:func:`repro.verify.absint.deep_analyze`): its ``loop_bounds``
    supply every loop's iteration bound and provenance, its resolved
    accesses find the packet loop, and its statically infeasible edges
    are pruned from the longest-path search (``infeasible`` overrides
    that set — pass ``set()`` for the unpruned bound).
    """
    cm = cycle_model or CycleModel.vexriscv_full()
    if infeasible is None:
        infeasible = absres.infeasible_edges
    diags: List[Diagnostic] = list(absres.loop_bounds.diagnostics)

    for attempt_infeasible in (set(infeasible), set()):
        report = _analyze_with(cfg, absres, _Wcet(cfg, absres, cm, attempt_infeasible))
        failed = any(d.code == "irreducible-cfg" for d in report.diagnostics)
        if failed and attempt_infeasible:
            diags.append(
                Diagnostic(
                    "note",
                    "infeasible-pruning-disabled",
                    "infeasible-edge pruning disconnected the analysis; "
                    "recomputed without it (looser but sound)",
                    firmware=cfg.name,
                )
            )
            continue
        break

    report.diagnostics = diags + report.diagnostics
    return report


def _analyze_with(cfg: FirmwareCfg, absres: AbsintResult, w: _Wcet) -> WcetReport:
    report = WcetReport(name=cfg.name, wcet_cycles=0.0, packet_loop=None)

    # the packet loop: outermost loop touching the interconnect window
    io_pcs = {
        acc.pc for acc, region, _ in absres.resolved() if region == "interconnect"
    }
    candidates = [
        lp
        for lp in cfg.loops.values()
        if lp.parent is None
        and any(pc in io_pcs for node in lp.body for pc in cfg.blocks[node].pcs)
    ]

    try:
        if candidates:
            best = -1.0
            for lp in candidates:
                cycles, path = w.longest(lp.body, lp.header, lp)
                if cycles > best:
                    best = cycles
                    report.packet_loop = lp.header
                    report.critical_path = path
            report.wcet_cycles = best
            if len(candidates) > 1:
                w.diags.append(
                    Diagnostic(
                        "note",
                        "multiple-packet-loops",
                        f"{len(candidates)} outermost loops touch the "
                        "interconnect; reporting the costliest",
                        firmware=cfg.name,
                    )
                )
        else:
            # straight-line firmware (or loops never touch the
            # interconnect): bound the entry-to-halt path instead
            cycles, path = w.longest(cfg.reachable(cfg.entry), cfg.entry)
            report.wcet_cycles = cycles
            report.critical_path = path
            w.diags.append(
                Diagnostic(
                    "note",
                    "no-packet-loop",
                    "no loop touches the interconnect window; bounding "
                    "the entry-to-halt path as the per-packet cost",
                    firmware=cfg.name,
                )
            )
    except IrreducibleCfgError as exc:
        report.wcet_cycles = float("inf")
        w.diags.append(
            Diagnostic(
                "error",
                "irreducible-cfg",
                f"cannot bound the packet loop: {exc}",
                firmware=cfg.name,
            )
        )

    # trap handlers, separately: entry latency + longest path to mret
    for root in cfg.entries[1:]:
        label = cfg.label_at(root) or f"0x{root:x}"
        try:
            cycles, _ = w.longest(cfg.reachable(root), root)
            report.handlers[label] = TRAP_ENTRY_CYCLES + cycles
        except IrreducibleCfgError as exc:
            report.handlers[label] = float("inf")
            w.diags.append(
                Diagnostic(
                    "error",
                    "irreducible-cfg",
                    f"cannot bound handler '{label}': {exc}",
                    pc=root,
                    firmware=cfg.name,
                )
            )

    report.loop_bounds = dict(w.used_bounds)
    report.bound_provenance = dict(w.used_provenance)
    report.diagnostics = w.diags
    return report
