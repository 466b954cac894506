"""Memory-safety verdicts from the abstract-interpretation fixpoint.

Every load/store site the interpreter collected carries an abstract
address (:class:`~repro.verify.absint.AbsVal`).  This module turns each
one into a verdict:

* ``proven`` — every concrete address the abstraction admits lies in a
  declared region the access is allowed to touch;
* ``violation`` — *no* admitted address is legal (an unmapped hole, a
  store into the text segment, a packet offset past the slot): the
  abstraction over-approximates the program, so an always-illegal
  abstract access is a real bug;
* ``unproven`` — the abstraction admits both legal and illegal
  addresses.  Sound analyses cannot call these safe; they surface as
  warnings (stores) or notes (loads) with full provenance so the
  operator can decide.

Three address shapes get dedicated rules.  **Packet pointers** (base
``pkt``) are slot-relative: the DMA engine places each frame at
``PKT_OFFSET`` inside a ``slot_bytes`` slot, so an offset interval
within ``[-PKT_OFFSET, slot_bytes - PKT_OFFSET)`` is in-slot for every
slot simultaneously; a separate *informational* check reports whether
the access is also within the received frame (``pkt_len``) rather than
merely within the slot.  **Stack pointers** (base ``sp``) become depth
obligations — the worst excursion is checked against the per-RPU
``RosebudConfig.stack_bytes`` allocation.  **Plain numbers** are
checked against the region map; a store that can only land in the
read-only text segment is reported as ``error[smc-store]`` (the static
twin of the runtime ``RiscvCpu._store_watch``), every other violation
as ``error[memsafe-violation]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .absint import U32, AbsAccess, AbsintResult, MachineEnv
from .cfg import Diagnostic, FirmwareCfg


@dataclass
class AccessCheck:
    """One access site's verdict, with enough provenance to debug it."""

    pc: int
    kind: str  # "load" | "store"
    nbytes: int
    addr_desc: str
    verdict: str  # "proven" | "unproven" | "violation"
    region: Optional[str] = None
    detail: str = ""
    within_pkt_len: Optional[bool] = None  # packet accesses only

    def to_dict(self) -> dict:
        out = {
            "pc": f"0x{self.pc:x}",
            "kind": self.kind,
            "nbytes": self.nbytes,
            "addr": self.addr_desc,
            "verdict": self.verdict,
            "region": self.region,
            "detail": self.detail,
        }
        if self.within_pkt_len is not None:
            out["within_pkt_len"] = self.within_pkt_len
        return out


@dataclass
class MemSafetyReport:
    """Memory-safety summary for one firmware."""

    firmware: str
    checks: List[AccessCheck] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    stack_depth_bytes: int = 0
    stack_limit_bytes: int = 0
    analysis_incomplete: bool = False

    @property
    def proven(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "proven")

    @property
    def unproven(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "unproven")

    @property
    def violations(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "violation")

    @property
    def passed(self) -> bool:
        """No violation, stack within its allocation, analysis ran to
        fixpoint.  ``unproven`` accesses do not fail the verdict — they
        are surfaced, not silently trusted."""
        return (
            not self.analysis_incomplete
            and self.violations == 0
            and self.stack_depth_bytes <= self.stack_limit_bytes
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "accesses": len(self.checks),
            "proven": self.proven,
            "unproven": self.unproven,
            "violations": self.violations,
            "stack_depth_bytes": self.stack_depth_bytes,
            "stack_limit_bytes": self.stack_limit_bytes,
            "analysis_incomplete": self.analysis_incomplete,
            "checks": [c.to_dict() for c in self.checks],
        }


# -- per-shape rules ----------------------------------------------------------


def _check_pkt(acc: AbsAccess, env: MachineEnv) -> AccessCheck:
    # slot-relative window the DMA engine guarantees for every slot
    lo_ok = -env.pkt_offset
    hi_ok = env.slot_bytes - env.pkt_offset  # exclusive
    eff_lo = acc.addr.lo
    eff_hi = acc.addr.hi + acc.addr.lc * env.max_frame

    if lo_ok <= eff_lo and eff_hi + acc.nbytes <= hi_ok:
        verdict = "proven"
        detail = (
            f"slot offset [{eff_lo}, {eff_hi + acc.nbytes}) within "
            f"[{lo_ok}, {hi_ok})"
        )
    elif eff_hi < lo_ok or eff_lo + acc.nbytes > hi_ok:
        verdict = "violation"
        detail = (
            f"every admitted offset [{eff_lo}, {eff_hi}] falls outside "
            f"the packet slot [{lo_ok}, {hi_ok})"
        )
    else:
        verdict = "unproven"
        detail = (
            f"offset range [{eff_lo}, {eff_hi}] may leave the packet "
            f"slot [{lo_ok}, {hi_ok})"
        )

    # informational: inside the *received frame*, not just the slot
    if acc.addr.lc == 1:
        within = acc.addr.hi + acc.nbytes <= 0
    else:
        within = acc.addr.hi + acc.nbytes <= env.min_frame
    return AccessCheck(
        pc=acc.pc,
        kind=acc.kind,
        nbytes=acc.nbytes,
        addr_desc=acc.addr.describe(),
        verdict=verdict,
        region="pmem",
        detail=detail,
        within_pkt_len=within,
    )


# front door: stack-relative loads and stores; no bundled firmware
# touches its stack
def _check_sp(acc: AbsAccess, env: MachineEnv) -> AccessCheck:
    lo, hi = acc.addr.lo, acc.addr.hi
    if -env.stack_bytes <= lo and hi + acc.nbytes <= 0:
        return AccessCheck(
            pc=acc.pc,
            kind=acc.kind,
            nbytes=acc.nbytes,
            addr_desc=acc.addr.describe(),
            verdict="proven",
            region="stack",
            detail=f"stack depth {-lo} of {env.stack_bytes} bytes",
        )
    if hi + acc.nbytes > 0:
        detail = "access above the stack top"
    else:
        detail = f"stack excursion {-lo} exceeds the {env.stack_bytes}-byte allocation"
    return AccessCheck(
        pc=acc.pc,
        kind=acc.kind,
        nbytes=acc.nbytes,
        addr_desc=acc.addr.describe(),
        verdict="unproven",
        region="stack",
        detail=detail,
    )


def _check_plain(acc: AbsAccess, env: MachineEnv) -> AccessCheck:
    lo, hi = acc.addr.lo, acc.addr.hi + acc.nbytes - 1
    common = dict(
        pc=acc.pc, kind=acc.kind, nbytes=acc.nbytes, addr_desc=acc.addr.describe()
    )
    if hi > U32:
        return AccessCheck(
            verdict="unproven",
            detail="address interval wraps past 2^32",
            **common,
        )
    containing = None
    touches = []
    for region in env.regions:
        if region.base <= lo and hi < region.end:
            containing = region
        if lo < region.end and hi >= region.base:
            touches.append(region)
    if containing is not None:
        if acc.kind == "store" and not containing.writable:
            return AccessCheck(
                verdict="violation",
                region=containing.name,
                detail=f"store into read-only region '{containing.name}'",
                **common,
            )
        return AccessCheck(
            verdict="proven",
            region=containing.name,
            detail=(
                f"[{lo:#x}, {hi:#x}] within {containing.name} "
                f"[{containing.base:#x}, {containing.end:#x})"
            ),
            **common,
        )
    if not touches:
        return AccessCheck(
            verdict="violation",
            detail=f"[{lo:#x}, {hi:#x}] maps to no declared region",
            **common,
        )
    return AccessCheck(
        verdict="unproven",
        region=touches[0].name if len(touches) == 1 else None,
        detail=(
            f"[{lo:#x}, {hi:#x}] spans "
            + ", ".join(r.name for r in touches)
            + " and unmapped space"
        ),
        **common,
    )


# -- entry point --------------------------------------------------------------


def check_memory_safety(
    cfg: FirmwareCfg,
    absres: AbsintResult,
    env: Optional[MachineEnv] = None,
) -> MemSafetyReport:
    """Verdict every access site and bound the stack."""
    env = env or absres.env
    report = MemSafetyReport(
        firmware=cfg.name,
        stack_limit_bytes=env.stack_bytes,
        analysis_incomplete=absres.incomplete,
    )

    read_only = {region.name for region in env.regions if not region.writable}
    stack_depth = 0  # deepest *accessed* byte below the stack top
    for acc in absres.accesses:
        addr = acc.addr
        if addr.base == "pkt":
            check = _check_pkt(acc, env)
        elif addr.base == "sp":
            check = _check_sp(acc, env)
            if addr.lo > -(1 << 33):  # ignore widened sentinels
                stack_depth = max(stack_depth, -addr.lo)
        elif addr.is_plain:
            check = _check_plain(acc, env)
        else:
            check = AccessCheck(
                pc=acc.pc,
                kind=acc.kind,
                nbytes=acc.nbytes,
                addr_desc=addr.describe(),
                verdict="unproven",
                detail="symbolic address shape not supported",
            )
        report.checks.append(check)

        if check.verdict == "violation":
            report.diagnostics.append(
                Diagnostic(
                    "error",
                    "smc-store" if check.region in read_only else "memsafe-violation",
                    f"{check.kind} of {check.nbytes} byte(s) at "
                    f"{check.addr_desc}: {check.detail}",
                    pc=check.pc,
                    firmware=cfg.name,
                )
            )
        elif check.verdict == "unproven":
            level = "warning" if check.kind == "store" else "note"
            report.diagnostics.append(
                Diagnostic(
                    level,
                    "memsafe-unproven",
                    f"{check.kind} of {check.nbytes} byte(s) at "
                    f"{check.addr_desc}: {check.detail}",
                    pc=check.pc,
                    firmware=cfg.name,
                )
            )

    report.stack_depth_bytes = stack_depth
    if stack_depth > env.stack_bytes:
        report.diagnostics.append(
            Diagnostic(
                "error",
                "stack-overflow",
                f"worst-case stack depth {stack_depth} bytes exceeds the "
                f"per-RPU allocation of {env.stack_bytes} bytes",
                firmware=cfg.name,
            )
        )
    if absres.incomplete:
        report.diagnostics.append(
            Diagnostic(
                "error",
                "absint-incomplete",
                "abstract interpretation hit its iteration cap; all "
                "verdicts degraded to unproven",
                firmware=cfg.name,
            )
        )
    return report
