"""Engine pre-flight: verify an :class:`ExperimentSpec` before running.

``run_experiment`` calls :func:`preflight_spec` when ``spec.verify`` is
set.  The behavioural firmware class on the spec is mapped to its
assembly twin in the registry, the twin's WCET bound is checked against
the spec's (clock, RPUs, size, offered Gbps) operating point with the
same centralized budget formula ``repro verify`` uses.  The replay
lint's classification of the class is reported alongside; it gates the
fluid tier, not the pre-flight.  A FAIL either warns
(``verify="warn"``) or raises :class:`VerificationError`
(``verify="fail"``/``True``) before any pool time is spent; sweep
workers surface the raise as a per-point error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .budget import BudgetVerdict, budget_verdict
from .cfg import Diagnostic
from .memsafe import MemSafetyReport
from .registry import analyze_firmware, bundled_firmwares
from .replaylint import ReplayLintReport, lint_firmware_class
from .wcet import WcetReport


class VerificationError(RuntimeError):
    """A spec with ``verify="fail"`` failed static verification."""

    # front door: error path; a `verify="fail"` spec that fails pre-flight
    def __init__(self, message: str, report: "PreflightReport" = None) -> None:
        super().__init__(message)
        self.report = report


#: Behavioural firmware class name -> bundled assembly twin whose WCET
#: stands in for it, derived from the registry's ``models`` (the first
#: entry naming a class wins).  Classes without a twin (NAT, chain
#: stages) get an informational note instead of a budget verdict.
FIRMWARE_ASM_TWINS: Dict[str, str] = {}
for _fw in bundled_firmwares():
    for _cls_name in _fw.models:
        FIRMWARE_ASM_TWINS.setdefault(_cls_name, _fw.name)

#: (asm name) -> (WcetReport, accel, MemSafetyReport) cache; the
#: ``analyze_firmware`` pass is pure, so sweeps re-verify each point
#: with arithmetic only.
_WCET_CACHE: Dict[str, Tuple[WcetReport, Optional[object], MemSafetyReport]] = {}


@dataclass
class PreflightReport:
    spec_name: str
    firmware_cls: str
    asm_twin: Optional[str] = None
    verdict: Optional[BudgetVerdict] = None
    safety: Optional[MemSafetyReport] = None
    lint: Optional[ReplayLintReport] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        if self.verdict is not None and not self.verdict.passed:
            return True
        if self.verdict is not None and self.verdict.memory_safe is False:
            return True
        return False

    def summary(self) -> str:
        parts: List[str] = []
        if self.verdict is not None:
            parts.append(self.verdict.summary())
        elif self.asm_twin is None:
            parts.append(
                f"{self.firmware_cls}: no assembly twin registered; "
                "budget not statically checked"
            )
        if self.verdict is not None and self.verdict.memory_safe is False:
            parts.append(
                f"{self.asm_twin}: memory safety NOT proven "
                f"({self.safety.violations if self.safety else '?'} "
                "violation(s))"
            )
        if self.lint is not None:
            parts.append(
                f"replay lint: {self.lint.cls_name} is "
                f"{self.lint.classification}"
            )
        return "; ".join(parts) or "nothing verified"


def _twin_wcet(asm_name: str):
    """Deep-verify a registry firmware once and cache the
    (WCET, accelerator, memory-safety) triple — the abstract
    interpretation is deterministic and spec-independent."""
    cached = _WCET_CACHE.get(asm_name)
    if cached is None:
        fw = next(f for f in bundled_firmwares() if f.name == asm_name)
        accel = fw.accel_factory() if fw.accel_factory else None
        analysis = analyze_firmware(fw.asm, name=asm_name, accel=accel)
        cached = _WCET_CACHE[asm_name] = (analysis.wcet, accel, analysis.safety)
    return cached


def preflight_spec(spec) -> PreflightReport:
    """Statically verify ``spec``; never raises — the caller decides
    what a failure means (warn vs :class:`VerificationError`)."""
    from .registry import _accel_worst_cycles

    firmware = spec.firmware
    cls = firmware if isinstance(firmware, type) else type(firmware)
    cls_name = getattr(cls, "__name__", str(cls))
    report = PreflightReport(spec_name=spec.describe(), firmware_cls=cls_name)

    twin = FIRMWARE_ASM_TWINS.get(cls_name)
    if twin is not None:
        report.asm_twin = twin
        wcet, accel, safety = _twin_wcet(twin)
        report.safety = safety
        report.verdict = budget_verdict(
            firmware=f"{cls_name} (asm twin: {twin})",
            wcet_cycles=wcet.wcet_cycles,
            accel_cycles=_accel_worst_cycles(accel, spec.traffic.packet_size),
            n_rpus=spec.config.n_rpus,
            packet_size=spec.traffic.packet_size,
            target_gbps=spec.traffic.offered_gbps,
            clock_hz=spec.config.clock.freq_hz,
            memory_safe=safety.passed,
        )
    else:
        report.diagnostics.append(
            Diagnostic(
                "note",
                "no-asm-twin",
                f"firmware {cls_name} has no registered assembly twin; "
                "cycle budget not statically verified",
                firmware=cls_name,
            )
        )

    try:
        report.lint = lint_firmware_class(cls)
    except Exception:  # linting is best-effort on exotic callables
        report.diagnostics.append(
            Diagnostic(
                "note",
                "lint-skipped",
                f"replay lint could not analyze {cls_name}",
                firmware=cls_name,
            )
        )
    return report
