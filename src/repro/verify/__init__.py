"""Firmware static analysis: abstract interpretation, WCET, linters.

The subsystem answers, *before* any simulation runs:

* does this firmware's worst-case cycles/packet fit the line-rate
  budget at a given (clock, RPUs, packet size, Gbps) operating point?
* is every load/store provably inside a declared memory region, and
  does the worst-case stack depth fit the per-RPU stack allocation?
  (:mod:`repro.verify.absint` + :mod:`repro.verify.memsafe`)
* what bounds its loops?  Induction-variable and accelerator-stream
  analysis infer them; ``# loop-bound`` annotations are cross-checks
  (:mod:`repro.verify.loopbound`).
* does its MMIO footprint — trap handlers included — match the
  interconnect map and the configured accelerator's register set?
* does it store into its own text segment (self-modifying code)?
* is its behavioural twin's per-packet effect pure, so the fluid tier
  may skip repeated periods?  (:mod:`repro.verify.replaylint`)
* does the simulator source itself stay deterministic?
  (:mod:`repro.verify.detlint`, wired into ``make lint``)

Every fact about a value — an address, a loop bound, the stack depth —
comes from one abstract-interpretation fixpoint per firmware, and the
passes are chained in exactly one place, :func:`analyze_firmware`
(structural CFG → ``deep_analyze`` → WCET + memory safety).

Entry points: :func:`verify_firmware` / :func:`verify_all` (the
``repro verify`` CLI and CI gate), :func:`preflight_spec` (the engine
hook behind ``ExperimentSpec.verify``), :func:`analyze_firmware` for
any assembly source, and the individual :func:`build_cfg` /
:func:`deep_analyze` / :func:`analyze_wcet` /
:func:`check_memory_safety` / :func:`lint_firmware_class` passes it
chains.  See ``docs/STATIC_ANALYSIS.md``.
"""

from .absint import (
    IO_REGISTER_SPECS,
    AbsAccess,
    AbsintResult,
    AbsState,
    AbsVal,
    IoRegister,
    MachineEnv,
    Region,
    analyze_cfg,
    deep_analyze,
)
from .budget import BudgetVerdict, budget_verdict
from .cfg import (
    BasicBlock,
    Diagnostic,
    FirmwareCfg,
    Loop,
    analyze_source,
    build_cfg,
    parse_loop_bounds,
)
from .detlint import Finding, lint_paths, lint_source
from .loopbound import (
    LoopBound,
    LoopBoundReport,
    induction_clamps,
    infer_loop_bounds,
    local_dominators,
)
from .memsafe import AccessCheck, MemSafetyReport, check_memory_safety
from .preflight import (
    FIRMWARE_ASM_TWINS,
    PreflightReport,
    VerificationError,
    preflight_spec,
)
from .registry import (
    INTERCONNECT_REGISTERS,
    BundledFirmware,
    FirmwareAnalysis,
    FirmwareVerifyReport,
    OperatingPoint,
    analyze_firmware,
    bundled_firmware_names,
    bundled_firmwares,
    reports_to_json,
    verify_all,
    verify_firmware,
)
from .fluidgate import FluidGate, fluid_gate
from .replaylint import (
    CLASS_REPLAY_SAFE,
    CLASS_STATEFUL,
    CLASS_UNSAFE,
    LintFinding,
    ReplayLintReport,
    lint_firmware_class,
)
from .wcet import (
    DEFAULT_LOOP_BOUND,
    TRAP_ENTRY_CYCLES,
    CriticalStep,
    IrreducibleCfgError,
    WcetReport,
    analyze_wcet,
)

__all__ = [
    "AbsAccess",
    "AbsState",
    "AbsVal",
    "AbsintResult",
    "AccessCheck",
    "BasicBlock",
    "BudgetVerdict",
    "BundledFirmware",
    "CLASS_REPLAY_SAFE",
    "CLASS_STATEFUL",
    "CLASS_UNSAFE",
    "CriticalStep",
    "DEFAULT_LOOP_BOUND",
    "Diagnostic",
    "FIRMWARE_ASM_TWINS",
    "Finding",
    "FirmwareAnalysis",
    "FirmwareCfg",
    "FluidGate",
    "FirmwareVerifyReport",
    "INTERCONNECT_REGISTERS",
    "IO_REGISTER_SPECS",
    "IoRegister",
    "IrreducibleCfgError",
    "LintFinding",
    "Loop",
    "LoopBound",
    "LoopBoundReport",
    "MachineEnv",
    "MemSafetyReport",
    "OperatingPoint",
    "PreflightReport",
    "Region",
    "ReplayLintReport",
    "TRAP_ENTRY_CYCLES",
    "VerificationError",
    "WcetReport",
    "analyze_cfg",
    "analyze_firmware",
    "analyze_source",
    "analyze_wcet",
    "budget_verdict",
    "check_memory_safety",
    "deep_analyze",
    "fluid_gate",
    "build_cfg",
    "bundled_firmware_names",
    "bundled_firmwares",
    "induction_clamps",
    "infer_loop_bounds",
    "lint_firmware_class",
    "lint_paths",
    "lint_source",
    "local_dominators",
    "parse_loop_bounds",
    "preflight_spec",
    "reports_to_json",
    "verify_all",
    "verify_firmware",
]
