"""Bundled-firmware registry + the full verification pipeline.

One entry per assembly firmware the repo ships: its source, the
accelerator it drives (if any), the behavioural ``FirmwareModel``
classes it stands in for, and the **documented operating point** the CI
gate re-verifies on every build (``make verify-fw``).  The operating
points mirror the paper's claims — e.g. the firewall holding 200 Gbps
from 256 B packets up on 16 RPUs (§7.2).

:func:`analyze_firmware` is the one place the analysis passes are
chained; ``repro verify``, the engine pre-flight and the fluid gate all
go through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..riscv.cpu import CycleModel
from ..sim.clock import ROSEBUD_CLOCK
from ..core.funcsim import IO_REGISTERS
from .absint import AbsintResult, MachineEnv, deep_analyze
from .budget import BudgetVerdict, budget_verdict
from .cfg import Diagnostic, FirmwareCfg, analyze_source
from .memsafe import MemSafetyReport, check_memory_safety
from .replaylint import ReplayLintReport, lint_firmware_class
from .wcet import WcetReport, analyze_wcet


@dataclass(frozen=True)
class OperatingPoint:
    """The (rpus, size, rate) tuple a firmware is documented to hold."""

    n_rpus: int
    packet_size: int
    gbps: float


@dataclass(frozen=True)
class BundledFirmware:
    name: str
    asm: str
    point: OperatingPoint
    accel_factory: Optional[Callable[[], object]] = None
    #: ``repro.firmware`` class names this twin's WCET stands in for
    #: (``preflight.FIRMWARE_ASM_TWINS`` is derived from these; the
    #: first registry entry naming a class is its twin).  The first
    #: class is the one ``repro verify`` replay-lints.
    models: Tuple[str, ...] = ()
    note: str = ""


def _firewall_matcher():
    from ..accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist

    return IpBlacklistMatcher(parse_blacklist(generate_blacklist(64)))


def _pigasus_matcher():
    from ..accel.pigasus import PigasusStringMatcher, generate_ruleset, parse_rules

    matcher = PigasusStringMatcher()
    matcher.load_rules(parse_rules(generate_ruleset(16)))
    return matcher


def bundled_firmwares() -> List[BundledFirmware]:
    """The registry, built lazily (assembly sources import instantly,
    accelerators only when verified)."""
    from ..firmware.asm_sources import (
        FIREWALL_ASM,
        FLOW_COUNTER_ASM,
        FORWARDER_ASM,
        FORWARDER_IRQ_ASM,
        PIGASUS_ASM,
        PKT_GEN_ASM,
    )

    return [
        BundledFirmware(
            "forwarder", FORWARDER_ASM, OperatingPoint(16, 512, 200.0),
            models=("ForwarderFirmware", "TwoStepForwarder"),
            note="basic_fw; paper §6.1 holds 200G from 512B up",
        ),
        BundledFirmware(
            "firewall", FIREWALL_ASM, OperatingPoint(16, 256, 200.0),
            accel_factory=_firewall_matcher,
            models=("FirewallFirmware",),
            note="paper §7.2: line rate for >=256B packets",
        ),
        BundledFirmware(
            "forwarder_irq", FORWARDER_IRQ_ASM, OperatingPoint(16, 512, 200.0),
            models=("ForwarderFirmware",),
            note="basic_fw + poke-interrupt checkpoint handler (§3.4)",
        ),
        BundledFirmware(
            "flow_counter", FLOW_COUNTER_ASM, OperatingPoint(16, 256, 200.0),
            note="per-flow counters in dmem (§3.4 state story)",
        ),
        BundledFirmware(
            "pkt_gen", PKT_GEN_ASM, OperatingPoint(1, 64, 10.0),
            note="tester pkt_gen; single RPU, minimum-size frames",
        ),
        BundledFirmware(
            "pigasus", PIGASUS_ASM, OperatingPoint(8, 1500, 50.0),
            accel_factory=_pigasus_matcher,
            models=("PigasusHwReorderFirmware", "PigasusSwReorderFirmware"),
            note="IPS orchestration; drain loop bound inferred from the "
            "matcher's declared FIFO depth",
        ),
    ]


def bundled_firmware_names() -> List[str]:
    return [fw.name for fw in bundled_firmwares()]


class FirmwareAnalysis(NamedTuple):
    """What :func:`analyze_firmware` proved about one assembly source."""

    cfg: FirmwareCfg
    absres: AbsintResult
    wcet: WcetReport
    safety: MemSafetyReport


def analyze_firmware(
    source: str,
    *,
    name: str = "",
    accel=None,
    config=None,
    cycle_model: Optional[CycleModel] = None,
) -> FirmwareAnalysis:
    """The analysis pipeline, chained here and nowhere else: structural
    CFG (``# loop-bound`` annotations attached to their loops), one deep
    abstract-interpretation fixpoint over it (``accel``/``config`` set
    the machine environment: accelerator register contracts, memory
    sizes, frame envelope), then WCET and memory safety, both read off
    that one fixpoint."""
    cfg = analyze_source(source, name=name)
    absres = deep_analyze(cfg, MachineEnv(config=config, accel=accel))
    return FirmwareAnalysis(
        cfg,
        absres,
        analyze_wcet(cfg, absres, cycle_model),
        check_memory_safety(cfg, absres),
    )


@dataclass
class FirmwareVerifyReport:
    """Everything ``repro verify`` knows about one firmware."""

    name: str
    point: OperatingPoint
    cfg: FirmwareCfg
    wcet: WcetReport
    verdict: BudgetVerdict
    absres: AbsintResult
    safety: MemSafetyReport
    lint: Optional[ReplayLintReport] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict.passed and not any(
            d.level == "error" for d in self.all_diagnostics()
        )

    def all_diagnostics(self) -> List[Diagnostic]:
        return (
            self.cfg.diagnostics + self.wcet.diagnostics + self.diagnostics
            + self.safety.diagnostics
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "point": {
                "n_rpus": self.point.n_rpus,
                "packet_size": self.point.packet_size,
                "gbps": self.point.gbps,
            },
            "passed": self.passed,
            "verdict": self.verdict.to_dict(),
            "wcet": self.wcet.to_dict(),
            "safety": self.safety.to_dict(),
            "mmio": {
                region: {hex(off): sorted(kinds) for off, kinds in sorted(offs.items())}
                for region, offs in self.absres.mmio_footprint().items()
            },
            "max_stack_bytes": self.safety.stack_depth_bytes,
            "lint": self.lint.to_dict() if self.lint else None,
            "diagnostics": [d.to_dict() for d in self.all_diagnostics()],
        }


def _check_mmio(
    absres: AbsintResult, accel, name: str, diags: List[Diagnostic]
) -> None:
    """Validate the MMIO footprint (main loop and trap handlers alike)
    against the interconnect map and the configured accelerator's
    register set, one rule for both windows: every offset is a row, a
    load needs a readable row and a store a writable one."""
    unresolved = sum(1 for acc in absres.accesses if not acc.addr.is_const)
    if unresolved:
        diags.append(
            Diagnostic(
                "note",
                "unproven-addresses",
                f"{unresolved} access(es) through statically-unknown "
                "pointers (packet data / table indexing); excluded from "
                "the MMIO footprint",
                firmware=name,
            )
        )
    windows = {
        "interconnect": (
            "interconnect", "unknown-interconnect-register",
            "which no documented register occupies",
            {o: (r.access == "r", r.access == "w") for o, r in IO_REGISTERS.items()},
        ),
        "accel": (
            "accelerator", "unmapped-accel-register",
            f"which '{accel.name if accel is not None else None}' does not define",
            {o: (r.read is not None, r.write is not None)
             for o, r in (accel.registers if accel is not None else {}).items()},
        ),
    }
    for window, offsets in absres.mmio_footprint().items():
        if window == "accel" and offsets and accel is None:
            diags.append(
                Diagnostic(
                    "error",
                    "no-accelerator",
                    f"firmware touches the accelerator window at offsets "
                    f"{sorted(hex(o) for o in offsets)} but no "
                    "accelerator is configured for it",
                    firmware=name,
                )
            )
            break
        noun, unknown, why, rows = windows[window]
        for offset, kinds in sorted(offsets.items()):
            row = rows.get(offset)
            if row is None:
                diags.append(
                    Diagnostic(
                        "error", unknown,
                        f"access to {noun} offset 0x{offset:x} {why}",
                        firmware=name,
                    )
                )
                continue
            readable, writable = row
            for kind, allowed, code, what in (
                ("load", readable, "not-readable", "load from write-only"),
                ("store", writable, "not-writable", "store to read-only"),
            ):
                if kind in kinds and not allowed:
                    diags.append(
                        Diagnostic(
                            "error", f"{window}-register-{code}",
                            f"{what} {noun} register 0x{offset:x}",
                            firmware=name,
                        )
                    )


def _check_floorplan(n_rpus: int, name: str, diags: List[Diagnostic]) -> None:
    from ..hw import FpgaDevice, PlacementError

    try:
        FpgaDevice(n_rpus).check_fits()
    except PlacementError as exc:
        diags.append(
            Diagnostic(
                "error",
                "floorplan",
                f"{n_rpus} RPUs do not place on the device: {exc}",
                firmware=name,
            )
        )
    except ValueError as exc:
        diags.append(
            Diagnostic(
                "error", "floorplan", f"invalid RPU count {n_rpus}: {exc}",
                firmware=name,
            )
        )


def verify_firmware(
    name: str,
    n_rpus: Optional[int] = None,
    packet_size: Optional[int] = None,
    gbps: Optional[float] = None,
    cycle_model: Optional[CycleModel] = None,
    clock_hz: float = ROSEBUD_CLOCK.freq_hz,
) -> FirmwareVerifyReport:
    """Run the full pipeline on one bundled firmware.

    Operating-point parameters default to the registry's documented
    point; pass any of them to ask "would it hold *this* rate?".
    """
    table = {fw.name: fw for fw in bundled_firmwares()}
    if name not in table:
        raise KeyError(
            f"unknown firmware {name!r}; bundled: {sorted(table)}"
        )
    fw = table[name]
    point = OperatingPoint(
        n_rpus if n_rpus is not None else fw.point.n_rpus,
        packet_size if packet_size is not None else fw.point.packet_size,
        gbps if gbps is not None else fw.point.gbps,
    )

    accel = fw.accel_factory() if fw.accel_factory else None
    cfg, absres, wcet, safety = analyze_firmware(
        fw.asm, name=name, accel=accel, cycle_model=cycle_model
    )

    diags: List[Diagnostic] = []
    _check_mmio(absres, accel, name, diags)
    _check_floorplan(point.n_rpus, name, diags)

    verdict = budget_verdict(
        firmware=name,
        wcet_cycles=wcet.wcet_cycles,
        accel_cycles=accel.worst_cycles(point.packet_size) if accel is not None else 0.0,
        n_rpus=point.n_rpus,
        packet_size=point.packet_size,
        target_gbps=point.gbps,
        clock_hz=clock_hz,
        memory_safe=safety.passed,
    )

    lint = None
    if fw.models:
        import repro.firmware as firmware_mod

        cls = getattr(firmware_mod, fw.models[0], None)
        if cls is not None:
            lint = lint_firmware_class(cls)

    return FirmwareVerifyReport(
        name=name, point=point, cfg=cfg, wcet=wcet, verdict=verdict,
        absres=absres, safety=safety, lint=lint, diagnostics=diags,
    )


def verify_all(
    cycle_model: Optional[CycleModel] = None,
) -> List[FirmwareVerifyReport]:
    """Verify every bundled firmware at its documented operating point
    (the CI gate's contract: all must PASS)."""
    return [
        verify_firmware(fw.name, cycle_model=cycle_model)
        for fw in bundled_firmwares()
    ]


def reports_to_json(reports: List[FirmwareVerifyReport]) -> str:
    """The documented ``repro verify --json`` schema (see
    ``docs/STATIC_ANALYSIS.md``)."""
    from ..schema import stamp

    return json.dumps(
        stamp(
            {
                "passed": all(r.passed for r in reports),
                "reports": [r.to_dict() for r in reports],
            },
            "repro-verify",
        ),
        indent=2,
        sort_keys=True,
    )
