"""Static eligibility gate for the fluid fast-forward tier.

``repro.fluid`` may only skip simulated time it can prove would have
been repetitive, and half of that proof is static: the firmware must be
replay-safe (its per-packet effect is a pure function of the packet
class plus allowed counter bumps — :mod:`repro.verify.replaylint`'s
AST verdict) and must carry a sound WCET bound so the analytic budget
formulas have a worst case to pin the steady-state rate against.

:func:`fluid_gate` evaluates both from the spec alone, before any
simulation runs; the dynamic half (periodic boundary detection, queue
stability) lives in :mod:`repro.fluid.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .preflight import FIRMWARE_ASM_TWINS, _twin_wcet
from .replaylint import CLASS_REPLAY_SAFE, lint_firmware_class


@dataclass
class FluidGate:
    """The static half of fluid-tier eligibility for one spec."""

    firmware_cls: str
    eligible: bool = True
    reasons: List[str] = field(default_factory=list)
    lint_classification: Optional[str] = None
    asm_twin: Optional[str] = None
    wcet_cycles: Optional[int] = None
    analytic_pps: Optional[float] = None
    offered_pps: Optional[float] = None
    contended: bool = False

    def block(self, reason: str) -> None:
        self.eligible = False
        self.reasons.append(reason)


def fluid_gate(spec) -> FluidGate:
    """Decide statically whether ``spec`` may use the fluid tier.

    Never raises: an ineligible spec simply runs pure event simulation,
    with the reasons recorded in the result's ``fluid`` block.
    """
    firmware = spec.firmware
    if isinstance(firmware, type):
        cls = firmware
    else:
        # factory callables (lambdas, partials) hide the class; build one
        # instance to see what actually runs — specs do the same thing at
        # system construction, so this is cheap and side-effect free
        try:
            cls = type(spec.build_firmware())
        except Exception:
            cls = type(firmware)
    cls_name = getattr(cls, "__name__", str(cls))
    gate = FluidGate(firmware_cls=cls_name)

    if spec.faults:
        gate.block("armed fault campaign (transients are event-accurate)")
    if spec.traffic.source != "fixed":
        # flows/imix draw from an RNG: the emission stream never proves
        # periodic, so the dynamic detector would refuse anyway — say so
        # up front (the runtime fluid_profile() check remains authoritative)
        gate.block(
            f"traffic source {spec.traffic.source!r} is not provably periodic"
        )

    try:
        lint = lint_firmware_class(cls)
        gate.lint_classification = lint.classification
        if lint.classification != CLASS_REPLAY_SAFE:
            gate.block(
                f"replay lint classifies {cls_name} as {lint.classification}; "
                "only replay-safe firmware has a provably periodic effect"
            )
    except Exception:
        gate.block(f"replay lint could not analyze {cls_name}")

    twin = FIRMWARE_ASM_TWINS.get(cls_name)
    if twin is None:
        gate.block(f"{cls_name} has no assembly twin, so no static WCET bound")
    else:
        gate.asm_twin = twin
        wcet, accel, safety = _twin_wcet(twin)
        gate.wcet_cycles = wcet.wcet_cycles
        if not safety.passed:
            gate.block(
                f"{twin} fails memory-safety verification; a firmware "
                "with unsound accesses has no trustworthy steady state"
            )
        from ..analysis.throughput import fluid_reference_pps
        from .registry import _accel_worst_cycles

        gate.analytic_pps = fluid_reference_pps(
            clock_hz=spec.config.clock.freq_hz,
            n_rpus=spec.config.n_rpus,
            wcet_cycles=wcet.wcet_cycles,
            accel_cycles=_accel_worst_cycles(accel, spec.traffic.packet_size),
        )
    # contended classification: offered load above the WCET-derived
    # service capacity means backlogged queues and drops are *expected*,
    # and the engine's runtime conservation cross-check (offered ==
    # completions + drops per period, exactly) becomes load-bearing
    gate.offered_pps = spec.traffic.offered_gbps * 1e9 / (
        8.0 * spec.traffic.packet_size
    )
    gate.contended = (
        gate.analytic_pps is not None and gate.offered_pps > gate.analytic_pps
    )
    return gate
