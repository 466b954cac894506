"""Fault injectors: turn :class:`FaultSpec` data into scheduled events.

The :class:`InjectorRegistry` maps fault kinds to injector classes;
:func:`install_faults` builds a :class:`FaultController` that owns the
host interface and the resilience :class:`~repro.core.profiler.StatsSampler`
and schedules every fault on the simulation clock.  All randomness is
drawn from ``random.Random(spec.seed)`` so a chaos experiment replays
bit-identically — in-process, in a spawn-pool worker, or from a cached
spec JSON.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Type

from ..accel.base import Accelerator
from ..core.host import HostInterface
from ..core.profiler import StatsSampler
from ..core.system import RosebudSystem
from ..packet.packet import Packet
from .spec import FaultSpec, FaultSpecError

#: Default resilience sampler interval (overridable via a ``sampler``
#: fault spec) — fine enough to resolve a reconfiguration dip.
DEFAULT_SAMPLE_CYCLES = 25_000.0


class FaultInjector:
    """Base class: one spec, installed once onto a controller."""

    kind = ""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)

    def install(self, controller: "FaultController") -> None:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------

    def _mark(self, controller: "FaultController", phase: str) -> None:
        controller.record(self.spec, phase)

    def _schedule_window(self, controller: "FaultController", start, end=None) -> None:
        """Schedule ``start`` at ``at_cycles`` and, if the spec has a
        duration, ``end`` at ``at_cycles + duration_cycles``."""
        sim = controller.system.sim

        def begin() -> None:
            self._mark(controller, "start")
            start()

        sim.schedule_at(self.spec.at_cycles, begin, name=f"fault.{self.kind}")
        if end is not None and self.spec.duration_cycles > 0:
            def finish() -> None:
                self._mark(controller, "end")
                end()

            sim.schedule_at(
                self.spec.at_cycles + self.spec.duration_cycles,
                finish,
                name=f"fault.{self.kind}.end",
            )


class InjectorRegistry:
    """kind -> injector class, the extension point for new faults."""

    def __init__(self) -> None:
        self._kinds: Dict[str, Type[FaultInjector]] = {}

    def register(self, cls: Type[FaultInjector]) -> Type[FaultInjector]:
        if not cls.kind:
            raise FaultSpecError(f"{cls.__name__} has no kind")
        self._kinds[cls.kind] = cls
        return cls

    def create(self, spec: FaultSpec) -> FaultInjector:
        cls = self._kinds.get(spec.kind)
        if cls is None:
            raise FaultSpecError(f"no injector registered for kind {spec.kind!r}")
        return cls(spec)

    def kinds(self) -> List[str]:
        return sorted(self._kinds)


REGISTRY = InjectorRegistry()


class FaultController:
    """Owns the fault campaign for one simulated system.

    Holds the :class:`HostInterface` (watchdog + reconfiguration), the
    resilience sampler, the installed injectors and a time-ordered
    ``events`` log of every fault transition — everything
    :func:`repro.faults.metrics.resilience_report` needs.
    """

    def __init__(
        self,
        system: RosebudSystem,
        host: HostInterface,
        sampler: StatsSampler,
    ) -> None:
        self.system = system
        self.host = host
        self.sampler = sampler
        self.injectors: List[FaultInjector] = []
        #: every fault transition: {"t", "kind", "target", "phase"}
        self.events: List[Dict] = []

    def record(self, spec: FaultSpec, phase: str) -> None:
        self.events.append(
            {
                "t": self.system.sim.now,
                "kind": spec.kind,
                "target": spec.target,
                "phase": phase,
            }
        )

    def firmware_factory(self):
        """A fresh firmware image for recovery reloads (the same image
        every RPU booted with)."""
        return self.system.rpus[0].firmware.clone()

    def rpu_accelerators(self, target: int) -> List[Accelerator]:
        """The accelerator instances reachable from RPU ``target``'s
        firmware (``target < 0`` means every RPU's)."""
        rpus = self.system.rpus if target < 0 else [self.system.rpus[target]]
        found: List[Accelerator] = []
        for rpu in rpus:
            for value in vars(rpu.firmware).values():
                if isinstance(value, Accelerator) and value not in found:
                    found.append(value)
        return found

    def install(self, specs: Iterable[FaultSpec]) -> None:
        for spec in specs:
            if spec.kind == "sampler":
                continue  # consumed at construction time
            injector = REGISTRY.create(spec)
            self.injectors.append(injector)
            injector.install(self)
        self.sampler.start()


@REGISTRY.register
class RpuWedgeInjector(FaultInjector):
    """Firmware hang: the RPU holds its packets and makes no progress.
    A positive duration makes the wedge transient (the firmware
    recovers by itself); otherwise only eviction clears it."""

    kind = "rpu_wedge"

    def install(self, controller: FaultController) -> None:
        rpu = controller.system.rpus[self.spec.target]
        self._schedule_window(controller, rpu.wedge, rpu.unwedge)


@REGISTRY.register
class WatchdogInjector(FaultInjector):
    """Start the host hang watchdog (detect -> evict -> reconfigure)."""

    kind = "watchdog"

    def install(self, controller: FaultController) -> None:
        threshold = float(self.spec.param("threshold_cycles", 50_000.0))
        poll = float(self.spec.param("poll_cycles", 5_000.0))
        pr_load_ms = self.spec.param("pr_load_ms")
        if pr_load_ms is not None:
            controller.host.pr_load_ms = float(pr_load_ms)

        def start() -> None:
            controller.host.start_watchdog(
                controller.firmware_factory,
                threshold_cycles=threshold,
                poll_cycles=poll,
            )

        self._schedule_window(controller, start, controller.host.stop_watchdog)


@REGISTRY.register
class MacCorruptInjector(FaultInjector):
    """Bit errors on the wire: frames arriving on port ``target`` are
    corrupted (IPv4 header byte flip), truncated to a runt, or lost
    outright, each with probability ``magnitude``.  Corrupted frames
    are caught by the MAC's checksum-verify stage and counted in
    ``rx_csum_drops``."""

    kind = "mac_corrupt"

    def install(self, controller: FaultController) -> None:
        mac = controller.system.macs[self.spec.target]
        mac.verify_checksums = True
        mode = self.spec.param("mode", "corrupt")
        if mode not in ("corrupt", "truncate", "lose"):
            raise FaultSpecError(f"unknown mac_corrupt mode {mode!r}")
        probability = self.spec.magnitude
        rng = self.rng

        def hook(packet: Packet) -> Optional[Packet]:
            if rng.random() >= probability:
                return packet
            if mode == "lose":
                return None
            if mode == "truncate":
                packet.data = packet.data[: max(1, len(packet.data) // 4)]
            else:
                data = bytearray(packet.data)
                # flip a byte inside the IPv4 header so the checksum
                # catches it (falls back to anywhere in short frames)
                hi = min(len(data), 14 + 20)
                index = rng.randrange(14, hi) if hi > 14 else rng.randrange(len(data))
                data[index] ^= 1 + rng.randrange(255)
                packet.data = bytes(data)
            # headers changed: reparse lazily AND leave the packet's
            # class (a corrupted frame is no longer its template's twin)
            packet.mark_mutated()
            return packet

        def start() -> None:
            mac.rx_fault_hook = hook

        def end() -> None:
            mac.rx_fault_hook = None

        self._schedule_window(controller, start, end)


@REGISTRY.register
class LinkFlapInjector(FaultInjector):
    """Transient loss of light on port ``target``: wire arrivals are
    lost, the TX serializer pauses, and the backlog drains on resume."""

    kind = "link_flap"

    def install(self, controller: FaultController) -> None:
        mac = controller.system.macs[self.spec.target]
        self._schedule_window(
            controller,
            lambda: mac.set_link(False),
            lambda: mac.set_link(True),
        )


@REGISTRY.register
class AccelFaultInjector(FaultInjector):
    """Poison the accelerator response path of RPU ``target`` (or every
    RPU when ``target < 0``): reads come back corrupted with the parity
    flag low, and firmware must re-run the work in software."""

    kind = "accel_fault"

    def install(self, controller: FaultController) -> None:
        accels = controller.rpu_accelerators(self.spec.target)
        if not accels:
            raise FaultSpecError(
                f"rpu {self.spec.target} firmware has no accelerator to fault"
            )

        def set_fault(active: bool) -> None:
            for accel in accels:
                accel.inject_fault(active)

        self._schedule_window(
            controller, lambda: set_fault(True), lambda: set_fault(False)
        )


@REGISTRY.register
class ReconfigInjector(FaultInjector):
    """A planned no-pause partial reconfiguration of RPU ``target`` —
    the §4.1 experiment expressed as a fault event."""

    kind = "reconfig"

    def install(self, controller: FaultController) -> None:
        pr_load_ms = self.spec.param("pr_load_ms")
        if pr_load_ms is not None:
            controller.host.pr_load_ms = float(pr_load_ms)

        def start() -> None:
            controller.host.reconfigure_rpu(
                self.spec.target, controller.firmware_factory()
            )

        self._schedule_window(controller, start)


def install_faults(
    system: RosebudSystem,
    faults: Iterable[FaultSpec],
    host: Optional[HostInterface] = None,
) -> FaultController:
    """Wire a fault campaign onto a freshly built system.

    Must run before the simulation starts (fault times are absolute
    cycles).  Returns the controller; after the run, feed it to
    :func:`repro.faults.metrics.resilience_report`.
    """
    specs = [
        f if isinstance(f, FaultSpec) else FaultSpec.from_dict(dict(f))
        for f in faults
    ]
    interval = DEFAULT_SAMPLE_CYCLES
    for spec in specs:
        if spec.kind == "sampler":
            interval = float(spec.param("interval_cycles", interval))
    if host is None:
        host = HostInterface(system)
    sampler = StatsSampler(system, interval_cycles=interval)
    controller = FaultController(system, host, sampler)
    controller.install(specs)
    return controller
