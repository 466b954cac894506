"""The incremental simulation session: :class:`SimSession`.

A Rosebud deployment is a *long-running service* — the paper's headline
demo hot-swaps Pigasus firmware under live 100G traffic — so the
engine's measurement loop is factored into a resumable stepper instead
of a closed batch run.  A session owns one built system plus its
traffic feeds and exposes:

* :meth:`step` — advance the event simulation by ``n_events`` fired
  events and/or up to an absolute timestamp ``until_ts`` (or a relative
  ``cycles`` budget), stopped by the measurement's completion cells
  on the event that reaches a phase target;
* :meth:`inject` — offer packets mid-flight (port ingress or the
  host's virtual-Ethernet trace path);
* :meth:`control` — live control-plane actions: hot firmware
  reconfiguration over the drain protocol, fault injection from
  :mod:`repro.faults`, LB policy swap, receive-mask writes, watchdog
  lifecycle, eviction;
* :meth:`snapshot` — rolling telemetry (per-RPU utilization, drop
  taxonomy, queue depths) as versioned JSON (``repro-snapshot/2``).

Batch :func:`repro.analysis.engine.run_experiment` is a thin wrapper —
open a session from the spec, :meth:`run_to_completion` — and produces
byte-identical :class:`~repro.analysis.spec.ExperimentResult`s because
there is one loop: :meth:`step` arms a watch on the measurement's
completion counters (:mod:`repro.analysis.harness`) that stops
:meth:`Simulator.run <repro.sim.kernel.Simulator.run>` after the event
whose increment reaches the phase target, then pumps the measurement
and runs on.  The base and final readings land on the same events
however the caller chunks its stepping, and an interactive ``step``
overshooting the window cannot perturb the result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.firmware_api import FirmwareModel
from ..sim.stats import Histogram
from ..analysis.harness import (
    LatencyMeasurement,
    MeasurementPhases,
    ThroughputMeasurement,
    ThroughputResult,
    progress_reading,
    window_rates,
)
from ..analysis.spec import (
    LB_REGISTRY,
    ExperimentResult,
    ExperimentSpec,
    MeasurementWindow,
)
from ..schema import stamp
from .feed import SourceFeed, TrafficFeed


class SessionError(RuntimeError):
    """An operation that does not make sense in the session's state."""


# -- the session ------------------------------------------------------------


class SimSession:
    """One live simulated Rosebud deployment, stepped incrementally.

    Two construction paths:

    * ``SimSession(spec)`` builds everything the batch engine would —
      backend, verification pre-flight, system, sources, fault
      campaign — in the same order, so stepping to completion
      reproduces :func:`~repro.analysis.engine.run_experiment` byte for
      byte.
    * :meth:`SimSession.for_system` wraps a hand-built system (and
      optional already-constructed sources) for interactive use and
      for :meth:`measure_throughput` / :meth:`measure_latency` on a live
      system.
    """

    def __init__(self, spec: Optional[ExperimentSpec] = None, *, _system=None) -> None:
        self.spec = spec
        self.spec_key = ""
        self._feeds: List[TrafficFeed] = []
        self._started = False
        self._measurement: Optional[MeasurementPhases] = None
        self._result: Optional[Any] = None
        self._host = None
        self._controller = None
        self._snapshot_seq = 0
        self._last_rates: Optional[tuple] = None  # (time, reading) of the last snapshot
        self._fluid = None
        self._last_fidelity: Optional[Dict[str, float]] = None

        if spec is None:
            self.system = _system
            return
        if _system is not None:
            raise SessionError("pass either a spec or a system, not both")
        if spec.cluster is not None:
            raise SessionError(
                "a SimSession is one board; drive cluster specs with "
                "repro.ClusterEngine (or run_experiment / "
                "`repro cluster`, which route there)"
            )

        if spec.cpu_backend is not None:
            # set before build: workers in a spawn pool don't inherit the
            # parent's default, so the spec carries the backend choice
            from ..riscv.cpu import set_default_backend

            set_default_backend(spec.cpu_backend)

        if spec.verify:
            # static pre-flight: cheap (cached CFG/WCET + arithmetic),
            # runs before the system is built so infeasible points fail
            # in microseconds instead of burning a simulation slot
            import warnings

            from ..verify import VerificationError, preflight_spec

            report = preflight_spec(spec)
            if report.failed:
                if spec.verify == "fail":
                    raise VerificationError(
                        f"pre-flight verification failed: {report.summary()}",
                        report,
                    )
                warnings.warn(
                    f"pre-flight verification failed: {report.summary()}",
                    RuntimeWarning,
                    stacklevel=2,
                )

        self.system = spec.build_system()
        sources = spec.build_sources(self.system)
        if spec.faults:
            # chaos path: schedule the campaign before traffic starts so
            # fault times are absolute simulation cycles
            from ..faults import install_faults

            self._controller = install_faults(self.system, spec.faults)
        self.spec_key = spec.cache_key()
        self._feeds = [SourceFeed(source) for source in sources]
        if spec.fidelity == "fluid":
            from ..fluid import FluidEngine
            from ..verify.fluidgate import fluid_gate

            self._fluid = FluidEngine(self, fluid_gate(spec))

    @classmethod
    def for_system(cls, system, sources: Sequence = ()) -> "SimSession":
        """Wrap an already-built system."""
        session = cls(_system=system)
        for source in sources:
            session.add_feed(source if isinstance(source, TrafficFeed) else SourceFeed(source))
        return session

    # -- lifecycle ---------------------------------------------------------

    @property
    def sim(self):
        return self.system.sim

    @property
    def host(self):
        """The host control interface (created on first use; a fault
        controller's host is shared so watchdog/reconfig telemetry lands
        in one log)."""
        if self._controller is not None:
            return self._controller.host
        if self._host is None:
            from ..core.host import HostInterface

            self._host = HostInterface(self.system)
        return self._host

    @property
    def measurement_done(self) -> bool:
        return self._measurement is not None and self._measurement.done

    def add_feed(self, feed: TrafficFeed, delay: float = 0.0) -> TrafficFeed:
        """Attach a traffic feed; starts immediately on a running session."""
        self._feeds.append(feed)
        if self._fluid is not None:
            self._fluid.notify_feed(feed)
        if self._started:
            feed.start(self, delay)
        return feed

    def start(self, delay: float = 0.0) -> None:
        """Start traffic (idempotent); arms the spec's measurement."""
        if not self._started:
            self._started = True
            for feed in self._feeds:
                feed.start(self, delay)
        if self.spec is not None and self._measurement is None:
            spec = self.spec
            if spec.measure == "latency":
                self._measurement = LatencyMeasurement(self.system, spec.window)
            else:
                self._measurement = ThroughputMeasurement.for_system(
                    self.system,
                    spec.window,
                    spec.traffic.packet_size,
                    spec.traffic.offered_gbps,
                    include_host=spec.include_host,
                    include_absorbed=spec.include_absorbed,
                )

    # -- stepping ----------------------------------------------------------

    def step(
        self,
        n_events: Optional[int] = None,
        until_ts: Optional[float] = None,
        cycles: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Advance the simulation incrementally.

        Fires at most ``n_events`` events and/or every event up to
        absolute time ``until_ts`` (``cycles`` is relative shorthand);
        with no bound, runs until the event queue drains or the active
        measurement completes.  The measurement's completion cells stop
        the run on the event that reaches the phase target; the step
        then pumps the measurement and runs on, so the result is frozen
        at the completing event however large the step.  When both
        bounds are given and ``n_events`` runs out first, the clock
        stays at the last fired event; it reaches ``until_ts`` only once
        nothing is left to fire before it.
        """
        self.start()
        sim = self.sim
        if cycles is not None:
            bound = sim.now + cycles
            until_ts = bound if until_ts is None else min(until_ts, bound)
        driver = self._measurement
        if driver is not None and driver.done:
            driver = None
        cells = driver.cells if driver is not None else ()
        fluid = self._fluid
        fired = 0
        target = tripped = None

        def watch() -> None:
            nonlocal tripped  # stop only: tx_done meters bytes after counting
            if driver.completions() >= target:
                tripped = True
                sim.stop()

        def after(event) -> None:
            nonlocal fired
            fired += 1
            fluid.after_event()
            if not tripped and fired != n_events:
                # a warp belongs to the step that fires the next event:
                # that step's until_ts is its cap
                fluid.pre_step(until_ts)

        for cell in cells:
            cell.watch = watch
        try:
            while True:
                if driver is not None:
                    driver.pump()
                    if driver.done:
                        self._finalize()
                        break
                    target = driver.target()
                if tripped is not None and (not tripped or fired == n_events):
                    break
                tripped = False
                budget = None if n_events is None else n_events - fired
                if fluid is None:
                    before = sim.events_processed
                    sim.run(until=until_ts, max_events=budget)
                    fired += sim.events_processed - before
                else:
                    if fired != n_events:
                        fluid.pre_step(until_ts)
                    sim.run(until=until_ts, max_events=budget, observer=after)
        finally:
            for cell in cells:
                cell.watch = None
        return {
            "events": fired,
            "now": sim.now,
            "measurement_done": self.measurement_done,
        }

    def run_to_completion(self) -> Any:
        """Step until the active measurement finishes (the batch path).

        Returns the finalized result (an :class:`ExperimentResult` for
        spec sessions, the raw measurement for :meth:`for_system`
        sessions); raises ``RuntimeError`` if the event queue drains or
        the window's ``max_cycles`` pass first.
        """
        self.start()
        driver = self._measurement
        if driver is None:
            raise SessionError(
                "no measurement configured; open the session from a spec or "
                "call measure_throughput()/measure_latency()"
            )
        if not driver.done:
            self.step(until_ts=driver.deadline)
            if not driver.done:
                raise RuntimeError(driver.stall_message())
        return self._result

    def result(self) -> Any:
        """The finalized result; raises until the measurement completes."""
        if self._result is None:
            raise SessionError("measurement not complete; keep stepping")
        return self._result

    def _finalize(self) -> None:
        driver = self._measurement
        if self.spec is None:
            self._result = driver.result
            return
        # assembled right after the run stopped on the completing
        # event: no event fires between the final reading and this envelope
        from ..analysis.engine import _firmware_totals

        if self.spec.measure == "latency":
            result = ExperimentResult(
                spec_key=self.spec_key, latency=driver.result.summary()
            )
        else:
            result = ExperimentResult(spec_key=self.spec_key, throughput=driver.result)
        result.counters = self.system.counters.snapshot()
        result.firmware_totals = _firmware_totals(self.system)
        if self._fluid is not None:
            result.fluid = self._fluid.stats()
        if self._controller is not None:
            from ..faults import resilience_report

            self._controller.host.stop_watchdog()
            self._controller.sampler.stop()
            result.resilience = resilience_report(self._controller)
        self._result = result

    # -- live-system measurements -------------------------------------------

    def measure_throughput(
        self,
        packet_size: int,
        offered_gbps: float,
        warmup_packets: int = 2000,
        measure_packets: int = 8000,
        max_cycles: float = 500_000_000,
        include_host: bool = True,
        include_absorbed: bool = False,
    ) -> ThroughputResult:
        """Measure steady-state rates on this session's live system."""
        self._arm(
            ThroughputMeasurement.for_system(
                self.system,
                MeasurementWindow(
                    warmup_packets=warmup_packets,
                    measure_packets=measure_packets,
                    max_cycles=max_cycles,
                ),
                packet_size,
                offered_gbps,
                include_host=include_host,
                include_absorbed=include_absorbed,
            )
        )
        return self.run_to_completion()

    def measure_latency(
        self,
        warmup_packets: int = 500,
        measure_packets: int = 2000,
        max_cycles: float = 500_000_000,
    ) -> Histogram:
        """Collect the forwarding-latency histogram on this session."""
        self._arm(
            LatencyMeasurement(
                self.system,
                MeasurementWindow(
                    warmup_packets=warmup_packets,
                    measure_packets=measure_packets,
                    max_cycles=max_cycles,
                ),
            )
        )
        return self.run_to_completion()

    def _arm(self, driver: MeasurementPhases) -> None:
        if self.spec is not None:
            raise SessionError("spec sessions carry their own measurement")
        if self._measurement is not None and not self._measurement.done:
            raise SessionError("a measurement is already in progress")
        self.start()
        self._result = None
        self._measurement = driver

    # -- injection ---------------------------------------------------------

    def inject(self, packets, port: Optional[int] = None) -> int:
        """Offer packets immediately: to ``port``'s ingress, or through
        the host's virtual-Ethernet trace path when ``port`` is None."""
        if hasattr(packets, "data"):  # a single Packet
            packets = [packets]
        count = 0
        for packet in packets:
            if port is None:
                self.host.inject_packet(packet)
            else:
                self.system.offer_packet(port, packet)
            count += 1
        if count and self._fluid is not None:
            self._fluid.notify_transient("inject")
        return count

    # -- control plane -----------------------------------------------------

    def control(self, action: str, **params) -> Dict[str, Any]:
        """Perform a live control action; returns a JSON-safe record."""
        handler = getattr(self, f"_ctl_{action}", None)
        if handler is None:
            known = sorted(
                name[len("_ctl_"):] for name in dir(self) if name.startswith("_ctl_")
            )
            raise SessionError(f"unknown control action {action!r}; choices: {known}")
        out = handler(**params)
        if self._fluid is not None:
            # any control action is a transient: discard periodicity
            # evidence and let the detector re-prove steady state
            self._fluid.notify_transient(f"control:{action}")
        out["action"] = action
        out["t"] = self.sim.now
        return out

    def _ensure_controller(self):
        """A fault controller for live injection (lazily created: spec
        sessions without faults and for_system sessions don't pay for a
        sampler until chaos actually starts)."""
        if self._controller is None:
            from ..faults import install_faults

            self._controller = install_faults(self.system, [], host=self._host)
            self._host = None  # the controller's host is now canonical
        return self._controller

    def _resolve_firmware(self, firmware, rpu: int = 0) -> FirmwareModel:
        if firmware is None:
            return self.system.rpus[rpu].firmware.clone()
        if isinstance(firmware, FirmwareModel):
            return firmware
        if callable(firmware):
            return firmware()
        raise SessionError(f"cannot build firmware from {firmware!r}")

    def _ctl_reconfigure(self, rpu: int = 0, firmware=None, pr_load_ms=None) -> Dict:
        """Hot firmware reconfiguration over the drain protocol (§4.1)."""
        host = self.host
        if pr_load_ms is not None:
            host.pr_load_ms = float(pr_load_ms)
        record = host.reconfigure_rpu(int(rpu), self._resolve_firmware(firmware, int(rpu)))
        return {"rpu": record.rpu, "requested_at": record.requested_at}

    def _ctl_fault(
        self,
        kind: str = "",
        at_cycles=None,
        in_cycles=None,
        target: int = 0,
        duration_cycles: float = 0.0,
        magnitude: float = 1.0,
        seed: int = 0,
        **params,
    ) -> Dict:
        """Inject one fault live.  ``in_cycles`` is relative to *now*
        (the batch campaign's ``at_cycles`` is absolute)."""
        from ..faults import FaultSpec
        from ..faults.injectors import REGISTRY

        now = self.sim.now
        if at_cycles is None:
            at_cycles = now + float(in_cycles if in_cycles is not None else 0.0)
        if float(at_cycles) < now:
            raise SessionError(
                f"fault at_cycles={at_cycles} is in the past (now={now}); "
                "use in_cycles for a relative trigger"
            )
        spec = FaultSpec(
            kind=kind,
            at_cycles=float(at_cycles),
            target=int(target),
            duration_cycles=float(duration_cycles),
            magnitude=float(magnitude),
            seed=int(seed),
            params=tuple(sorted(params.items())),
        )
        if spec.kind == "sampler":
            raise SessionError("sampler interval is fixed once the controller exists")
        controller = self._ensure_controller()
        injector = REGISTRY.create(spec)
        controller.injectors.append(injector)
        injector.install(controller)
        return {"kind": spec.kind, "target": spec.target, "at_cycles": spec.at_cycles}

    def _ctl_set_lb(self, policy: str = "rr") -> Dict:
        """Swap the load-balancer policy under live traffic."""
        factory = LB_REGISTRY.get(policy)
        if factory is None:
            raise SessionError(
                f"unknown lb policy {policy!r}; choices: {sorted(LB_REGISTRY)}"
            )
        old = type(self.system.lb.policy).name
        self.system.lb.policy = factory(self.system.config.n_rpus)
        return {"old": old, "new": type(self.system.lb.policy).name}

    def _ctl_set_receive_mask(self, mask: int = 0) -> Dict:
        self.host.set_receive_mask(int(mask))
        return {"mask": int(mask), "enabled": list(self.system.lb.enabled)}

    def _ctl_watchdog(
        self,
        op: str = "start",
        threshold_cycles: float = 50_000.0,
        poll_cycles: float = 5_000.0,
        pr_load_ms=None,
    ) -> Dict:
        host = self.host
        if pr_load_ms is not None:
            host.pr_load_ms = float(pr_load_ms)
        if op == "start":
            host.start_watchdog(
                lambda: self.system.rpus[0].firmware.clone(),
                threshold_cycles=float(threshold_cycles),
                poll_cycles=float(poll_cycles),
            )
        elif op == "stop":
            host.stop_watchdog()
        else:
            raise SessionError(f"watchdog op must be start|stop, got {op!r}")
        return {"op": op}

    def _ctl_evict(self, rpu: int = 0) -> Dict:
        abandoned = self.host.evict_rpu(int(rpu))
        return {"rpu": int(rpu), "packets_abandoned": abandoned}

    def _ctl_wedge(self, rpu: int = 0) -> Dict:
        self.system.rpus[int(rpu)].wedge()
        return {"rpu": int(rpu)}

    def _ctl_unwedge(self, rpu: int = 0) -> Dict:
        self.system.rpus[int(rpu)].unwedge()
        return {"rpu": int(rpu)}

    # -- telemetry ---------------------------------------------------------

    def _fidelity_block(self, now: float) -> Dict[str, Any]:
        """Per-window fidelity occupancy: what fraction of simulated time
        since the previous snapshot each tier covered."""
        warped = self._fluid.warped_cycles if self._fluid is not None else 0.0
        window = {"event": 1.0, "fluid": 0.0}
        if self._last_fidelity is not None:
            dt = now - self._last_fidelity["t"]
            dw = warped - self._last_fidelity["warped"]
            if dt > 0:
                frac = min(1.0, max(0.0, dw / dt))
                window = {"event": 1.0 - frac, "fluid": frac}
        self._last_fidelity = {"t": now, "warped": warped}
        if self._fluid is None:
            return {
                "mode": "event",
                "occupancy": {"event": 1.0, "fluid": 0.0},
                "window": window,
            }
        return {
            "mode": "fluid",
            "eligible": self._fluid.enabled,
            "engaged": self._fluid.warps > 0,
            "occupancy": self._fluid.occupancy(),
            "window": window,
            "warps": self._fluid.warps,
            "warped_cycles": self._fluid.warped_cycles,
        }

    def snapshot(self) -> Dict[str, Any]:
        """Rolling telemetry as a versioned (``repro-snapshot/2``) JSON
        document.  Every counter is cumulative, so consecutive snapshots
        are monotone; ``rates`` covers the interval since the previous
        snapshot."""
        system = self.system
        sim = self.sim
        self._snapshot_seq += 1
        now = sim.now

        reading = progress_reading(system)
        last_t, last_reading = self._last_rates or (now, reading)
        window = window_rates(last_reading, reading, now - last_t, system.config.clock)
        rates = {
            "tx_gbps": window["gbps"],
            "tx_mpps": window["mpps"],
            "host_gbps": window["host_gbps"],
        }
        self._last_rates = (now, reading)

        def mac_total(counter: str) -> int:
            return sum(mac.counters.value(counter) for mac in system.macs)

        rpus = []
        for rpu in system.rpus:
            busy = rpu.counters.value("sw_cycles") + rpu.counters.value("accel_cycles")
            rpus.append(
                {
                    "index": rpu.index,
                    "packets": rpu.counters.value("packets"),
                    "busy_cycles": busy,
                    "utilization": busy / now if now > 0 else 0.0,
                    "in_flight": rpu.in_flight,
                    "paused": bool(rpu.paused),
                    "wedged": bool(rpu.wedged),
                    "enabled": bool(system.lb.enabled[rpu.index]),
                    "slot_occupancy": system.lb.slots.occupancy(rpu.index),
                }
            )

        host = self._controller.host if self._controller is not None else self._host
        reconfig = []
        watchdog = []
        if host is not None:
            reconfig = [
                {
                    "rpu": r.rpu,
                    "requested_at": r.requested_at,
                    "drained_at": r.drained_at,
                    "booted_at": r.booted_at,
                }
                for r in host.reconfig_log
            ]
            watchdog = [
                {
                    "rpu": w.rpu,
                    "detected_at": w.detected_at,
                    "packets_lost": w.packets_lost,
                    "recovered_at": w.recovered_at,
                    "mttr_cycles": w.recovery_cycles() if w.recovered else None,
                }
                for w in host.watchdog_log
            ]

        payload: Dict[str, Any] = {
            "seq": self._snapshot_seq,
            "now_cycles": now,
            "events_processed": sim.events_processed,
            "counters": system.counters.snapshot(),
            "drops": {
                "rx_overflow": reading["rx_drops"],
                "firmware": system.counters.value("dropped_by_firmware"),
                "rx_csum": mac_total("rx_csum_drops"),
                "rx_link": mac_total("rx_link_drops"),
                "rx_runts": mac_total("rx_runts"),
                "rx_giants": mac_total("rx_giants"),
                "oversize": sum(p.counters.value("oversize_drops") for p in system.port_ingress),
            },
            "queues": {
                "mac_rx_backlog": [mac.rx_backlog() for mac in system.macs],
                "rpu_in_flight": [rpu.in_flight for rpu in system.rpus],
                "host_rx": len(system.host_rx),
            },
            "rpus": rpus,
            "lb": {
                "policy": type(system.lb.policy).name,
                "dispatched": system.lb.dispatched,
                "deferred": system.lb.deferred,
                "enabled": list(system.lb.enabled),
            },
            "rates": rates,
            "fidelity": self._fidelity_block(now),
            "measurement": (
                self._measurement.status() if self._measurement is not None else None
            ),
            "reconfig": reconfig,
            "watchdog": watchdog,
            "feeds": [feed.describe() for feed in self._feeds],
        }
        return stamp(payload, "repro-snapshot")
