"""The unified experiment description: :class:`ExperimentSpec`.

Before this module the harness grew three divergent kwarg bundles —
``measure_throughput(system, sources, size, gbps, warmup..., ...)``,
``forwarding_experiment(n_rpus, size, gbps, factory, lb_policy, ...)``
and the CLI's per-subcommand argument soup.  An :class:`ExperimentSpec`
captures *one steady-state measurement point* declaratively:

* ``config`` — the :class:`~repro.core.config.RosebudConfig` to build,
* ``firmware`` + ``firmware_args`` — how to construct the firmware,
* ``traffic`` — a :class:`TrafficProfile` (size, offered rate, ports,
  source kind, seeds),
* ``window`` — a :class:`MeasurementWindow` (warmup, measure, deadline).

The same spec is used by the serial helpers, the parallel
:class:`~repro.analysis.engine.SweepRunner`, and the CLI, so every
entry point constructs systems one way.  Specs are plain picklable
data (factories are referenced by import path), which is what lets the
engine ship them to spawn-based worker processes, and they have a
*stable content hash* (:meth:`ExperimentSpec.cache_key`) so measured
points can be cached on disk and skipped on re-runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.config import RosebudConfig
from ..core.lb import HashLB, LBPolicy, LeastLoadedLB, PowerOfTwoChoicesLB, RoundRobinLB
from ..core.system import RosebudSystem
from ..cluster.spec import ClusterSpec
from ..faults.spec import FaultSpec

#: Part of every cache key: bump when a field or the measurement
#: semantics change, so entries written by older code miss instead of
#: satisfying a new run (per-version history is in ``CHANGES.md``).
SPEC_VERSION = 11

#: Named load-balancer policies (constructed per-spec so state is fresh).
LB_REGISTRY: Dict[str, Callable[[int], LBPolicy]] = {
    "hash": lambda n_rpus: HashLB(n_rpus),
    "rr": lambda n_rpus: RoundRobinLB(),
    "p2c": lambda n_rpus: PowerOfTwoChoicesLB(n_rpus),
    "least": lambda n_rpus: LeastLoadedLB(),
}


def _blacklist(rules: int) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
    from ..accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist

    return (IpBlacklistMatcher(parse_blacklist(generate_blacklist(rules))),), {}


def _ruleset(rules: int) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
    from ..accel.pigasus import generate_ruleset, parse_rules

    parsed = parse_rules(generate_ruleset(rules))
    return (parsed,), {"source_kwargs": {
        "attack_fraction": 0.01,
        "attack_payloads": tuple(r.content for r in parsed),
        "reorder_fraction": 0.003,
        "n_flows": 2048,
    }}


class FirmwareRow(NamedTuple):
    """A named middlebox: its :mod:`repro.firmware` class (resolved when
    a spec is built, so importing this module loads no firmware), an
    optional ``rules -> (firmware_args, params)`` builder, and default
    :func:`spec_from_params` params that explicit ones override."""

    factory: str
    rules: Optional[Callable[[int], Tuple[Tuple[Any, ...], Dict[str, Any]]]] = None
    defaults: Dict[str, Any] = {}


_PIGASUS = {"slots_per_rpu": 32, "source": "flows", "respect_generator_cap": False}

#: The middleboxes both front doors (CLI, ``repro serve`` ``open``) name.
FIRMWARE_REGISTRY: Dict[str, FirmwareRow] = {
    "forwarder": FirmwareRow("ForwarderFirmware"),
    "nat": FirmwareRow("NatFirmware", None, {"lb": "hash", "respect_generator_cap": False}),
    "firewall": FirmwareRow("FirewallFirmware", _blacklist,
                            {"respect_generator_cap": False, "include_absorbed": True}),
    "pigasus_hw": FirmwareRow("PigasusHwReorderFirmware", _ruleset, _PIGASUS),
    "pigasus_sw": FirmwareRow("PigasusSwReorderFirmware", _ruleset, {**_PIGASUS, "lb": "hash"}),
}
FIRMWARE_REGISTRY["pigasus"] = FIRMWARE_REGISTRY["pigasus_hw"]


class SpecError(ValueError):
    """Raised for inconsistent experiment specifications."""


@dataclass(frozen=True)
class MeasurementWindow:
    """Warmup + measurement interval, in packets (the §6 methodology:
    reach steady state, then average over a window)."""

    warmup_packets: int = 2000
    measure_packets: int = 8000
    max_cycles: float = 500_000_000.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "warmup_packets": self.warmup_packets,
            "measure_packets": self.measure_packets,
            "max_cycles": self.max_cycles,
        }


@dataclass(frozen=True)
class TrafficProfile:
    """What the tester offers: size, aggregate rate, ports, source kind.

    ``offered_gbps`` is the *total* across ``n_ports``; each port gets
    an equal share.  Port ``p`` seeds its generator with
    ``seed_base + p`` so multi-port runs stay decorrelated but
    deterministic.  ``source`` names a registered builder (``fixed``,
    ``flows``, ``imix``); extra constructor keywords ride in
    ``source_kwargs``.
    """

    packet_size: int = 512
    offered_gbps: float = 200.0
    n_ports: int = 2
    source: str = "fixed"
    seed_base: int = 1
    respect_generator_cap: bool = True
    source_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.n_ports < 1:
            raise SpecError("need at least one traffic port")
        if self.packet_size < 1:
            raise SpecError(f"packet size {self.packet_size} must be positive")
        if self.offered_gbps <= 0:
            raise SpecError("offered rate must be positive")
        # Accept a plain dict for convenience; store sorted items so the
        # profile hashes and pickles stably.
        if isinstance(self.source_kwargs, dict):
            object.__setattr__(
                self, "source_kwargs", tuple(sorted(self.source_kwargs.items()))
            )

    @property
    def per_port_gbps(self) -> float:
        return self.offered_gbps / self.n_ports

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.source_kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "packet_size": self.packet_size,
            "offered_gbps": self.offered_gbps,
            "n_ports": self.n_ports,
            "source": self.source,
            "seed_base": self.seed_base,
            "respect_generator_cap": self.respect_generator_cap,
            "source_kwargs": {k: _jsonable(v) for k, v in self.source_kwargs},
        }


def _build_fixed(system: RosebudSystem, port: int, profile: TrafficProfile):
    from ..traffic.generator import FixedSizeSource

    return FixedSizeSource(
        system,
        port,
        profile.per_port_gbps,
        profile.packet_size,
        seed=profile.seed_base + port,
        respect_generator_cap=profile.respect_generator_cap,
        **profile.kwargs,
    )


def _build_flows(system: RosebudSystem, port: int, profile: TrafficProfile):
    from ..traffic.flows import FlowTrafficSource

    return FlowTrafficSource(
        system,
        port,
        profile.per_port_gbps,
        profile.packet_size,
        seed=profile.seed_base + port,
        respect_generator_cap=profile.respect_generator_cap,
        **profile.kwargs,
    )


def _build_imix(system: RosebudSystem, port: int, profile: TrafficProfile):
    from ..traffic.generator import ImixSource

    return ImixSource(
        system,
        port,
        profile.per_port_gbps,
        seed=profile.seed_base + port,
        respect_generator_cap=profile.respect_generator_cap,
        **profile.kwargs,
    )


SOURCE_REGISTRY: Dict[str, Callable[[RosebudSystem, int, TrafficProfile], Any]] = {
    "fixed": _build_fixed,
    "flows": _build_flows,
    "imix": _build_imix,
}


def _qualname(obj: Any) -> str:
    """A stable import-path fingerprint for a factory callable."""
    if isinstance(obj, functools.partial):
        inner = _qualname(obj.func)
        return f"partial({inner}, args={obj.args!r}, kwargs={sorted(obj.keywords.items())!r})"
    module = getattr(obj, "__module__", type(obj).__module__)
    name = getattr(obj, "__qualname__", None)
    if name is None:  # instance: fingerprint the class
        name = type(obj).__qualname__
    return f"{module}.{name}"


def _jsonable(value: Any) -> Any:
    """Best-effort canonical form for hashing (bytes/callables included)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return "bytes:" + hashlib.sha256(value).hexdigest()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if callable(value):
        return "callable:" + _qualname(value)
    return repr(value)


@dataclass
class ExperimentSpec:
    """One steady-state experiment, fully described.

    ``firmware`` is a zero-or-more-arg callable (usually the firmware
    class itself); the spec calls ``firmware(*firmware_args,
    **firmware_kwargs)`` when building, so a fresh model is constructed
    for every run — never share live firmware between points.

    ``lb`` is a registered policy name (``hash``/``rr``/``p2c``/
    ``least``), an :class:`LBPolicy` instance, or None for the default.
    ``setup`` is an optional post-build hook ``setup(system)`` for
    register pokes (e.g. the loopback enable mask).  Specs using live
    objects for these escape hatches still run, but lose spawn-pool
    eligibility and cache stability is only as good as the callable's
    import path.  The ISS backend is not a spec field: the spec's run
    builds no :class:`~repro.riscv.RiscvCpu` (``calibrate`` picks one).
    """

    config: RosebudConfig = field(default_factory=RosebudConfig)
    firmware: Callable[..., Any] = None  # type: ignore[assignment]
    firmware_args: Tuple[Any, ...] = ()
    firmware_kwargs: Tuple[Tuple[str, Any], ...] = ()
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    window: MeasurementWindow = field(default_factory=MeasurementWindow)
    lb: Any = None
    measure: str = "throughput"
    include_host: bool = True
    include_absorbed: bool = False
    setup: Optional[Callable[[RosebudSystem], None]] = None
    faults: Tuple[FaultSpec, ...] = ()
    #: static pre-flight verification (repro.verify) before building
    #: the system: False (off), "warn" (run + warn on FAIL), or "fail"
    #: (run + raise VerificationError on FAIL).  ``True`` is accepted
    #: as a synonym for "fail".  Sweeps with verify="fail" surface an
    #: infeasible point as a per-point error before burning pool time.
    verify: Any = False
    #: simulation fidelity tier: "event" (pure discrete-event) or
    #: "fluid" (repro.fluid fast-forward — provably repetitive periods
    #: are skipped arithmetically; totals match the event run, but a
    #: float-time tie can move a per-port split, see fluid.engine).  Ineligible
    #: specs under "fluid" silently run event-accurate, with the
    #: reasons recorded in the result's ``fluid`` block.
    fidelity: str = "event"
    #: N-board rack topology (repro.cluster), or None for one board.
    #: Cluster points measure throughput only and are mutually
    #: exclusive with in-board fault campaigns (the cluster has its own
    #: liveness events) and the fluid tier (which tracks live packets
    #: per board and cannot see cross-board state).
    cluster: Optional[ClusterSpec] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.verify is True:
            self.verify = "fail"
        if self.verify not in (False, "warn", "fail"):
            raise SpecError(
                f"verify must be False, True, 'warn' or 'fail', "
                f"not {self.verify!r}"
            )
        if self.firmware is None:
            from ..firmware import ForwarderFirmware

            self.firmware = ForwarderFirmware
        if isinstance(self.firmware_kwargs, dict):
            self.firmware_kwargs = tuple(sorted(self.firmware_kwargs.items()))
        if self.measure not in ("throughput", "latency"):
            raise SpecError(f"unknown measurement kind {self.measure!r}")
        if self.fidelity not in ("event", "fluid"):
            raise SpecError(
                f"fidelity must be 'event' or 'fluid', not {self.fidelity!r}"
            )
        if isinstance(self.lb, str) and self.lb not in LB_REGISTRY:
            raise SpecError(
                f"unknown lb policy {self.lb!r}; choices: {sorted(LB_REGISTRY)}"
            )
        if self.traffic.source not in SOURCE_REGISTRY:
            raise SpecError(
                f"unknown traffic source {self.traffic.source!r}; "
                f"choices: {sorted(SOURCE_REGISTRY)}"
            )
        # normalise cluster: accept a ClusterSpec or a plain dict
        if self.cluster is not None and not isinstance(self.cluster, ClusterSpec):
            self.cluster = ClusterSpec.from_dict(dict(self.cluster))
        if self.cluster is not None:
            if self.faults:
                raise SpecError(
                    "cluster specs cannot carry in-board fault campaigns; "
                    "use cluster events (drain/restore/wedge_board) instead"
                )
            if self.measure != "throughput":
                raise SpecError(
                    f"cluster specs measure throughput only, not {self.measure!r}"
                )
        # normalise faults: accept a list of FaultSpec or plain dicts
        if not isinstance(self.faults, tuple):
            self.faults = tuple(self.faults)
        self.faults = tuple(
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(dict(f))
            for f in self.faults
        )
        for fault in self.faults:
            if fault.kind in ("rpu_wedge", "accel_fault", "reconfig"):
                if fault.target >= self.config.n_rpus:
                    raise SpecError(
                        f"fault {fault.kind!r} targets rpu {fault.target} "
                        f"but the config has {self.config.n_rpus}"
                    )
            elif fault.kind in ("mac_corrupt", "link_flap"):
                if not 0 <= fault.target < self.config.n_ports:
                    raise SpecError(
                        f"fault {fault.kind!r} targets port {fault.target} "
                        f"but the config has {self.config.n_ports}"
                    )

    # -- construction -----------------------------------------------------

    def build_firmware(self) -> Any:
        return self.firmware(*self.firmware_args, **dict(self.firmware_kwargs))

    def build_lb(self) -> Optional[LBPolicy]:
        if self.lb is None:
            return None
        if isinstance(self.lb, str):
            return LB_REGISTRY[self.lb](self.config.n_rpus)
        return self.lb

    def build_system(self) -> RosebudSystem:
        system = RosebudSystem(self.config, self.build_firmware(), lb_policy=self.build_lb())
        if self.setup is not None:
            self.setup(system)
        return system

    def build_sources(self, system: RosebudSystem) -> List[Any]:
        builder = SOURCE_REGISTRY[self.traffic.source]
        return [builder(system, port, self.traffic) for port in range(self.traffic.n_ports)]

    def with_(self, **changes: Any) -> "ExperimentSpec":
        """A copy with fields replaced (sweeps build grids this way)."""
        return replace(self, **changes)

    # -- identity ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe description (also the cache-key input)."""
        return {
            "spec_version": SPEC_VERSION,
            "config": self.config.to_dict(),
            "firmware": _qualname(self.firmware),
            "firmware_args": _jsonable(list(self.firmware_args)),
            "firmware_kwargs": {k: _jsonable(v) for k, v in self.firmware_kwargs},
            "traffic": self.traffic.to_dict(),
            "window": self.window.to_dict(),
            "lb": self.lb if isinstance(self.lb, str) or self.lb is None
            else _qualname(self.lb),
            "measure": self.measure,
            "include_host": self.include_host,
            "include_absorbed": self.include_absorbed,
            "setup": None if self.setup is None else _qualname(self.setup),
            "faults": [f.to_dict() for f in self.faults],
            "verify": self.verify,
            "fidelity": self.fidelity,
            "cluster": None if self.cluster is None else self.cluster.to_dict(),
        }

    def cache_key(self) -> str:
        """Stable sha256 over (config, firmware, traffic, window, ...)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        t = self.traffic
        fw = _qualname(self.firmware).rsplit(".", 1)[-1]
        return (
            self.name
            or f"{fw} rpus={self.config.n_rpus} size={t.packet_size} "
            f"gbps={t.offered_gbps:g} {self.measure}"
        )


def spec_from_params(params: Dict[str, Any]) -> ExperimentSpec:
    """Build the spec for a named middlebox at a point.

    The one builder behind both front doors: the CLI's experiment
    subcommands pass their parsed flags and ``repro serve`` passes its
    ``open`` params.  ``firmware`` names a :data:`FIRMWARE_REGISTRY`
    row; unknown params raise :class:`SpecError`.
    """
    p = dict(params)
    name = p.pop("firmware", "forwarder")
    if name not in FIRMWARE_REGISTRY:
        raise SpecError(f"unknown firmware {name!r}; choices: {sorted(FIRMWARE_REGISTRY)}")
    row = FIRMWARE_REGISTRY[name]
    rules = int(p.pop("rules", 120))
    fw_args, derived = row.rules(rules) if row.rules is not None else ((), {})
    p = {**row.defaults, **derived, **p}

    config_kwargs: Dict[str, Any] = {"n_rpus": int(p.pop("rpus", 16))}
    if "slots_per_rpu" in p:
        config_kwargs["slots_per_rpu"] = int(p.pop("slots_per_rpu"))

    traffic_kwargs: Dict[str, Any] = dict(
        packet_size=int(p.pop("size", 512)),
        offered_gbps=float(p.pop("gbps", 100.0)),
        n_ports=int(p.pop("ports", 2)),
    )
    for key, cast in (("source", str), ("source_kwargs", dict), ("seed_base", int),
                      ("respect_generator_cap", bool)):
        if key in p:
            traffic_kwargs[key] = cast(p.pop(key))

    window = MeasurementWindow(
        warmup_packets=int(p.pop("warmup", 800)),
        measure_packets=int(p.pop("packets", 3000)),
        max_cycles=float(p.pop("max_cycles", 500_000_000)),
    )

    from .. import firmware

    spec_kwargs: Dict[str, Any] = {
        "config": RosebudConfig(**config_kwargs),
        "firmware": getattr(firmware, row.factory),
        "firmware_args": fw_args,
        "traffic": TrafficProfile(**traffic_kwargs),
        "window": window,
        "lb": p.pop("lb", None),
        "measure": p.pop("measure", "throughput"),
        "include_absorbed": bool(p.pop("include_absorbed", False)),
        "faults": tuple(p.pop("faults", ())),
        "fidelity": p.pop("fidelity", "event"),
    }
    if "cluster" in p:
        cluster = p.pop("cluster")
        if isinstance(cluster, int):
            cluster = {"boards": cluster}
        # a dict is normalised to a ClusterSpec by the spec itself
        spec_kwargs["cluster"] = cluster
    if "include_host" in p:
        spec_kwargs["include_host"] = bool(p.pop("include_host"))
    if "verify" in p:
        spec_kwargs["verify"] = p.pop("verify")
    if p:
        raise SpecError(f"unknown open parameters: {sorted(p)}")
    return ExperimentSpec(**spec_kwargs)


@dataclass
class ExperimentResult:
    """What one spec measured.

    ``counters`` snapshots the system-level counter block after the
    run (``delivered``, ``to_host``, ``dropped_by_firmware``, ...);
    ``firmware_totals`` sums the public integer attributes of every
    RPU's firmware model (best-effort — e.g. NAT's ``translated``), so
    consumers never need the live system back from a worker process.
    """

    spec_key: str
    throughput: Optional[Any] = None  # ThroughputResult
    latency: Optional[Dict[str, float]] = None  # Histogram.summary()
    counters: Dict[str, int] = field(default_factory=dict)
    firmware_totals: Dict[str, int] = field(default_factory=dict)
    resilience: Optional[Dict[str, Any]] = None  # resilience_report()
    #: fluid-tier accounting (eligibility, warps, occupancy, de-opts),
    #: or None for pure event runs.  Excluded from statistical
    #: comparisons: it describes simulator work saved, not network
    #: behaviour.
    fluid: Optional[Dict[str, Any]] = None
    #: cluster accounting (per-board totals, cross-board traffic,
    #: events, watchdog outages, dip/MTTR), or None for single-board
    #: points.
    cluster: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        from ..schema import stamp

        out: Dict[str, Any] = {
            "spec_key": self.spec_key,
            "counters": dict(self.counters),
            "firmware_totals": dict(self.firmware_totals),
        }
        if self.throughput is not None:
            out["throughput"] = self.throughput.to_dict()
        if self.latency is not None:
            out["latency"] = dict(self.latency)
        if self.resilience is not None:
            out["resilience"] = dict(self.resilience)
        if self.fluid is not None:
            out["fluid"] = dict(self.fluid)
        if self.cluster is not None:
            out["cluster"] = dict(self.cluster)
        return stamp(out, "repro-result")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        from ..schema import check
        from .harness import ThroughputResult

        if "schema" in data:
            # cache entries written before the envelope was versioned
            # carry no schema field and stay readable; anything stamped
            # must be a repro-result document this code understands
            check(data, "repro-result")
        throughput = None
        if "throughput" in data:
            throughput = ThroughputResult.from_dict(data["throughput"])
        return cls(
            spec_key=data.get("spec_key", ""),
            throughput=throughput,
            latency=data.get("latency"),
            counters=data.get("counters", {}),
            firmware_totals=data.get("firmware_totals", {}),
            resilience=data.get("resilience"),
            fluid=data.get("fluid"),
            cluster=data.get("cluster"),
        )
