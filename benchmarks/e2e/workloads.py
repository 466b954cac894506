"""The seven workloads of the end-to-end benchmark.

Each workload drives the simulator through its public API only
(``repro.ExperimentSpec``/``SimSession``/``ClusterEngine`` and
``repro.core.funccluster.FunctionalCluster``).  Inputs are generated
here from the seed — traffic ``seed_base``, the flow sets, the
blacklist/ruleset generators — and the program only ever receives the
generated specs and frames.

A workload is used as::

    handle = workload.build()        # per-iteration set-up (untimed)
    result = workload.run(handle)    # the timed region: one run call
    obs = workload.observe(handle, result)
    err, reference = workload.model_error(result)   # once, in the check phase

Packet counts per iteration are fixed by the class constants; ``scale``
shrinks them for the reduced-size test pass only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    ClusterEngine,
    ClusterSpec,
    ExperimentSpec,
    MeasurementWindow,
    RosebudConfig,
    SimSession,
    TrafficProfile,
)
from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.core.funccluster import FunctionalCluster
from repro.firmware import FIREWALL_ASM, ForwarderFirmware, PigasusHwReorderFirmware
from repro.fluid.compare import diff_results
from repro.packet import build_tcp, int_to_ip

N_RPUS = 8


@dataclass
class Observation:
    """What one iteration produced, read from public fields."""

    packets: int
    sim_cycles: float
    digest: str
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def _digest(tree: Any) -> str:
    canonical = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _count_leaves(tree: Any) -> int:
    if isinstance(tree, dict):
        return sum(_count_leaves(v) for v in tree.values())
    if isinstance(tree, (list, tuple)):
        return sum(_count_leaves(v) for v in tree)
    return 1


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def scaled(self, packets: int, floor: int = 256) -> int:
        return max(floor, int(packets * self.scale))

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, handle: Any) -> Any:
        raise NotImplementedError

    def observe(self, handle: Any, result: Any) -> Observation:
        raise NotImplementedError

    def model_error(self, result: Any) -> Tuple[float, str]:
        """``(model_err_pct, reference)`` for the check phase: scores
        ``result`` (the last iteration's) or runs the reference it needs."""
        raise NotImplementedError


# -- event / fluid tier: one board behind a SimSession ------------------------


def _throughput_counters(result: Any, packets: int, sim_cycles: float) -> Dict[str, float]:
    throughput = result.throughput
    counters = result.counters
    return {
        "core.achieved_gbps": throughput.achieved_gbps,
        "core.cycles_per_pkt": throughput.cycles_per_packet,
        "core.sim_cycles": sim_cycles,
        "core.delivered": counters.get("delivered", 0),
        "core.dropped": throughput.rx_drops + counters.get("dropped_by_firmware", 0),
    }


def _window_problems(result: Any, window: MeasurementWindow) -> List[str]:
    counters = result.counters
    done = (
        counters.get("delivered", 0)
        + counters.get("to_host", 0)
        + counters.get("dropped_by_firmware", 0)
    )
    target = window.warmup_packets + window.measure_packets
    if done < target:
        return [f"window not accounted for: {done} completions < {target}"]
    return []


class SessionWorkload(Workload):
    """``SimSession(spec).run_to_completion()`` on a single board."""

    warmup_packets = 0
    measure_packets = 0
    max_cycles = 500_000_000.0

    def window(self) -> MeasurementWindow:
        return MeasurementWindow(
            warmup_packets=self.scaled(self.warmup_packets),
            measure_packets=self.scaled(self.measure_packets),
            max_cycles=self.max_cycles,
        )

    def spec(self) -> ExperimentSpec:
        raise NotImplementedError

    def build(self) -> SimSession:
        return SimSession(self.spec())

    def run(self, handle: SimSession) -> Any:
        # a stall or deadline exit raises here and fails the iteration
        return handle.run_to_completion()

    def observe(self, handle: SimSession, result: Any) -> Observation:
        window = handle.spec.window
        packets = window.warmup_packets + window.measure_packets
        sim = handle.sim
        counters = _throughput_counters(result, packets, sim.now)
        counters["sim.kernel.events"] = sim.events_processed
        counters["sim.kernel.events_per_pkt"] = sim.events_processed / packets
        if result.fluid is not None:
            fluid = result.fluid
            counters["fluid.warps"] = fluid["warps"]
            counters["fluid.periods_warped"] = fluid["periods_warped"]
            counters["fluid.occupancy"] = fluid["occupancy"]["fluid"]
            counters["fluid.event_cycles"] = sim.now - fluid["warped_cycles"]
        return Observation(
            packets=packets,
            sim_cycles=sim.now,
            digest=_digest(result.to_dict()),
            counters=counters,
            problems=_window_problems(result, window),
        )


class FwdEvent(SessionWorkload):
    name = "fwd-event"
    warmup_packets = 2000
    measure_packets = 8000

    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            config=RosebudConfig(n_rpus=N_RPUS),
            firmware=ForwarderFirmware,
            traffic=TrafficProfile(packet_size=512, offered_gbps=100.0, seed_base=self.seed),
            window=self.window(),
            fidelity="event",
        )

    def model_error(self, result: Any) -> Tuple[float, str]:
        throughput = result.throughput
        err = abs(throughput.achieved_gbps / throughput.line_rate_gbps - 1.0) * 100.0
        return err, "paper Fig. 7b: 100% of line rate at 512B/100G with 8 RPUs"


class IdsEvent(SessionWorkload):
    name = "ids-event"
    warmup_packets = 1000
    measure_packets = 3000
    #: cycles per packet of the HW-reorder IPS (paper Fig. 9)
    PAPER_CYCLES_PER_PACKET = 61.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.rules = parse_rules(generate_ruleset(1000, seed=seed))

    def spec(self) -> ExperimentSpec:
        # exactly what `repro ids --mode hw` builds
        return ExperimentSpec(
            config=RosebudConfig(n_rpus=N_RPUS, slots_per_rpu=32),
            firmware=PigasusHwReorderFirmware,
            firmware_args=(self.rules,),
            traffic=TrafficProfile(
                packet_size=512,
                offered_gbps=200.0,
                n_ports=2,
                source="flows",
                seed_base=self.seed,
                respect_generator_cap=False,
                source_kwargs={
                    "attack_fraction": 0.01,
                    "attack_payloads": tuple(r.content for r in self.rules),
                    "reorder_fraction": 0.003,
                    "n_flows": 2048,
                },
            ),
            window=self.window(),
        )

    def model_error(self, result: Any) -> Tuple[float, str]:
        cpp = result.throughput.cycles_per_packet
        err = abs(cpp - self.PAPER_CYCLES_PER_PACKET) / self.PAPER_CYCLES_PER_PACKET * 100.0
        return err, "paper Fig. 9: 61 cycles/packet for HW reorder"


class FluidContended(SessionWorkload):
    name = "fluid-contended"
    warmup_packets = 2000
    measure_packets = 1_000_000
    max_cycles = 5e10
    #: the detector needs ~9k packets of event simulation before it can
    #: warp; a smaller window would never engage the fluid layer
    MIN_MEASURE = 20_000
    #: window of the event-fidelity reference run in the check phase
    CHECK_MEASURE = 10_000

    def window(self) -> MeasurementWindow:
        return MeasurementWindow(
            warmup_packets=self.warmup_packets,
            measure_packets=self.scaled(self.measure_packets, floor=self.MIN_MEASURE),
            max_cycles=self.max_cycles,
        )

    def spec(self, **overrides: Any) -> ExperimentSpec:
        # offered (200G of 256B) exceeds what 8 forwarder RPUs serve:
        # MAC FIFOs back up and drop every period
        settings: Dict[str, Any] = {"window": self.window(), "fidelity": "fluid"}
        settings.update(overrides)
        return ExperimentSpec(
            config=RosebudConfig(n_rpus=N_RPUS),
            firmware=ForwarderFirmware,
            traffic=TrafficProfile(packet_size=256, offered_gbps=200.0, seed_base=self.seed),
            **settings,
        )

    def observe(self, handle: SimSession, result: Any) -> Observation:
        obs = super().observe(handle, result)
        if not result.fluid["engaged"]:
            obs.problems.append(f"fluid tier never engaged: {result.fluid['reasons']}")
        return obs

    def model_error(self, result: Any) -> Tuple[float, str]:
        window = MeasurementWindow(
            self.warmup_packets, self.CHECK_MEASURE, max_cycles=self.max_cycles
        )
        fluid = SimSession(self.spec(window=window)).run_to_completion().to_dict()
        event = SimSession(
            self.spec(window=window, fidelity="event")
        ).run_to_completion().to_dict()
        problems = diff_results(fluid, event)
        err = 100.0 * len(problems) / _count_leaves(event)
        reference = (
            f"more detailed tier: fidelity='event' run of the same spec at a "
            f"{window.warmup_packets}+{window.measure_packets} window "
            f"(repro.fluid.compare.diff_results)"
        )
        return err, reference


# -- rack tier: two boards on two shard workers -------------------------------


class Rack2Shard(Workload):
    name = "rack-2shard"
    warmup_packets = 500
    measure_packets = 4500
    SHARDS = 2

    def spec(self) -> ExperimentSpec:
        # the cluster_probe rack
        return ExperimentSpec(
            config=RosebudConfig(n_rpus=N_RPUS),
            traffic=TrafficProfile(packet_size=512, offered_gbps=40.0, seed_base=self.seed),
            window=MeasurementWindow(
                warmup_packets=self.scaled(self.warmup_packets),
                measure_packets=self.scaled(self.measure_packets),
            ),
            cluster=ClusterSpec(boards=2),
        )

    def build(self) -> ClusterEngine:
        engine = ClusterEngine(self.spec(), shards=self.SHARDS)
        engine.start()
        # start() returns before the spawned workers have imported repro
        # and built their boards; crossing the first of the ~270 barriers
        # here keeps that start-up in set-up and out of the timed region
        engine.advance_horizon()
        return engine

    def run(self, handle: ClusterEngine) -> Any:
        # closes the engine (reaps the workers) on the way out, which is
        # when their CPU time becomes visible to the parent
        return handle.run_to_completion()

    def observe(self, handle: ClusterEngine, result: Any) -> Observation:
        window = handle.spec.window
        packets = window.warmup_packets + window.measure_packets
        counters = _throughput_counters(result, packets, handle.now)
        counters["cluster.horizons"] = result.cluster["horizons"]
        counters["cluster.cross_board_pkts"] = result.cluster["cross_board"]["packets"]
        return Observation(
            packets=packets,
            sim_cycles=handle.now,
            digest=_digest(result.to_dict()),
            counters=counters,
            problems=_window_problems(result, window),
        )

    def model_error(self, result: Any) -> Tuple[float, str]:
        inline = ClusterEngine(self.spec(), shards=1).run_to_completion().to_dict()
        sharded = result.to_dict()
        err = 0.0 if _digest(inline) == _digest(sharded) else 100.0
        return err, "more detailed tier: shards=1 result dict of the same spec (byte-identical)"


# -- functional tier: ISS cluster, replay cache off / hit / miss ---------------


@dataclass
class IssRun:
    """A warmed cluster plus the readings taken where timing starts."""

    cluster: FunctionalCluster
    instret: List[int]
    cycles: List[int]
    sent: int
    replay: Dict[str, int]


def _drive(cluster: FunctionalCluster, frames: Sequence[bytes], order: Sequence[int]) -> None:
    """Push ``order`` in bursts of every slot of every RPU, draining each
    burst (the loop of ``benchmarks/cache_probe.py``)."""
    burst = len(cluster.rpus) * cluster.config.slots_per_rpu
    push = cluster.push_packet
    for start in range(0, len(order), burst):
        for index in order[start : start + burst]:
            frame = frames[index]
            push(frame, port=0, class_key=frame)
        cluster.run_until_all_sent()


def _observables(cluster: FunctionalCluster) -> Tuple[list, int, list]:
    """What ``cache_probe`` compares: send stream, lookups, packet memory."""
    sent = [(s.tag, s.data, s.port, s.cycle) for rpu in cluster.rpus for s in rpu.sent]
    lookups = sum(rpu.accelerator.lookups for rpu in cluster.rpus)
    pmem = [rpu.dump_memory("pmem") for rpu in cluster.rpus]
    return sent, lookups, pmem


class IssWorkload(Workload):
    """Firewall firmware on an 8-RPU functional cluster, closed loop."""

    replay_cache = False
    n_flows = 64
    n_blacklisted = 3
    timed_packets = 0
    WARM_PACKETS = 512
    PACKET_SIZE = 512
    #: prefix of the packet order the reference cluster is compared on
    CHECK_PACKETS = 4096
    reference_backend = "translated"
    reference_replay = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.blacklist = parse_blacklist(generate_blacklist(1050, seed=seed))
        self.frames = self._flows(rng)
        n_packets = self.WARM_PACKETS + self.scaled(self.timed_packets)
        self.order = [rng.randrange(len(self.frames)) for _ in range(n_packets)]

    def _flows(self, rng: random.Random) -> List[bytes]:
        """``n_flows`` distinct TCP frames; the first ``n_blacklisted`` come
        from inside blacklisted prefixes, the rest from 10/8 (never listed)."""
        sources = []
        for prefix in rng.sample(self.blacklist, self.n_blacklisted):
            host_bits = 32 - prefix.length
            host = rng.getrandbits(host_bits) if host_bits else 0
            sources.append(int_to_ip(prefix.network | host))
        while len(sources) < self.n_flows:
            src = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            if src not in sources:
                sources.append(src)
        return [
            build_tcp(
                src, "2.2.2.2", 1024 + rng.randrange(60000), 80, pad_to=self.PACKET_SIZE
            ).data
            for src in sources
        ]

    def cluster(self, backend: str, replay_cache: bool) -> FunctionalCluster:
        return FunctionalCluster(
            N_RPUS,
            FIREWALL_ASM,
            accelerator_factory=lambda: IpBlacklistMatcher(self.blacklist),
            cpu_backend=backend,
            replay_cache=replay_cache,
        )

    def build(self) -> IssRun:
        cluster = self.cluster("translated", self.replay_cache)
        _drive(cluster, self.frames, self.order[: self.WARM_PACKETS])
        stats = cluster.replay_stats
        return IssRun(
            cluster=cluster,
            instret=[rpu.cpu.instret for rpu in cluster.rpus],
            cycles=[rpu.cpu.cycles for rpu in cluster.rpus],
            sent=cluster.total_sent(),
            replay=stats.snapshot() if stats is not None else {},
        )

    def run(self, handle: IssRun) -> FunctionalCluster:
        _drive(handle.cluster, self.frames, self.order[self.WARM_PACKETS :])
        return handle.cluster

    def observe(self, handle: IssRun, result: FunctionalCluster) -> Observation:
        cluster = handle.cluster
        timed = self.order[self.WARM_PACKETS :]
        packets = len(timed)
        instret = sum(
            rpu.cpu.instret - base for rpu, base in zip(cluster.rpus, handle.instret)
        )
        cycles = [rpu.cpu.cycles - base for rpu, base in zip(cluster.rpus, handle.cycles)]
        sim_cycles = max(cycles)
        dropped = sum(1 for rpu in cluster.rpus for s in rpu.sent if s.dropped)
        expected_dropped = sum(1 for index in self.order if index < self.n_blacklisted)
        seconds = cluster.config.clock.cycles_to_seconds(sim_cycles)
        counters: Dict[str, float] = {
            "core.achieved_gbps": packets * self.PACKET_SIZE * 8 / seconds / 1e9,
            "core.cycles_per_pkt": sum(cycles) / packets,
            "core.sim_cycles": sim_cycles,
            "core.delivered": cluster.total_sent() - dropped,
            "core.dropped": dropped,
            "riscv.instret": instret,
            "riscv.instr_per_pkt": instret / packets,
        }
        if cluster.replay_stats is not None:
            hits = cluster.replay_stats.delta(handle.replay)["hits"]
            counters["replay.hits"] = hits
            counters["replay.misses"] = packets - hits
            counters["replay.hit_rate"] = hits / packets
        problems = []
        if cluster.total_sent() - handle.sent != packets:
            problems.append(
                f"{cluster.total_sent() - handle.sent} descriptors sent for {packets} pushed"
            )
        if dropped != expected_dropped:
            problems.append(
                f"firewall dropped {dropped} packets, {expected_dropped} were blacklisted"
            )
        hasher = hashlib.sha256()
        for rpu in cluster.rpus:
            for s in rpu.sent:
                hasher.update(b"%d,%d,%d," % (s.tag, s.port, s.cycle))
                hasher.update(s.data)
            hasher.update(b"lookups=%d" % rpu.accelerator.lookups)
            hasher.update(rpu.dump_memory("pmem"))
        return Observation(
            packets=packets,
            sim_cycles=sim_cycles,
            digest=hasher.hexdigest(),
            counters=counters,
            problems=problems,
        )

    def model_error(self, result: Any) -> Tuple[float, str]:
        prefix = self.order[: self.CHECK_PACKETS]
        streams = []
        for backend, cached in (
            ("translated", self.replay_cache),
            (self.reference_backend, self.reference_replay),
        ):
            cluster = self.cluster(backend, cached)
            _drive(cluster, self.frames, prefix)
            streams.append(_observables(cluster))
        (sent, lookups, pmem), (ref_sent, ref_lookups, ref_pmem) = streams
        differing = sum(a != b for a, b in zip(sent, ref_sent)) + abs(len(sent) - len(ref_sent))
        differing += (lookups != ref_lookups) + sum(a != b for a, b in zip(pmem, ref_pmem))
        compared = max(len(sent), len(ref_sent)) + 1 + len(ref_pmem)
        reference = (
            f"more detailed tier: cpu_backend={self.reference_backend!r}, "
            f"replay_cache={self.reference_replay} cluster on the same "
            f"{len(prefix)}-packet prefix (send stream, accelerator lookups, pmem images)"
        )
        return 100.0 * differing / compared, reference


class IssPlain(IssWorkload):
    name = "iss-plain"
    timed_packets = 40_000
    reference_backend = "interp"


class IssReplayHit(IssWorkload):
    name = "iss-replay-hit"
    replay_cache = True
    n_flows = 2
    n_blacklisted = 1
    timed_packets = 120_000


class IssReplayMiss(IssWorkload):
    name = "iss-replay-miss"
    replay_cache = True
    timed_packets = 16_000


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        FwdEvent,
        IdsEvent,
        FluidContended,
        Rack2Shard,
        IssPlain,
        IssReplayHit,
        IssReplayMiss,
    )
}
