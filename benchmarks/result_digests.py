"""Result digests of a fixed spec list, for diffing two source trees.

A refactor that claims to change no result runs this once per tree and
diffs the two outputs::

    PYTHONPATH=<tree>/src python benchmarks/result_digests.py > <tree>.json
    diff parent.json change.json

Each row is keyed by a name and holds the SHA-256 of
``json.dumps(result.to_dict(), sort_keys=True)`` (``full``), the same
digest with ``spec_key`` removed (``sans_spec_key``, for a change that
only re-keys specs) and the kernel's ``events`` count.  The list covers
what the eight session goldens do not: IMIX (throughput, latency, link
flaps), 16 RPUs at both ends of the size range, jumbo frames, the
loopback port, the host link, Pigasus SW, NAT, an RPU wedge, an
uncontended fluid run and a two-board rack on one and on two shards
(whose rows must match each other).  It also runs the ``fwd-event``,
``ids-event`` and ``fluid-contended`` specs of ``benchmarks/e2e`` on
seeds 1 and 2 and the eight specs of ``tests/test_session_digests.py``.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

from repro import (
    ClusterEngine,
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    MeasurementWindow,
    RosebudConfig,
    SimSession,
    TrafficProfile,
)
from repro.analysis.spec import spec_from_params
from repro.firmware import TwoStepForwarder

ROOT = Path(__file__).resolve().parent.parent

_WINDOW = MeasurementWindow(warmup_packets=300, measure_packets=1500)
_LATENCY = MeasurementWindow(warmup_packets=50, measure_packets=300)


def _spec(size=512, gbps=100.0, n_rpus=8, source="fixed", **changes):
    spec = ExperimentSpec(
        config=RosebudConfig(n_rpus=n_rpus),
        traffic=TrafficProfile(packet_size=size, offered_gbps=gbps, source=source),
        window=_WINDOW,
    )
    return spec.with_(**changes) if changes else spec


def _enable_senders(n_rpus, system):
    system.lb.host_write(system.lb.REG_ENABLE_MASK, (1 << (n_rpus // 2)) - 1)


def _flap(port, at, duration):
    return FaultSpec(kind="link_flap", at_cycles=at, target=port, duration_cycles=duration)


def specs():
    """The fixed list: ``{name: spec}``."""
    return {
        "imix_150g": _spec(gbps=150.0, source="imix"),
        "imix_latency": _spec(gbps=2.0, source="imix", measure="latency", window=_LATENCY),
        "imix_link_flaps": _spec(
            gbps=180.0, source="imix",
            faults=(_flap(0, 3_000.0, 1_200.0), _flap(1, 6_500.0, 800.0)),
        ),
        "rpus16_64b_200g": _spec(size=64, gbps=200.0, n_rpus=16),
        "rpus16_1500b_latency": _spec(
            size=1500, gbps=2.0, n_rpus=16, measure="latency", window=_LATENCY
        ),
        "jumbo_9000b": _spec(size=9000, gbps=100.0),
        "loopback_two_step": spec_from_params({
            "rpus": 16, "size": 128, "gbps": 100.0, "ports": 1,
            "respect_generator_cap": False, "warmup": 300, "packets": 1500,
        }).with_(
            firmware=TwoStepForwarder, firmware_args=(16,),
            setup=functools.partial(_enable_senders, 16),
        ),
        "firewall_host_128b": spec_from_params({
            "firmware": "firewall", "rules": 64, "rpus": 8, "size": 128,
            "gbps": 60, "warmup": 300, "packets": 1500,
        }),
        "pigasus_sw": spec_from_params({
            "firmware": "pigasus_sw", "rules": 120, "rpus": 8, "size": 800,
            "gbps": 100, "warmup": 200, "packets": 800,
        }),
        "nat": spec_from_params({
            "firmware": "nat", "rpus": 8, "ports": 1, "size": 512,
            "gbps": 100, "warmup": 300, "packets": 1500,
        }),
        "rpu_wedge": _spec(
            gbps=150.0,
            faults=(FaultSpec(kind="rpu_wedge", at_cycles=10_000.0, target=3),),
        ),
        "fluid_uncontended_40k": _spec(
            window=MeasurementWindow(warmup_packets=1000, measure_packets=40_000),
            fidelity="fluid",
        ),
        "rack_2_boards": ExperimentSpec(
            traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
            window=MeasurementWindow(
                warmup_packets=100, measure_packets=800, max_cycles=10_000_000
            ),
            cluster=ClusterSpec(boards=2),
        ),
    }


def _workload_specs():
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import FluidContended, FwdEvent, IdsEvent

    return {
        f"{cls.name}_seed{seed}": cls(seed).spec()
        for cls in (FwdEvent, IdsEvent, FluidContended)
        for seed in (1, 2)
    }


def _golden_specs():
    sys.path.insert(0, str(ROOT))
    from tests.test_session_digests import _specs

    return {f"golden_{name}": spec for name, spec in _specs().items()}


def _sha(tree):
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()


def _row(spec, shards=1):
    if spec.cluster is not None:
        engine = ClusterEngine(spec, shards=shards)
        result, events = engine.run_to_completion(), None
    else:
        session = SimSession(spec)
        result = session.run_to_completion()
        events = session.sim.events_processed
    tree = result.to_dict()
    full = _sha(tree)
    tree.pop("spec_key")
    return {"full": full, "sans_spec_key": _sha(tree), "events": events}


def main() -> int:
    todo = {**specs(), **_workload_specs(), **_golden_specs()}
    rows = {name: _row(spec) for name, spec in todo.items()}
    rows["rack_2_boards_sharded"] = _row(todo["rack_2_boards"], shards=2)
    json.dump(rows, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
