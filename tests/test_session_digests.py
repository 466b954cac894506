"""Golden digests of whole session results.

``benchmarks/results/session_digests.json`` holds the SHA-256 of
``json.dumps(result.to_dict(), sort_keys=True)`` for eight specs that
between them cover the session's stepping paths: throughput with and
without the host link, latency mode, two chaos campaigns (a wedged RPU
under a watchdog, and a link flap on each port that pauses a TX link
holding frames booked ahead), the Pigasus accelerator on the flows
source, the fluid tier and a two-board rack.  A change to how the session steps or reads its
counters that moves any result by one bit fails here.

After an intended change to results, regenerate with
``PYTHONPATH=src python tests/test_session_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import (
    ExperimentSpec,
    FaultSpec,
    MeasurementWindow,
    SimSession,
    TrafficProfile,
)
from repro.cluster import ClusterSpec
from repro.cluster.engine import ClusterEngine
from repro.core import RosebudConfig
from repro.serve import spec_from_params

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks/results/session_digests.json"

_FAST = MeasurementWindow(warmup_packets=200, measure_packets=600)


def _forwarder(**changes):
    spec = ExperimentSpec(
        config=RosebudConfig(n_rpus=8),
        traffic=TrafficProfile(packet_size=512, offered_gbps=100.0),
        window=_FAST,
    )
    return spec.with_(**changes) if changes else spec


def _specs():
    return {
        "forwarder_512b_100g": _forwarder(),
        "latency": _forwarder(
            measure="latency",
            window=MeasurementWindow(warmup_packets=50, measure_packets=150),
        ),
        "firewall_no_host": spec_from_params({
            "firmware": "firewall", "rules": 32, "rpus": 8, "size": 256,
            "gbps": 60, "warmup": 300, "packets": 800,
            "respect_generator_cap": False, "include_host": False,
        }),
        "chaos_wedge_watchdog": _forwarder(
            window=MeasurementWindow(warmup_packets=300, measure_packets=1500),
            faults=(
                FaultSpec(kind="rpu_wedge", at_cycles=20_000.0, target=2),
                FaultSpec(
                    kind="watchdog",
                    at_cycles=1_000.0,
                    params={
                        "threshold_cycles": 8_000.0,
                        "poll_cycles": 1_000.0,
                        "pr_load_ms": 0.01,
                    },
                ),
            ),
        ),
        "chaos_link_flap": _forwarder(
            traffic=TrafficProfile(packet_size=512, offered_gbps=180.0),
            window=MeasurementWindow(warmup_packets=300, measure_packets=1500),
            faults=(
                FaultSpec(kind="link_flap", at_cycles=3_000.0, target=0,
                          duration_cycles=1_200.0),
                FaultSpec(kind="link_flap", at_cycles=6_500.0, target=1,
                          duration_cycles=800.0),
            ),
        ),
        # the ids-event shape (HW reorder on the flows source) at a small window
        "pigasus_hw_flows": spec_from_params({
            "firmware": "pigasus_hw", "rules": 200, "rpus": 8, "ports": 2,
            "size": 512, "gbps": 200, "warmup": 200, "packets": 600,
        }),
        # the contended fluid spec of tests/test_serve_session.py
        "contended_fluid": ExperimentSpec(
            config=RosebudConfig(n_rpus=4, mac_rx_fifo_packets=8),
            traffic=TrafficProfile(packet_size=256, offered_gbps=200.0, n_ports=2),
            window=MeasurementWindow(
                warmup_packets=1000, measure_packets=30_000, max_cycles=5e9
            ),
            fidelity="fluid",
        ),
        "cluster_2_boards": ExperimentSpec(
            traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
            window=MeasurementWindow(
                warmup_packets=100, measure_packets=500, max_cycles=10_000_000
            ),
            cluster=ClusterSpec(boards=2),
        ),
    }


def _digest(name, spec):
    if spec.cluster is not None:
        result = ClusterEngine(spec, shards=1).run_to_completion()
    else:
        result = SimSession(spec).run_to_completion()
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_specs()))
def test_result_matches_the_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(name, _specs()[name]) == golden[name], (
        f"{name}: session result changed; if that is intended, regenerate "
        "with `PYTHONPATH=src python tests/test_session_digests.py`"
    )


if __name__ == "__main__":
    digests = {name: _digest(name, spec) for name, spec in sorted(_specs().items())}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
