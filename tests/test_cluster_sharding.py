"""Worker-crash paths and the barrier protocol under cluster sharding.

The horizon barrier is a rendezvous: if a shard worker dies or wedges
mid-sync, the parent must surface a *named* :class:`ClusterShardError`
— never hang waiting on a pipe that will not answer, and never read a
reply left over from a failed round.  The worker protocol ships two
deliberate test hooks (``crash`` = silent ``os._exit``, ``hang`` =
oversleep) so these paths are exercised for real, against real spawn
processes.  The barrier must post to every shard before collecting
from any, and a packet that crosses boards must not take the id of a
packet live on the board it lands on.
"""

import itertools
import pickle

import pytest

import repro.cluster.engine as engine_module
import repro.cluster.shard as shard_module
import repro.packet.packet as packet_module
from repro import ExperimentSpec, MeasurementWindow, TrafficProfile
from repro.cluster import ClusterSpec
from repro.fluid import diff_results
from repro.cluster.engine import ClusterEngine
from repro.cluster.shard import ClusterShardError, InlineShard, ProcessShard

SPEC = ExperimentSpec(
    traffic=TrafficProfile(offered_gbps=40.0, packet_size=512),
    window=MeasurementWindow(
        warmup_packets=50, measure_packets=300, max_cycles=10_000_000
    ),
    cluster=ClusterSpec(boards=2),
)


def test_crashed_worker_raises_named_error():
    shard = ProcessShard(0, SPEC, [0], timeout=60.0)
    try:
        with pytest.raises(ClusterShardError, match="died|gone"):
            shard.request("crash")
    finally:
        shard.close()


def test_hung_worker_times_out_with_named_error():
    shard = ProcessShard(0, SPEC, [0], timeout=0.5)
    try:
        with pytest.raises(ClusterShardError, match="exceeded"):
            shard.request("hang", 30.0)
    finally:
        shard.close()


def test_worker_exception_travels_back_with_traceback():
    shard = ProcessShard(0, SPEC, [0], timeout=60.0)
    try:
        with pytest.raises(ClusterShardError, match="unknown shard command"):
            shard.request("frobnicate")
        # the worker survives a failed command and keeps serving
        out, metrics = shard.request("advance", (250.0, {}))
        assert 0 in metrics
    finally:
        shard.close()


def test_engine_surfaces_shard_death_at_the_barrier():
    engine = ClusterEngine(SPEC, shards=2)
    try:
        engine.step(n_events=2)
        # kill one worker out from under the barrier
        victim = engine._shards[1]
        victim._proc.terminate()
        victim._proc.join(timeout=10.0)
        with pytest.raises(ClusterShardError, match="shard 1"):
            engine.step(n_events=1)
    finally:
        engine.close()


def test_engine_close_is_idempotent_after_failure():
    engine = ClusterEngine(SPEC, shards=2)
    engine.start()
    engine._shards[0]._proc.terminate()
    engine._shards[0]._proc.join(timeout=10.0)
    with pytest.raises(ClusterShardError):
        engine.advance_horizon()
    engine.close()
    engine.close()  # second close must not raise


def test_unpicklable_spec_fails_by_name_before_spawning():
    spec = SPEC.with_(setup=lambda system: None)
    engine = ClusterEngine(spec, shards=2)
    with pytest.raises(ClusterShardError, match="picklable"):
        engine.start()
    # the same spec runs fine inline
    inline = ClusterEngine(spec, shards=1)
    inline.step(n_events=1)
    inline.close()


def test_barrier_posts_every_shard_before_collecting_any(monkeypatch):
    log = []
    post, request = ProcessShard.post, ProcessShard.request

    def logged_post(self, cmd, payload=None):
        log.append(("post", cmd, self.index))
        post(self, cmd, payload)

    def logged_request(self, cmd, payload=None):
        log.append(("collect", cmd, self.index))
        return request(self, cmd, payload)

    monkeypatch.setattr(ProcessShard, "post", logged_post)
    monkeypatch.setattr(ProcessShard, "request", logged_request)
    engine = ClusterEngine(SPEC, shards=2)
    try:
        engine.step(n_events=1)
    finally:
        engine.close()
    assert log == [
        ("post", "advance", 0),
        ("post", "advance", 1),
        ("collect", "advance", 0),
        ("collect", "advance", 1),
    ]


def test_failed_round_closes_the_engine_for_good():
    engine = ClusterEngine(SPEC, shards=2)
    try:
        engine.step(n_events=2)
        victim = engine._shards[1]
        victim._proc.terminate()
        victim._proc.join(timeout=10.0)
        with pytest.raises(ClusterShardError, match="shard 1"):
            engine.step(n_events=1)
        # shard 0 may still hold its unread advance reply: nothing may
        # read it as the answer to a new command
        with pytest.raises(ClusterShardError, match="engine is closed"):
            engine.step(n_events=1)
        with pytest.raises(ClusterShardError, match="engine is closed"):
            engine.advance_horizon()
        with pytest.raises(ClusterShardError, match="engine is closed"):
            engine.control("drain", board=0)
    finally:
        engine.close()


class _InProcessWorker:
    """A shard worker hosted in this process: the worker's command
    handler behind a pickle round trip, drawing packet ids from its own
    counter, as a spawned worker does."""

    def __init__(self, index, spec, boards, timeout=None):
        self.index = index
        self.boards = list(boards)
        self._ids = itertools.count()
        self.shard = self._with_own_ids(InlineShard, 0, spec, boards)

    def _with_own_ids(self, fn, *args):
        saved = packet_module._packet_ids
        packet_module._packet_ids = self._ids
        try:
            return fn(*args)
        finally:
            packet_module._packet_ids = saved

    def post(self, cmd, payload=None):
        payload = pickle.loads(pickle.dumps(payload))
        reply = self._with_own_ids(shard_module._serve, self.shard, cmd, payload)
        self._reply = pickle.loads(pickle.dumps(reply))

    def request(self, cmd, payload=None):
        return self._reply

    def close(self, reap=True):
        pass


def test_crossing_packets_never_share_an_id_with_a_live_packet(monkeypatch):
    workers = []

    def spawn(*args, **kwargs):
        workers.append(_InProcessWorker(*args, **kwargs))
        return workers[-1]

    monkeypatch.setattr(engine_module, "ProcessShard", spawn)
    engine = ClusterEngine(SPEC, shards=2)
    engine.start()
    collisions = [0, 0]
    for worker in workers:
        for harness in worker.shard.harnesses:
            system, offer = harness.system, harness._local_offer
            system.track_live_packets = True

            def checked(port, packet, system=system, offer=offer, board=harness.board):
                live = system._live_packets.get(packet.packet_id)
                if live is not None and live is not packet:
                    collisions[board] += 1
                offer(port, packet)

            harness._local_offer = checked
    result = engine.run_to_completion()
    assert result.cluster["cross_board"]["packets"] > 0
    assert collisions == [0, 0]


def test_sharded_snapshot_keeps_every_board_detail():
    """The serve snapshot of a sharded rack carries the same per-board
    blocks as the inline rack after the same horizons (1 == N shards)."""
    details = []
    for shards in (1, 2):
        engine = ClusterEngine(SPEC, shards=shards)
        try:
            engine.step(n_events=4)
            details.append(engine.snapshot()["per_board_detail"])
        finally:
            engine.close()
    inline, sharded = details
    assert set(inline) == {"0", "1"}
    assert diff_results(sharded, inline) == []
