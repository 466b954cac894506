"""Differential tests for the packet-class replay cache (PR 4).

The cache's one contract is *correctness over hit rate*: with the
cache on, every observable — send streams including per-packet cycle
stamps, packet/data memory images, accelerator traffic — must be
byte-identical to the uncached run.  These tests drive the functional
simulator with the cache on and off and diff the observables,
including the cases that must force a fallback or bypass (per-flow
mutable state, self-modifying code).
"""

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.core.funccluster import FunctionalCluster
from repro.core.funcsim import FunctionalRpu
from repro.firmware import FIREWALL_ASM, FORWARDER_ASM
from repro.firmware.asm_sources import FLOW_COUNTER_ASM
from repro.packet import build_tcp, build_udp, int_to_ip
from repro.replay import ReplayCache

# -- shared traffic ---------------------------------------------------------

BLACKLIST = parse_blacklist(generate_blacklist(1050))

#: self-modifying forwarder: each packet stores the firmware's own
#: first instruction word back over itself — a no-op for behaviour,
#: but an icache/code-epoch event every bracket, so the cache must
#: refuse to replay (bypass) and still match the uncached run.
SMC_FORWARDER_ASM = """
# forwarder that rewrites its own first instruction every packet
.equ IO_BASE, 0x01000000

main:
    li   a0, IO_BASE      # word 0: re-fetched every iteration (j main)
loop:
    lw   t0, 0(a0)        # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)        # tag
    lw   t2, 8(a0)        # len
    lw   t3, 12(a0)       # port
    sw   zero, 20(a0)     # release
    lw   t5, 0(zero)      # read own first instruction word
    sw   t5, 0(zero)      # ...and store it back (self-modifying)
    xori t3, t3, 1
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   t3, 32(a0)
    j    main
"""


def _clean_frame(size=512, src="10.0.0.1"):
    return build_tcp(src, "2.2.2.2", 1000, 80, pad_to=size).data


def _blacklisted_frame(size=512):
    return build_tcp(int_to_ip(BLACKLIST[0].network), "2.2.2.2", 999, 80,
                     pad_to=size).data


def _sent_stream(rpu):
    """Every observable of the egress stream, cycle stamps included."""
    return [(s.tag, s.data, s.port, s.cycle) for s in rpu.sent]


# -- functional-simulator differentials -------------------------------------


class TestFuncsimDifferential:
    def _run(self, frames, cached, asm=FIREWALL_ASM, with_matcher=True):
        """Drive ``frames`` (data, class_key, port) through one RPU."""
        accel = IpBlacklistMatcher(BLACKLIST) if with_matcher else None
        rpu = FunctionalRpu(asm, accelerator=accel)
        cache = None
        if cached:
            cache = ReplayCache()
            rpu.attach_replay_cache(cache)
        slots = rpu.config.slots_per_rpu
        done = 0
        while done < len(frames):
            batch = frames[done:done + slots]
            for data, key, port in batch:
                rpu.push_packet(data, port=port, class_key=key)
            for _ in batch:
                rpu.step_packet()
            done += len(batch)
        lookups = accel.lookups if accel is not None else 0
        return {
            "sent": _sent_stream(rpu),
            "pmem": rpu.dump_memory("pmem"),
            "dmem": rpu.dump_memory("dmem"),
            "lookups": lookups,
            "stats": cache.stats if cache is not None else None,
        }

    def _assert_identical(self, off, on):
        assert on["sent"] == off["sent"]
        assert on["pmem"] == off["pmem"]
        assert on["dmem"] == off["dmem"]
        assert on["lookups"] == off["lookups"]

    def test_uniform_firewall_parity(self):
        """Steady-state single-class traffic: high hit rate, identical
        send stream including per-packet cycle stamps."""
        frame = _clean_frame()
        frames = [(frame, frame, 0)] * 160
        off = self._run(frames, cached=False)
        on = self._run(frames, cached=True)
        self._assert_identical(off, on)
        assert on["stats"].hits > 100
        # warm-up only: one miss per slot tag, plus at most a variant
        # re-record per tag where the predecessor state differed
        assert on["stats"].misses + on["stats"].fallbacks <= 32

    def test_mixed_class_imix_parity(self):
        """Imix-style rotation through classes and sizes (including a
        drop class and slot reuse by a shorter successor frame)."""
        classes = [
            (_clean_frame(1500), 0),
            (_blacklisted_frame(512), 0),   # dropped by the firewall
            (_clean_frame(256, "10.9.9.9"), 1),
            (build_udp("10.2.2.2", "3.3.3.3", 53, 53, pad_to=640).data, 0),
        ]
        frames = [
            (data, data, port)
            for _ in range(40)
            for data, port in classes
        ]
        off = self._run(frames, cached=False)
        on = self._run(frames, cached=True)
        self._assert_identical(off, on)
        assert on["stats"].hits > 0

    def test_per_flow_state_forces_fallback(self):
        """FLOW_COUNTER_ASM mutates a dmem counter per packet, so a
        record's read guard can never validate twice — every repeat
        must fall back to real execution, and the counters in dmem
        must still match the uncached run exactly."""
        frame = _clean_frame()
        frames = [(frame, frame, 0)] * 60
        off = self._run(frames, cached=False, asm=FLOW_COUNTER_ASM,
                        with_matcher=False)
        on = self._run(frames, cached=True, asm=FLOW_COUNTER_ASM,
                       with_matcher=False)
        self._assert_identical(off, on)
        assert on["stats"].fallbacks > 0
        assert on["stats"].hits == 0

    def test_self_modifying_code_forces_bypass(self):
        """An SMC store inside the bracket makes it unreplayable: no
        hits, identical output."""
        frame = _clean_frame()
        frames = [(frame, frame, 0)] * 40
        off = self._run(frames, cached=False, asm=SMC_FORWARDER_ASM,
                        with_matcher=False)
        on = self._run(frames, cached=True, asm=SMC_FORWARDER_ASM,
                       with_matcher=False)
        self._assert_identical(off, on)
        assert on["stats"].hits == 0
        assert on["stats"].bypasses > 0

    def test_icache_invalidate_flushes_cache(self):
        """A firmware-reload-style epoch bump must flush the store and
        re-record; results stay identical across the flush."""
        frame = _clean_frame()
        accel = IpBlacklistMatcher(BLACKLIST)
        rpu = FunctionalRpu(FIREWALL_ASM, accelerator=accel)
        cache = ReplayCache()
        rpu.attach_replay_cache(cache)

        ref = FunctionalRpu(
            FIREWALL_ASM, accelerator=IpBlacklistMatcher(BLACKLIST)
        )
        for i in range(1, 41):
            rpu.push_packet(frame, port=0, class_key=frame)
            rpu.step_packet()
            ref.push_packet(frame, port=0, class_key=frame)
            ref.run_until_sent(i)
            if i == 20:
                warm_hits = cache.stats.hits
                assert warm_hits > 0
                rpu.cpu.invalidate_icache()
        assert cache.stats.invalidations >= 1
        assert cache.stats.hits > warm_hits  # re-warmed after the flush
        assert _sent_stream(rpu) == _sent_stream(ref)
        assert rpu.dump_memory("pmem") == ref.dump_memory("pmem")

    def test_cluster_parity(self):
        """The 8-RPU cluster drain path (the ``iss-replay-*`` benchmark
        configuration) with mixed traffic: per-RPU streams and memories
        identical."""
        classes = [
            (_clean_frame(512), 0),
            (_clean_frame(512, "10.4.4.4"), 1),
            (_blacklisted_frame(512), 0),
        ]

        def run(cached):
            cluster = FunctionalCluster(
                4,
                FIREWALL_ASM,
                accelerator_factory=lambda: IpBlacklistMatcher(BLACKLIST),
                replay_cache=cached,
            )
            burst = 4 * cluster.config.slots_per_rpu
            pushed = 0
            todo = [classes[i % len(classes)] for i in range(400)]
            while pushed < len(todo):
                for data, port in todo[pushed:pushed + burst]:
                    cluster.push_packet(data, port=port, class_key=data)
                    pushed += 1
                cluster.run_until_all_sent()
            streams = [_sent_stream(rpu) for rpu in cluster.rpus]
            pmems = [rpu.dump_memory("pmem") for rpu in cluster.rpus]
            lookups = sum(rpu.accelerator.lookups for rpu in cluster.rpus)
            return streams, pmems, lookups, cluster.replay_stats

        off_streams, off_pmems, off_lookups, _ = run(False)
        on_streams, on_pmems, on_lookups, stats = run(True)
        assert on_streams == off_streams
        assert on_pmems == off_pmems
        assert on_lookups == off_lookups
        assert stats.hits > 0

    def test_translated_bus_swap_guard(self):
        """The closure-translated engine binds bus handlers at compile
        time; swapping the bus underneath it must fail loudly instead
        of silently reading the dead bus."""
        rpu = FunctionalRpu(FORWARDER_ASM, cpu_backend="translated")
        rpu.push_packet(_clean_frame(), port=0)
        rpu.run_until_sent(1)  # compiles the firmware loop
        rpu.cpu.bus = type(rpu.cpu.bus)()  # leaked swap (no restore)
        rpu.push_packet(_clean_frame(), port=0)
        with pytest.raises(RuntimeError, match="swapped"):
            rpu.run_until_sent(2)
