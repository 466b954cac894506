"""Differential tests for the packet-class replay cache.

The cache's one contract is *correctness over hit rate*: with the
cache on, every observable — send streams including per-packet cycle
stamps, packet/data memory images, accelerator traffic, the
architectural state after every packet — must be identical to the
uncached run.  These tests drive the functional simulator with the
cache on and off and diff the observables, including the cases that
must force a fallback or bypass (per-flow mutable state, state carried
in a register, self-modifying code), and pin the recorded register
live-in sets against a static liveness pass over the firmware's CFG.
"""

import random

import pytest

from repro.accel import IpBlacklistMatcher, generate_blacklist, parse_blacklist
from repro.accel.pigasus import PigasusStringMatcher, generate_ruleset, parse_rules
from repro.core.funccluster import FunctionalCluster
from repro.core.funcsim import IMEM_BASE, FunctionalRpu
from repro.firmware import FIREWALL_ASM, FORWARDER_ASM, PIGASUS_ASM
from repro.firmware.asm_sources import FLOW_COUNTER_ASM, FORWARDER_IRQ_ASM
from repro.packet import build_tcp, build_udp, int_to_ip
from repro.replay import ReplayCache
from repro.riscv import assemble
from repro.riscv.cpu import CycleModel
from repro.riscv.isa import reads_regs, writes_rd
from repro.verify import analyze_source

from .conftest import build_raw

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

#: forwarder with a poke handler that copies ``t3`` (the previous
#: packet's egress port) into ``t6``.  :class:`_PokingRpu` raises the
#: poke from the tag read, so the block that loads ``t1``..``t3`` is
#: cut after its first load and the handler reads a ``t3`` that only the
#: rest of that block overwrites: ``t3`` is live-in.
POKE_FORWARDER_ASM = """
.equ IO_BASE, 0x01000000

main:
    la   t0, poke_handler
    csrw mtvec, t0
    li   t0, 0x10000       # enable external line 1 (poke)
    csrw mie, t0
    li   a0, IO_BASE
    csrrsi x0, mstatus, 8
loop:
    lw   t0, 0(a0)         # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)         # tag: raises the poke
    lw   t2, 8(a0)
    lw   t3, 12(a0)
    sw   zero, 20(a0)
    xori t3, t3, 1
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   t3, 32(a0)
    j    loop

poke_handler:
    mv   t6, t3
    mret
"""


class _PokingRpu(FunctionalRpu):
    """Raises the poke line from every read of a descriptor's tag."""

    def _io_read(self, offset, nbytes):
        if offset == 4:
            self.cpu.raise_interrupt(1)
        return super()._io_read(offset, nbytes)


def _clean_frame(size=512, src="10.0.0.1"):
    return build_tcp(src, "2.2.2.2", 1000, 80, pad_to=size).data


def _blacklisted_frame(size=512):
    return build_tcp(int_to_ip(BLACKLIST[0].network), "2.2.2.2", 999, 80,
                     pad_to=size).data


def _firewall_matcher():
    return IpBlacklistMatcher(BLACKLIST)


RULES = parse_rules(generate_ruleset(60))


def _pigasus_matcher():
    matcher = PigasusStringMatcher()
    matcher.load_rules(RULES)
    return matcher


def _imix_frames(rounds=40):
    """Rotation through classes and sizes: a drop class, slot reuse by a
    shorter successor frame, and a non-IPv4 frame three times a round.
    The firewall drops it without writing ``t6``; the second and third
    copies start where a drop left the core, one with the ``t6 = 0`` a
    clean frame left and one with the match flag a blacklisted frame
    left, so a hit of one on the other's record must keep ``t6``."""
    raw = build_raw(128).data
    classes = [
        (_clean_frame(1500), 0),
        (raw, 0),
        (raw, 0),
        (_blacklisted_frame(512), 0),   # dropped by the firewall
        (raw, 0),
        (_clean_frame(256, "10.9.9.9"), 1),
        (build_udp("10.2.2.2", "3.3.3.3", 53, 53, pad_to=640).data, 0),
    ]
    return [(data, data, port) for _ in range(rounds) for data, port in classes]


def _sent_stream(rpu):
    """Every observable of the egress stream, cycle stamps included."""
    return [(s.tag, s.data, s.port, s.cycle) for s in rpu.sent]


def _run(frames, cached, asm=FIREWALL_ASM, accel=_firewall_matcher,
         backend="interp", max_variants=4, rpu_class=FunctionalRpu, after=None):
    """Drive ``frames`` (data, class_key, port) through one RPU, calling
    ``after(rpu, n)`` once ``n`` packets are done."""
    accelerator = accel() if accel is not None else None
    rpu = rpu_class(asm, accelerator=accelerator, cpu_backend=backend)
    cache = None
    if cached:
        cache = ReplayCache(max_variants=max_variants)
        rpu.attach_replay_cache(cache)
    cpu = rpu.cpu
    arch = []
    slots = rpu.config.slots_per_rpu
    done = 0
    while done < len(frames):
        batch = frames[done:done + slots]
        for data, key, port in batch:
            rpu.push_packet(data, port=port, class_key=key)
        for _ in batch:
            rpu.step_packet()
            arch.append((cpu.pc, tuple(cpu.regs), dict(cpu.csrs)))
            if after is not None:
                after(rpu, len(arch))
        done += len(batch)
    lookups = getattr(accelerator, "lookups", 0)
    return {
        "sent": _sent_stream(rpu),
        "pmem": rpu.dump_memory("pmem"),
        "dmem": rpu.dump_memory("dmem"),
        "lookups": lookups,
        "arch": arch,
        "cache": cache,
        "stats": cache.stats if cache is not None else None,
    }


def _assert_identical(off, on):
    assert on["sent"] == off["sent"]
    assert on["pmem"] == off["pmem"]
    assert on["dmem"] == off["dmem"]
    assert on["lookups"] == off["lookups"]
    assert on["arch"] == off["arch"]


def _differential(frames, backends=("interp", "translated"), **kw):
    """Cached ≡ uncached on each backend; the cached runs, in order.

    The architectural state after every packet is compared on both
    backends.  The interpreter stops exactly at each send; the
    translated backend (the one the ``iss-replay-*`` workloads run)
    stops at the first block boundary after it, recorded or not, so a
    record's end state is the one an uncached run reaches."""
    runs = []
    for backend in backends:
        off = _run(frames, cached=False, backend=backend, **kw)
        on = _run(frames, cached=True, backend=backend, **kw)
        _assert_identical(off, on)
        runs.append(on)
    return runs


def _records(run):
    """Every record a cached run's store holds."""
    return [r for variants in run["cache"]._records.values() for r in variants]


# -- functional-simulator differentials -------------------------------------


class TestFuncsimDifferential:
    def test_uniform_firewall_parity(self):
        """Steady-state single-class traffic: high hit rate, identical
        send stream including per-packet cycle stamps."""
        frame = _clean_frame()
        for on in _differential([(frame, frame, 0)] * 160):
            assert on["stats"].hits > 100
            # warm-up only: one miss per slot tag, plus one variant
            # re-record where the predecessor state differed
            assert on["stats"].misses + on["stats"].fallbacks <= 17

    def test_random_flow_order_hits(self):
        """Eight clean flows in random order.  Each bracket overwrites
        ``t5`` (the previous packet's source IP) before reading it, so a
        guard on the live-in registers hits whatever flow came before."""
        flows = [_clean_frame(src=f"10.0.0.{i}") for i in range(1, 9)]
        rng = random.Random(7)
        order = [flows[rng.randrange(len(flows))] for _ in range(800)]
        for on in _differential([(frame, frame, 0) for frame in order]):
            assert on["stats"].hits >= 600

    def test_mixed_class_imix_parity(self):
        """Imix-style rotation, non-IPv4 drops included: a hit restores
        only the registers its bracket wrote, so ``t6`` must keep
        whatever the previous packet left in it."""
        for on in _differential(_imix_frames()):
            assert on["stats"].hits > 0

    def test_saturated_key_runs_unrecorded_between_hits(self):
        """With one variant per key, every fallback finds its key
        saturated and runs without recording (on the translated backend,
        possibly past the send); later hits on the same keys restore
        only their write sets on top of that state."""
        for on in _differential(_imix_frames(), max_variants=1):
            assert on["stats"].fallbacks > 0
            assert on["stats"].hits > 0

    def test_per_flow_state_forces_fallback(self):
        """FLOW_COUNTER_ASM mutates a dmem counter per packet, so a
        record's read guard can never validate twice — every repeat
        must fall back to real execution, and the counters in dmem
        must still match the uncached run exactly."""
        frame = _clean_frame()
        for on in _differential([(frame, frame, 0)] * 60, asm=FLOW_COUNTER_ASM,
                                accel=None):
            assert on["stats"].fallbacks > 0
            assert on["stats"].hits == 0

    def test_register_state_forces_fallback(self):
        """FORWARDER_IRQ_ASM counts packets in ``s4`` (``addi s4, s4,
        1``): ``s4`` is live-in with a new value every packet, so no
        record ever validates and every repeat of a slot tag falls back."""
        frame = _clean_frame()
        for on in _differential([(frame, frame, 0)] * 64, asm=FORWARDER_IRQ_ASM,
                                accel=None):
            assert on["stats"].hits == 0
            assert on["stats"].fallbacks == 64 - 16

    def test_dma_accelerator_replays_through_its_own_port(self):
        """A matcher that pulls its payload over its DMA port replays
        by re-issuing its register writes: the CTRL start re-reads the
        slot, so a hit must land the deferred frames first."""

        class TokenedMatcher(PigasusStringMatcher):
            def replay_token(self):
                return self.table_generation, tuple(self._match_fifo)

        def matcher():
            accel = TokenedMatcher()
            accel.load_rules(RULES)
            return accel

        rule = next(r for r in RULES if r.protocol == "tcp" and r.dst_ports.matches(80))
        attack = build_tcp("1.2.3.4", "5.6.7.8", 1500, 80,
                           payload=b"AA" + rule.content, pad_to=256).data
        benign = build_tcp("1.2.3.4", "5.6.7.8", 1500, 80,
                           payload=b"benign", pad_to=300).data
        rng = random.Random(3)
        frames = [rng.choice((attack, benign)) for _ in range(160)]
        for on in _differential([(f, f, 0) for f in frames], asm=PIGASUS_ASM,
                                accel=matcher):
            assert on["stats"].hits > 0

    def test_tokenless_accelerator_refuses_each_key_once(self):
        """Pigasus has no replay token: the first bracket of each key is
        recorded and refused, the key joins ``refused``, and its later
        packets run unrecorded — one bypass per key, identical output.
        A code-epoch flush forgets the refusals with the records."""
        frame = build_tcp("1.2.3.4", "5.6.7.8", 1500, 80,
                          payload=b"benign", pad_to=300).data
        for on in _differential([(frame, frame, 0)] * 64, asm=PIGASUS_ASM,
                                accel=_pigasus_matcher):
            cache = on["cache"]
            assert on["stats"].hits == 0
            assert on["stats"].bypasses == len(cache.refused) == 16
        cache.lookup(None, code_epoch=-1)
        assert not cache.refused

    def test_self_modifying_code_forces_bypass(self):
        """An SMC store inside the bracket makes it unreplayable: no
        hits, identical output."""
        frame = _clean_frame()
        for on in _differential([(frame, frame, 0)] * 40, asm=SMC_FORWARDER_ASM,
                                accel=None):
            assert on["stats"].hits == 0
            assert on["stats"].bypasses > 0

    def test_interrupt_cuts_a_recorded_block(self):
        """A poke taken inside a recorded block: only the block's retired
        prefix counts as written, so the handler's read of ``t3`` is a
        live-in guard and a hit never restores a stale ``t6``."""
        frame = _clean_frame()
        rng = random.Random(5)
        frames = [(frame, frame, rng.randrange(2)) for _ in range(160)]
        for on in _differential(frames, asm=POKE_FORWARDER_ASM, accel=None,
                                rpu_class=_PokingRpu):
            assert on["stats"].hits > 0
            assert any(idx == 28 for r in _records(on) for idx, _ in r.live_in)

    @pytest.mark.parametrize("event", ["cycle_model", "invalidate_icache", "host_patch"])
    def test_translation_flush_between_packets(self, event):
        """A cycle-model swap, an icache flush and a host store into the
        firmware each drop the traced blocks and move the code epoch: the
        records and recordings after it carry the new costs and run the
        new code, as an uncached run does."""
        frame = _clean_frame()
        patch = int.from_bytes(assemble("xori t3, t3, 0").image[:4], "little")
        flip = assemble(FORWARDER_ASM).image.index(assemble("xori t3, t3, 1").image)

        def after(rpu, done):
            if done != 24:
                return
            if event == "cycle_model":
                rpu.cpu.cycle_model = CycleModel.vexriscv_light()
            elif event == "invalidate_icache":
                rpu.cpu.invalidate_icache()
            else:
                rpu.bus.write(IMEM_BASE + flip, patch, 4)
            spans = [(entry, entry + 4 * len(block))
                     for entry, block in rpu.cpu._engine.traced.items()]
            assert not any(lo <= IMEM_BASE + flip < hi for lo, hi in spans)

        for on in _differential([(frame, frame, i % 2) for i in range(64)],
                                backends=("translated",), asm=FORWARDER_ASM,
                                accel=None, after=after):
            assert on["stats"].invalidations == 1
            assert on["stats"].hits > 0

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


# -- static ⊇ dynamic register liveness -------------------------------------

_ALL_REGS = frozenset(range(1, 32))


def _static_live(source):
    """pc -> the registers live before the instruction at that pc.

    Backward liveness over the verifier's CFG, with the same
    ``reads_regs``/``writes_rd`` views the recorder uses.  ``jalr`` and
    ``mret`` have no static successor and return to an unknown context,
    so every register is live after them; ``ebreak`` halts."""
    cfg = analyze_source(source)

    def transfer(block, live, at=None):
        for pc, inst in zip(reversed(block.pcs), reversed(block.insts)):
            if writes_rd(inst.mnemonic, inst.rd):
                live = live - {inst.rd}
            live = live | set(reads_regs(inst.mnemonic, inst.rs1, inst.rs2))
            if at is not None:
                at[pc] = live
        return live

    def live_out(block, live_in):
        if not block.successors:
            return frozenset() if block.last.mnemonic == "ebreak" else _ALL_REGS
        return frozenset().union(*(live_in[succ] for succ in block.successors))

    live_in = dict.fromkeys(cfg.blocks, frozenset())
    changed = True
    while changed:
        changed = False
        for start, block in cfg.blocks.items():
            live = transfer(block, live_out(block, live_in))
            if live != live_in[start]:
                live_in[start] = live
                changed = True
    at_pc = {}
    for block in cfg.blocks.values():
        transfer(block, live_out(block, live_in), at_pc)
    return at_pc


class TestLivenessContract:
    """Every stored record's live-in registers are statically live at
    its start pc.  ``PKT_GEN_ASM`` is the one bundled firmware left out:
    it sends from its own slot and takes no descriptor, so it has no
    packet bracket to record."""

    @pytest.mark.parametrize(
        "asm, accel",
        [
            (FORWARDER_ASM, None),
            (FIREWALL_ASM, _firewall_matcher),
            (FORWARDER_IRQ_ASM, None),
            (FLOW_COUNTER_ASM, None),
            (PIGASUS_ASM, _pigasus_matcher),
        ],
        ids=["forwarder", "firewall", "forwarder_irq", "flow_counter", "pigasus"],
    )
    def test_dynamic_live_in_within_static_liveness(self, asm, accel):
        static = _static_live(asm)
        for on in _differential(_imix_frames(rounds=8), asm=asm, accel=accel):
            records = _records(on)
            assert records
            for record in records:
                live_in = {idx for idx, _ in record.live_in}
                assert live_in <= static[record.start_pc], hex(record.start_pc)
