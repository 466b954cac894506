"""Golden digests of the functional RPU (the ISS) on every bundled firmware.

``benchmarks/results/funcsim_digests.json`` holds, for each registry
firmware with its registry accelerator, on both CPU backends, with and
without a replay cache, the SHA-256 of the send stream (tag, bytes,
port, cycle), the retired-instruction and cycle counts, and SHA-256s of
the packet and data memories after a seeded mix of frames.  The mix
carries blacklisted sources and Pigasus rule contents, so both
accelerators answer both ways.  A change to the MMIO plumbing, the
packet DMA or the replay path that moves any of them by one bit fails
here.

Every frame is at least 60 bytes: a header-only TCP frame gives the
Pigasus matcher an empty DMA stream, which has its own test.

Every run mounts its accelerator behind :func:`_check_contracts`, so
each MMIO read is also held to the contract its register row declares
to the verifier; matching digests show the checker is transparent.

After an intended change, regenerate with
``PYTHONPATH=src python -m tests.test_funcsim_digests``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.accel import Accelerator, generate_blacklist, parse_blacklist
from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.core.funcsim import FunctionalRpu
from repro.packet import EthernetHeader, Packet, build_tcp, build_udp, int_to_ip
from repro.replay import ReplayCache
from repro.verify.registry import bundled_firmwares

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks/results/funcsim_digests.json"

FRAMES = 256
SEED = 1
#: pkt_gen ignores the RX queue and emits this many frames, then halts
PKT_GEN_COUNT = 32


def _templates():
    """(frame, port) classes: clean and blacklisted TCP, Pigasus rule
    hits and near misses, UDP and non-IPv4, at several sizes."""
    # the registry's accelerators load exactly these tables
    blacklisted = int_to_ip(parse_blacklist(generate_blacklist(64))[3].network)
    rules = [r for r in parse_rules(generate_ruleset(16)) if r.protocol == "tcp"]
    out = []
    for size in (60, 128, 512, 1500):
        out.append((build_tcp("10.0.0.1", "2.2.2.2", 1000, 80, pad_to=size).data, 0))
        out.append((build_tcp(blacklisted, "2.2.2.2", 999, 80, pad_to=size).data, 1))
    for rule in rules[:4]:
        dport = 80 if rule.dst_ports.matches(80) else rule.dst_ports.low
        payload = b"xy" + rule.content + b"z"
        out.append((build_tcp("1.2.3.4", "5.6.7.8", 1500, dport,
                              payload=payload, pad_to=256).data, 0))
        # the content without its port group: matched, then filtered
        out.append((build_tcp("1.2.3.4", "5.6.7.8", 1500, 9,
                              payload=payload, pad_to=640).data, 1))
    out.append((build_udp("10.2.2.2", "3.3.3.3", 53, 53, pad_to=96).data, 0))
    out.append((Packet(EthernetHeader(ethertype=0x88B5).pack() + bytes(114)).data, 1))
    return out


def _frames():
    """A seeded draw that favours three hot classes (a clean, a
    blacklisted and a rule-hit frame), so replay hits happen too."""
    rng = random.Random(SEED)
    templates = _templates()
    weights = [1] * len(templates)
    for hot in (2, 3, 8):
        weights[hot] = 12
    return rng.choices(templates, weights, k=FRAMES)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ContractViolation(AssertionError):
    """An accelerator read broke the contract its register row declares."""


def _check_contracts(accel):
    """Re-define every row of ``accel`` with its handlers wrapped by a
    checker of the row's contract, and return ``accel``.

    A read outside ``value_range`` raises :class:`ContractViolation`,
    and so does a ``stream_depth`` register that yields ``stream_depth``
    nonzero words without its zero marker between them.  A write of an
    ``advance_on`` value pops the stream, so the next read of it is a
    new word; a read with no pop since the last one re-reads the head.
    """
    popped = [True]
    words = {}

    def checked_read(offset, row):
        def read():
            value = row.read()
            if row.value_range and not row.value_range[0] <= value <= row.value_range[1]:
                raise ContractViolation(
                    f"{accel.name} @+{offset:#x} read {value}, outside "
                    f"value_range {row.value_range}"
                )
            if row.stream_depth and popped[0]:
                popped[0] = False
                words[offset] = words.get(offset, 0) + 1 if value else 0
                if words[offset] >= row.stream_depth:
                    raise ContractViolation(
                        f"{accel.name} @+{offset:#x} yielded {words[offset]} "
                        f"words without its zero marker (stream_depth "
                        f"{row.stream_depth})"
                    )
            return value

        return read

    def checked_write(row):
        def write(value):
            if value in row.advance_on:
                popped[0] = True
            row.write(value)

        return write

    for offset, row in list(accel.registers.items()):
        accel.define_register(
            offset,
            row.nbytes,
            checked_read(offset, row) if row.read else None,
            checked_write(row) if row.write and row.advance_on else row.write,
            value_range=row.value_range,
            stream_depth=row.stream_depth,
            advance_on=row.advance_on,
        )
    return accel


def _run(entry, backend, cached):
    accel = entry.accel_factory() if entry.accel_factory is not None else None
    if accel is not None:
        _check_contracts(accel)
    rpu = FunctionalRpu(entry.asm, accelerator=accel, cpu_backend=backend)
    if cached:
        rpu.attach_replay_cache(ReplayCache())
    if entry.name == "pkt_gen":
        rpu.run_until_sent(PKT_GEN_COUNT)
    else:
        frames = _frames()
        slots = rpu.config.slots_per_rpu
        for start in range(0, len(frames), slots):
            batch = frames[start:start + slots]
            for data, port in batch:
                rpu.push_packet(data, port=port)
            for _ in batch:
                rpu.step_packet()
    stream = hashlib.sha256()
    for s in rpu.sent:
        stream.update(repr((s.tag, s.data, s.port, s.cycle)).encode())
    return {
        "sent": stream.hexdigest(),
        "instret": rpu.cpu.instret,
        "cycles": rpu.cpu.cycles,
        "pmem": _sha(rpu.dump_memory("pmem")),
        "dmem": _sha(rpu.dump_memory("dmem")),
    }


def _cases():
    entries = {entry.name: entry for entry in bundled_firmwares()}
    return {
        f"{name}/{backend}/{'cache' if cached else 'nocache'}": (entries[name], backend, cached)
        for name in sorted(entries)
        for backend in ("interp", "translated")
        for cached in (False, True)
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_run_matches_the_golden_digest(case):
    golden = json.loads(GOLDEN.read_text())
    assert _run(*_cases()[case]) == golden[case], (
        f"{case}: ISS run changed; if that is intended, regenerate "
        "with `PYTHONPATH=src python -m tests.test_funcsim_digests`"
    )


class _BrokenAccelerator(Accelerator):
    """Declares a 0/1 flag that reads 2, and a 3-deep stream that never
    ends: both break the contract their rows give the verifier."""

    def __init__(self):
        super().__init__()
        self.define_register(0x0, 4, read=lambda: 2, value_range=(0, 1))
        self.define_register(0x4, 4, read=lambda: 7, stream_depth=3)
        self.define_register(0x8, 4, write=lambda value: None, advance_on=(2,))


def test_a_read_outside_its_declared_range_is_caught():
    accel = _check_contracts(_BrokenAccelerator())
    with pytest.raises(ContractViolation, match="outside value_range"):
        accel.read_reg(0x0)


def test_a_stream_without_its_zero_marker_is_caught():
    accel = _check_contracts(_BrokenAccelerator())
    accel.read_reg(0x4)
    accel.read_reg(0x4)  # no pop in between: the same head word
    accel.write_reg(0x8, 1)  # not in advance_on: still the same word
    accel.read_reg(0x4)
    accel.write_reg(0x8, 2)
    accel.read_reg(0x4)
    accel.write_reg(0x8, 2)
    with pytest.raises(ContractViolation, match="without its zero marker"):
        accel.read_reg(0x4)


if __name__ == "__main__":
    digests = {case: _run(*args) for case, args in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
