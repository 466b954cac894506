"""Functional single-RPU simulation (§3.4, Appendix A.4).

The paper ships a cocotb/Python testbench that links the RTL of one RPU
with the firmware ELF and drives packets through it.  This module is
the same idea over our substrates: a :class:`FunctionalRpu` instantiates
the RV32 instruction-set simulator, the RPU memory map (instruction,
data, packet, and accelerator memories), the interconnect registers,
and any accelerator's MMIO window; assembly firmware is assembled and
loaded; packets go in, descriptors come out, and per-packet cycle
counts fall out of the CPU's cycle model.

This is both the debugging story (inspect any memory, single-step the
core, read the debug channel) and the calibration source for the
behavioural firmware cycle constants used by the system simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from ..accel.base import Accelerator
from ..replay.record import (
    NO_ACCEL_TOKEN,
    OP_ACC_R,
    OP_ACC_W,
    IoRoles,
    ReplayRecord,
    TraceRecorder,
)
from ..riscv.assembler import Program, assemble
from ..riscv.bus import MemoryBus
from ..riscv.cpu import RiscvCpu
from .config import RosebudConfig

IMEM_BASE = 0x0000_0000
DMEM_BASE = 0x0001_0000
PMEM_BASE = 0x0010_0000
ACCMEM_BASE = 0x0080_0000
IO_BASE = 0x0100_0000
IO_EXT_BASE = 0x0200_0000
#: Size of each MMIO window: the interconnect's at ``IO_BASE`` and the
#: accelerator's at ``IO_EXT_BASE``.
MMIO_WINDOW = 0x1000

#: Packets are written at this offset within their slot so the IPv4
#: source address lands word-aligned (the artifact uses PKT_OFFSET 10
#: with its header layout; ours differs by the descriptor framing).
PKT_OFFSET = 2


class IoRegister(NamedTuple):
    """One interconnect register.

    ``access`` is ``"r"`` or ``"w"``.  ``contract`` is what a read can
    return, the fact the firmware verifier builds on: ``flag`` (0 or
    1), ``tag`` (a slot tag), ``pkt_len``, ``port`` (an ingress port),
    ``pkt_ptr`` (the head packet's data pointer), or ``""`` (anything).
    """

    offset: int
    name: str
    access: str
    contract: str
    meaning: str


#: The interconnect register map.  The ISS dispatches on it, the replay
#: recorder and the verifier read it, and the firmware docs render it.
INTERCONNECT_REGISTERS: Tuple[IoRegister, ...] = (
    IoRegister(0x00, "RECV_READY", "r", "flag", "1 when a descriptor is waiting"),
    IoRegister(0x04, "RECV_TAG", "r", "tag", "slot tag of the head descriptor"),
    IoRegister(0x08, "RECV_LEN", "r", "pkt_len", "packet length"),
    IoRegister(0x0C, "RECV_PORT", "r", "port", "ingress port"),
    IoRegister(0x10, "RECV_DATA", "r", "pkt_ptr", "packet data pointer (in packet memory)"),
    IoRegister(0x14, "RECV_RELEASE", "w", "", "pop the descriptor queue"),
    IoRegister(0x18, "SEND_TAG", "w", "", "slot tag to send"),
    IoRegister(0x1C, "SEND_LEN", "w", "", "length to send (0 = drop)"),
    IoRegister(0x20, "SEND_PORT_GO", "w", "", "egress port; the write fires the send"),
    IoRegister(0x28, "DEBUG_OUT_L", "w", "", "64-bit debug channel to the host, low word"),
    IoRegister(0x2C, "DEBUG_OUT_H", "w", "", "debug channel, high word"),
    IoRegister(0x30, "CYCLES", "r", "", "free-running cycle counter"),
)
IO_REGISTERS: Dict[int, IoRegister] = {reg.offset: reg for reg in INTERCONNECT_REGISTERS}

_OFFSET_OF = {reg.name: reg.offset for reg in INTERCONNECT_REGISTERS}
_RECV_READY = _OFFSET_OF["RECV_READY"]
_RECV_RELEASE = _OFFSET_OF["RECV_RELEASE"]
_SEND_TAG = _OFFSET_OF["SEND_TAG"]
_SEND_LEN = _OFFSET_OF["SEND_LEN"]
_SEND_PORT_GO = _OFFSET_OF["SEND_PORT_GO"]
_DEBUG_OUT_L = _OFFSET_OF["DEBUG_OUT_L"]
_DEBUG_OUT_H = _OFFSET_OF["DEBUG_OUT_H"]
_CYCLES = _OFFSET_OF["CYCLES"]
#: The descriptor reads: offset -> field of an RX-queue entry
#: ``(tag, len, port, addr)``.
_RECV_FIELD = {
    _OFFSET_OF[name]: field
    for field, name in enumerate(("RECV_TAG", "RECV_LEN", "RECV_PORT", "RECV_DATA"))
}
#: The replay recorder's view of the map (it cannot import this module).
_REPLAY_ROLES = IoRoles(
    descriptor_reads=frozenset((_RECV_READY, *_RECV_FIELD)),
    release=_RECV_RELEASE,
    sends=frozenset((_SEND_TAG, _SEND_LEN, _SEND_PORT_GO)),
)


@dataclass
class SentPacket:
    """One descriptor the firmware released for sending."""

    tag: int
    data: bytes
    port: int
    cycle: int

    @property
    def dropped(self) -> bool:
        return len(self.data) == 0


class FunctionalRpu:
    """One RPU with a real RV32 core, memories, and MMIO plumbing."""

    def __init__(
        self,
        firmware_asm: str,
        accelerator: Optional[Accelerator] = None,
        config: Optional[RosebudConfig] = None,
        cpu_backend: str = "translated",
    ) -> None:
        self.config = config or RosebudConfig()
        self.bus = MemoryBus()
        self.imem = self.bus.add_ram(IMEM_BASE, self.config.imem_bytes, "imem")
        self.dmem = self.bus.add_ram(DMEM_BASE, self.config.dmem_bytes, "dmem")
        self.pmem = self.bus.add_ram(PMEM_BASE, self.config.packet_mem_bytes, "pmem")
        self.accmem = self.bus.add_ram(ACCMEM_BASE, self.config.accel_mem_bytes, "accmem")
        self.bus.add_mmio(IO_BASE, MMIO_WINDOW, self._io_read, self._io_write, "interconnect")
        self.accelerator = accelerator
        if accelerator is not None:
            accelerator.dma_read = self.bus.dump
            self.bus.add_mmio(
                IO_EXT_BASE, MMIO_WINDOW, accelerator.read_reg, accelerator.write_reg, "accel"
            )

        self.cpu = RiscvCpu(self.bus, reset_pc=IMEM_BASE, backend=cpu_backend)
        self.program = self.load_firmware(firmware_asm)

        self._rx: Deque[Tuple[int, int, int, int]] = deque()  # tag, len, port, addr
        self.pushed = 0
        self._next_tag = 1
        self._send_tag = 0
        self._send_len = 0
        self.sent: List[SentPacket] = []
        self.debug_out = 0
        #: attach a :class:`repro.replay.ReplayCache` to memoize packet
        #: brackets processed through :meth:`step_packet`
        self.replay_cache = None
        self._class_by_tag: Dict[int, object] = {}
        #: deferred packet DMA: frame bytes pushed but not yet written
        #: to pmem/dmem (pure replay hits never read the slot, so the
        #: copies are postponed until something can observe them)
        self._pending_dma: Dict[int, bytes] = {}
        # per-tag DMA landing offsets, precomputed for the push hot loop
        cfg = self.config
        tags = range(1, cfg.slots_per_rpu + 1)
        self._slot_offsets = {tag: (tag - 1) * cfg.slot_bytes + PKT_OFFSET for tag in tags}
        self._hdr_offsets = {
            tag: cfg.dmem_bytes // 2 + (tag - 1) * cfg.header_slot_bytes for tag in tags
        }

    # -- firmware and memory loading ------------------------------------------------

    def load_firmware(self, source: str) -> Program:
        """Assemble and load firmware at the reset vector."""
        program = assemble(source, base=IMEM_BASE)
        if len(program.image) > self.config.imem_bytes:
            raise ValueError("firmware does not fit in instruction memory")
        self.imem.load_bytes(0, program.image)
        self.cpu.invalidate_icache()
        return program

    def dump_memory(self, which: str = "pmem") -> bytes:
        """Host-side debugging: dump an entire RPU memory (§3.4)."""
        self._flush_dma()
        region = {"imem": self.imem, "dmem": self.dmem, "pmem": self.pmem, "accmem": self.accmem}[which]
        return region.dump_bytes()

    # -- packet injection -------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Slot credits taken: packets pushed and not yet sent.

        A credit returns when its packet leaves the RPU, not when the
        firmware releases the RX descriptor (§4.2): a released packet
        still occupies its slot until the send has copied it out.
        """
        return self.pushed - len(self.sent)

    def push_packet(self, data: bytes, port: int = 0, class_key=None) -> int:
        """DMA a packet into a free slot and post its descriptor.

        ``class_key`` is the replay-cache class signature; it promises
        the frame bytes are identical to every other packet pushed with
        the same key.  Defaults to the frame bytes themselves (always
        sound; bytes objects cache their hash, so reused templates cost
        one hash total).
        """
        if len(data) + PKT_OFFSET > self.config.slot_bytes:
            raise ValueError("packet exceeds slot size")
        if self.in_flight >= self.config.slots_per_rpu:
            raise RuntimeError(
                "no free packet slots: drain the RPU before pushing more "
                "(the LB would withhold this packet in hardware)"
            )
        self.pushed += 1
        tag = self._next_tag
        self._next_tag = self._next_tag % self.config.slots_per_rpu + 1
        if self.replay_cache is not None:
            # defer the DMA: the bytes only land when something can
            # observe them (real execution, a guard read, a dump)
            data = bytes(data)
            old = self._pending_dma.get(tag)
            if old is not None and len(old) > len(data):
                # the displaced frame was never materialized, but its
                # tail outlives the new (shorter) frame in the slot —
                # write exactly that residue so memory stays byte-equal
                # to an uncached run
                self._land(tag, old, len(data))
            self._pending_dma[tag] = data
            self._class_by_tag[tag] = class_key if class_key is not None else data
        else:
            self._land(tag, data)
        self._rx.append((tag, len(data), port, PMEM_BASE + self._slot_offsets[tag]))
        return tag

    def _land(self, tag: int, data: bytes, start: int = 0) -> None:
        """DMA ``data[start:]`` into slot ``tag``, and the same bytes of
        its header into the header copy the engine keeps in dmem's top
        half (when the copy fits) for low-latency parsing."""
        self.pmem.load_bytes(self._slot_offsets[tag] + start, data[start:])
        header = data[: self.config.header_slot_bytes]
        if len(header) > start:
            hdr_offset = self._hdr_offsets[tag]
            if hdr_offset + len(header) <= self.config.dmem_bytes:
                self.dmem.load_bytes(hdr_offset + start, header[start:])

    def _flush_dma(self) -> None:
        """Materialize all deferred packet DMA into pmem/dmem."""
        if not self._pending_dma:
            return
        for tag, data in self._pending_dma.items():
            self._land(tag, data)
        self._pending_dma.clear()

    # -- interconnect MMIO ---------------------------------------------------------------

    def _io_read(self, offset: int, nbytes: int) -> int:
        if offset == _RECV_READY:
            return int(bool(self._rx))
        field = _RECV_FIELD.get(offset)
        if field is not None:
            return self._rx[0][field] if self._rx else 0
        if offset == _CYCLES:
            return self.cpu.cycles & 0xFFFFFFFF
        return 0

    def _io_write(self, offset: int, value: int, nbytes: int) -> None:
        if offset == _RECV_RELEASE:
            if self._rx:
                self._rx.popleft()
        elif offset == _SEND_TAG:
            self._send_tag = value
        elif offset == _SEND_LEN:
            self._send_len = value
        elif offset == _SEND_PORT_GO:
            tag = self._send_tag
            length = self._send_len
            if length:
                data = self.bus.dump(PMEM_BASE + self._slot_offsets[tag], length)
            else:
                data = b""
            self.sent.append(SentPacket(tag, data, value, self.cpu.cycles))
        elif offset == _DEBUG_OUT_L:
            self.debug_out = (self.debug_out & ~0xFFFFFFFF) | value
        elif offset == _DEBUG_OUT_H:
            self.debug_out = (self.debug_out & 0xFFFFFFFF) | (value << 32)

    # -- running -----------------------------------------------------------------------------

    def run_until_sent(self, count: int, max_instructions: int = 2_000_000) -> None:
        """Run the core until ``count`` descriptors have been sent."""
        self._flush_dma()
        self.cpu.run(
            max_instructions=max_instructions,
            until=lambda cpu: len(self.sent) >= count,
        )
        if len(self.sent) < count:
            raise RuntimeError(
                f"firmware sent only {len(self.sent)}/{count} packets "
                f"within {max_instructions} instructions"
            )

    # -- replay cache ------------------------------------------------------------------------

    def attach_replay_cache(self, cache) -> None:
        """Enable packet-bracket memoization for :meth:`step_packet`.

        The cache is bound to this core (records pin its code epoch and
        slot addresses); share hit/miss accounting across cores by
        giving each core's cache the same :class:`~repro.replay.ReplayStats`.
        """
        self.replay_cache = cache

    def step_packet(self, max_instructions: int = 2_000_000) -> str:
        """Process the head descriptor to completion (one more send).

        With a replay cache attached this is the fast path: a validated
        record applies the bracket without entering the CPU; otherwise
        the bracket really executes (and is recorded for next time).
        Returns ``"hit"``, ``"miss"``, ``"fallback"``, ``"bypass"``, or
        ``"uncached"`` — all of them leave identical architectural
        state, memory, and send timestamps.
        """
        if not self._rx:
            raise RuntimeError("no descriptor pending")
        target = len(self.sent) + 1
        cache = self.replay_cache
        if cache is None:
            self.run_until_sent(target, max_instructions)
            return "uncached"
        head = self._rx[0]
        tag = head[0]
        class_key = self._class_by_tag.pop(tag, None)
        stats = cache.stats
        if class_key is None:
            stats.bypasses += 1
            self.run_until_sent(target, max_instructions)
            return "bypass"
        key = (class_key, head[2], tag)
        candidates = cache.lookup(key, self.cpu.code_epoch)
        for record in candidates:
            if not record.pure:
                # an impure record reads memory (guards) or writes it on
                # apply: deferred frames must be in place first
                self._flush_dma()
            if record.validate(self):
                record.apply(self)
                stats.hits += 1
                return "hit"
        if candidates:
            stats.fallbacks += 1
            status = "fallback"
        else:
            stats.misses += 1
            status = "miss"
        if len(candidates) >= cache.max_variants or key in cache.refused:
            # key saturated with variants that keep missing their
            # guards (per-flow state), or refused outright: stop paying
            # the recording tax and run on the fast translated backend
            self.run_until_sent(target, max_instructions)
            return status
        record = self._record_bracket(target, max_instructions, key)
        if record is not None:
            cache.store(key, record)
        else:
            stats.bypasses += 1
        return status

    def _record_bracket(self, target: int, max_instructions: int, key):
        """Really execute the head bracket while capturing a replay record.

        Returns ``None`` when the bracket proved unreplayable (unstable
        reads, accelerator without a token, self-modifying code, ...);
        a bracket refused for the token also refuses ``key``.
        """
        cpu = self.cpu
        self._flush_dma()
        tag, length, port, addr = self._rx[0]
        descriptor = self._rx[0]
        # reads of the packet slot and its header copy are covered by
        # the class signature (byte-identical frames): no guard needed
        covered = [(addr, addr + length)]
        hdr_len = min(length, self.config.header_slot_bytes)
        hdr_addr = DMEM_BASE + self._hdr_offsets[tag]
        if hdr_addr + hdr_len <= DMEM_BASE + self.config.dmem_bytes:
            covered.append((hdr_addr, hdr_addr + hdr_len))
        accel = self.accelerator
        start_token = accel.replay_token() if accel is not None else None
        start_pc = cpu.pc
        start_csrs = dict(cpu.csrs)
        start_wfi = cpu.waiting_for_interrupt
        start_send = (self._send_tag, self._send_len)
        start_cycles = cpu.cycles
        start_instret = cpu.instret
        start_epoch = cpu.code_epoch
        start_sent = len(self.sent)
        recorder = TraceRecorder(
            cpu,
            (IO_BASE, IO_BASE + MMIO_WINDOW),
            (IO_EXT_BASE, IO_EXT_BASE + MMIO_WINDOW) if accel is not None else None,
            covered,
            _REPLAY_ROLES,
        )
        sent = self.sent
        cpu.record_run(
            recorder, max_instructions, until=lambda c: len(sent) >= target
        )
        if len(sent) < target:
            raise RuntimeError(
                f"firmware sent only {len(sent)}/{target} packets "
                f"within {max_instructions} instructions"
            )
        if cpu.halted:
            recorder.mark_unreplayable("core halted inside the bracket")
        if cpu.code_epoch != start_epoch:
            recorder.mark_unreplayable("self-modifying code inside the bracket")
        accel_token = NO_ACCEL_TOKEN
        if any(op[0] in (OP_ACC_R, OP_ACC_W) for op in recorder.ops):
            if start_token is None:
                recorder.mark_unreplayable("accelerator has no replay token")
                self.replay_cache.refused.add(key)
            accel_token = start_token
        if recorder.unreplayable:
            return None
        end_csrs = None if cpu.csrs == start_csrs else dict(cpu.csrs)
        return ReplayRecord(
            descriptor=descriptor,
            start_pc=start_pc,
            live_in=tuple(recorder.live_in.items()),
            start_csrs=start_csrs,
            start_wfi=start_wfi,
            start_send=start_send,
            guard_reads=recorder.guard_reads,
            ops=recorder.ops,
            sends=tuple(
                (s.tag, s.data, s.port, s.cycle - start_cycles)
                for s in sent[start_sent:]
            ),
            accel_token=accel_token,
            end_pc=cpu.pc,
            reg_writes=tuple((r, cpu.regs[r]) for r in sorted(recorder.written_regs)),
            end_csrs=end_csrs,
            end_wfi=cpu.waiting_for_interrupt,
            end_send=(self._send_tag, self._send_len),
            cycles_delta=cpu.cycles - start_cycles,
            instret_delta=cpu.instret - start_instret,
            code_epoch=cpu.code_epoch,
            dma_accel=accel is not None and accel.reads_packet_memory,
        )

    def measure_cycles_per_packet(self, packets: List[bytes], port: int = 0) -> List[int]:
        """Per-packet cycle cost in a saturated back-to-back run: push
        everything, run, and diff consecutive send timestamps."""
        for data in packets:
            self.push_packet(data, port)
        start = len(self.sent)
        self.run_until_sent(start + len(packets))
        stamps = [p.cycle for p in self.sent[start:]]
        deltas = []
        prev = None
        for stamp in stamps:
            if prev is not None:
                deltas.append(stamp - prev)
            prev = stamp
        return deltas if deltas else stamps
