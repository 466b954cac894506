"""Record/replay capture for the functional simulator.

A *packet bracket* is everything the firmware does between picking up a
posted descriptor and retiring the send that answers it.  During a
recording run the CPU's data bus is swapped for a
:class:`TraceRecorder`, which classifies every transaction:

* **Register reads** of a register the bracket has not written yet
  form the *live-in set* (``RiscvCpu.record_run`` traces them): a hit
  requires the same values, and restores only the registers the
  bracket wrote.  A register overwritten before it is read (a previous
  packet's header field) is no guard at all.
* **RAM reads** become the record's *guard set* — re-read and compared
  against live memory before a replay commits.  Reads that land inside
  the packet slot or its header copy are *class-covered* (the class
  signature promises byte-identical frames) and need no guard; reads of
  bytes the bracket itself wrote earlier are self-satisfied.  A read
  that mixes self-written and fresh bytes is declared unreplayable.
* **RAM writes** are captured verbatim and re-applied on replay through
  the real bus (so store hooks — SMC invalidation — still fire).
* **Interconnect reads** are validated symbolically: descriptor-field
  reads must match the descriptor at the head of the RX queue, and any
  other offset (the free-running ``CYCLES`` register in particular)
  makes the bracket unreplayable.
* **Interconnect writes** split by effect: releases retire descriptors,
  the send sequence is precomputed into ready :class:`SentPacket`
  entries (frame bytes are class-deterministic) stamped at the recorded
  cycle offsets, and anything else (debug) is re-issued verbatim.
* **Accelerator MMIO** is re-issued in order and guarded by the
  accelerator's :meth:`~repro.accel.base.Accelerator.replay_token`; an
  accelerator without a token makes the bracket unreplayable.

Anything else that could make replay diverge — ``mcycle``/``minstret``
CSR reads, host ecall handlers, halting, self-modifying code detected
via the CPU's code-epoch counter — also marks the bracket unreplayable.
The cache then simply never stores it: correctness over hit rate.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple


class IoRoles(NamedTuple):
    """What the recorder must know of the interconnect register map
    (the ISS declares the map and hands these over)."""

    #: offsets a bracket may read before its release
    descriptor_reads: FrozenSet[int]
    #: the offset whose write retires the head descriptor
    release: int
    #: send-path offsets: their effects are precomputed at record time
    #: (the sent frames are a pure function of the packet class), so
    #: replay skips the MMIO dispatch and the packet-memory re-dump
    sends: FrozenSet[int]


#: Lazily bound to funcsim's SentPacket (importing it eagerly would be
#: circular: funcsim imports this module).
_SENT_PACKET = None

# op codes for the compact replay action list
OP_RAM_W = 0
OP_IO_W = 1
OP_ACC_R = 2
OP_ACC_W = 3
OP_IO_RELEASE = 4

#: Sentinel: the bracket performed no accelerator MMIO, skip the token check.
NO_ACCEL_TOKEN = object()


class ReplayDivergenceError(RuntimeError):
    """A validated replay produced a different value than its record.

    This fires only when the replay contract was violated upstream (an
    accelerator token that does not cover all state its MMIO reads
    depend on); it is an assertion, not a recoverable fallback.
    """


class TraceRecorder:
    """Bus proxy that captures one packet bracket.

    Instruction fetches go through :meth:`read_u32` untraced — code is
    guarded by the CPU's code-epoch counter instead of a per-fetch
    read set.  Interconnect and accelerator accesses go straight to
    their MMIO regions, which the recorder classifies them by anyway.
    """

    __slots__ = (
        "bus",
        "_cpu",
        "_io",
        "_io_lo",
        "_io_hi",
        "_acc",
        "_acc_lo",
        "_acc_hi",
        "_covered",
        "_roles",
        "_start_cycles",
        "ops",
        "guard_reads",
        "_guard_seen",
        "_written",
        "_released",
        "live_in",
        "written_regs",
        "touched_accel",
        "unreplayable",
        "reason",
    )

    def __init__(
        self,
        cpu: Any,
        io_region: Any,
        acc_region: Optional[Any],
        covered_ranges: Sequence[Tuple[int, int]],
        io_roles: IoRoles,
    ) -> None:
        self.bus = cpu.bus
        self._cpu = cpu
        self._io = io_region
        self._io_lo = io_region.base
        self._io_hi = io_region.base + io_region.size
        self._acc = acc_region
        if acc_region is None:
            self._acc_lo, self._acc_hi = -1, -1
        else:
            self._acc_lo = acc_region.base
            self._acc_hi = acc_region.base + acc_region.size
        self._covered = covered_ranges
        self._roles = io_roles
        self._start_cycles = cpu.cycles
        self.ops: List[tuple] = []
        self.guard_reads: List[Tuple[int, int, int]] = []
        self._guard_seen: set = set()
        self._written: set = set()
        self._released = 0
        #: filled by ``RiscvCpu.record_run``: registers read before the
        #: bracket wrote them (index -> value), and every written index
        self.live_in: Dict[int, int] = {}
        self.written_regs: set = set()
        #: whether the bracket read or wrote an accelerator register
        self.touched_accel = False
        self.unreplayable = False
        self.reason = ""

    # -- policy ------------------------------------------------------------

    # front door: brackets that read unmapped I/O, CSRs or self-written
    # bytes, or run an ecall; no bundled firmware executes one
    def mark_unreplayable(self, reason: str) -> None:
        if not self.unreplayable:
            self.unreplayable = True
            self.reason = reason

    def _is_covered(self, addr: int, nbytes: int) -> bool:
        for lo, hi in self._covered:
            if lo <= addr and addr + nbytes <= hi:
                return True
        return False

    # -- the bus interface the interpreter uses ----------------------------

    def read_u32(self, addr: int) -> int:
        # instruction fetch: guarded by the code epoch, not traced
        return self.bus.read_u32(addr)

    def read(self, addr: int, nbytes: int) -> int:
        if addr >= self._io_lo:
            if addr < self._io_hi:
                value = self._io.read(addr, nbytes)
                offset = addr - self._io_lo
                if offset not in self._roles.descriptor_reads:
                    self.mark_unreplayable(f"interconnect read at +0x{offset:x}")
                elif self._released:
                    # the head descriptor changed under the bracket
                    self.mark_unreplayable("descriptor read after release")
                return value
            if self._acc_lo <= addr < self._acc_hi:
                value = self._acc.read(addr, nbytes)
                self.touched_accel = True
                self.ops.append((OP_ACC_R, addr - self._acc_lo, nbytes, value))
                return value
            value = self.bus.read(addr, nbytes)
            self.mark_unreplayable(f"read of unmapped I/O 0x{addr:x}")
            return value
        # RAM
        value = self.bus.read(addr, nbytes)
        if self._is_covered(addr, nbytes):
            return value
        written = self._written
        key = (addr, nbytes)
        if key in self._guard_seen:
            return value
        hit_written = 0
        for b in range(addr, addr + nbytes):
            if b in written:
                hit_written += 1
        if hit_written == nbytes:
            return value  # reading back our own writes
        if hit_written:
            self.mark_unreplayable("read mixes fresh and self-written bytes")
            return value
        self._guard_seen.add(key)
        self.guard_reads.append((addr, nbytes, value))
        return value

    def write(self, addr: int, value: int, nbytes: int) -> None:
        if addr >= self._io_lo:
            if addr < self._io_hi:
                offset = addr - self._io_lo
                roles = self._roles
                if offset == roles.release:
                    self._released += 1
                    self.ops.append((OP_IO_RELEASE,))
                elif offset not in roles.sends:
                    self.ops.append(
                        (OP_IO_W, offset, value, nbytes, self._cpu.cycles - self._start_cycles)
                    )
                self._io.write(addr, value, nbytes)
                return
            if self._acc_lo <= addr < self._acc_hi:
                self.touched_accel = True
                self.ops.append(
                    (
                        OP_ACC_W,
                        addr - self._acc_lo,
                        value,
                        nbytes,
                        self._cpu.cycles - self._start_cycles,
                    )
                )
                self._acc.write(addr, value, nbytes)
                return
            self.mark_unreplayable(f"write to unmapped I/O 0x{addr:x}")
            self.bus.write(addr, value, nbytes)
            return
        self.ops.append((OP_RAM_W, addr, value, nbytes))
        self._written.update(range(addr, addr + nbytes))
        self.bus.write(addr, value, nbytes)


class ReplayRecord:
    """One packet bracket: start-state guard, action list, end state.

    The recorded op stream is compiled once, at store time, into
    per-kind lists so the hit path is a handful of tight loops.  The
    reordering is sound: RAM, interconnect, and accelerator are
    independent state machines (within-kind order is preserved, and RAM
    writes land before accelerator ops so DMA-triggering control writes
    stream the right payload bytes)."""

    __slots__ = (
        "descriptor",
        "start_pc",
        "live_in",
        "start_csrs",
        "start_wfi",
        "start_send",
        "guard_reads",
        "ram_writes",
        "acc_ops",
        "acc_compiled",
        "io_other",
        "releases",
        "sends",
        "accel_token",
        "end_pc",
        "reg_writes",
        "end_csrs",
        "end_wfi",
        "end_send",
        "cycles_delta",
        "instret_delta",
        "code_epoch",
        "pure",
    )

    def __init__(
        self,
        descriptor: Tuple[int, int, int, int],
        start_pc: int,
        live_in: Tuple[Tuple[int, int], ...],
        start_csrs: Dict[int, int],
        start_wfi: bool,
        start_send: Tuple[int, int],
        guard_reads: List[Tuple[int, int, int]],
        ops: List[tuple],
        sends: Tuple[Tuple[int, bytes, int, int], ...],
        accel_token: Any,
        end_pc: int,
        reg_writes: Tuple[Tuple[int, int], ...],
        end_csrs: Optional[Dict[int, int]],
        end_wfi: bool,
        end_send: Tuple[int, int],
        cycles_delta: int,
        instret_delta: int,
        code_epoch: int,
        dma_accel: bool = False,
    ) -> None:
        self.descriptor = descriptor
        self.start_pc = start_pc
        self.live_in = live_in
        self.start_csrs = start_csrs
        self.start_wfi = start_wfi
        self.start_send = start_send
        self.guard_reads = guard_reads
        self.accel_token = accel_token
        self.end_pc = end_pc
        self.reg_writes = reg_writes
        self.end_csrs = end_csrs
        self.end_wfi = end_wfi
        self.end_send = end_send
        self.cycles_delta = cycles_delta
        self.instret_delta = instret_delta
        self.code_epoch = code_epoch
        # compile the ordered op stream into per-kind apply lists
        ram_writes: List[Tuple[int, int, int]] = []
        acc_ops: List[tuple] = []
        io_other: List[Tuple[int, int, int]] = []
        releases = 0
        for op in ops:
            code = op[0]
            if code == OP_RAM_W:
                ram_writes.append((op[1], op[2], op[3]))
            elif code == OP_IO_W:
                io_other.append((op[1], op[2], op[3]))
            elif code == OP_IO_RELEASE:
                releases += 1
            else:  # OP_ACC_R / OP_ACC_W
                acc_ops.append(op)
        self.ram_writes = ram_writes
        self.acc_ops = acc_ops
        self.io_other = io_other
        self.releases = releases
        self.sends = sends
        #: resolved (is_write, handler, value-or-expected, mask) list,
        #: filled lazily on first apply (handlers are bound once at
        #: define_register time)
        self.acc_compiled: Optional[list] = None
        #: a *pure* record touches no memory on either side of a hit:
        #: no guarded reads to re-check, no RAM writes to re-apply, and
        #: no accelerator op on one that DMAs from packet memory.  Pure
        #: hits never need the deferred packet DMA materialized.
        self.pure = not guard_reads and not ram_writes and not (
            acc_ops and dma_accel
        )

    # -- hit path ----------------------------------------------------------

    def validate(self, rpu: Any) -> bool:
        """Read-only guard: may the record be applied to ``rpu`` now?"""
        cpu = rpu.cpu
        if (
            cpu.halted
            or cpu.waiting_for_interrupt is not self.start_wfi
            or cpu.pc != self.start_pc
            or cpu.csrs != self.start_csrs
        ):
            return False
        regs = cpu.regs
        for idx, value in self.live_in:
            if regs[idx] != value:
                return False
        rx = rpu._rx
        if not rx or rx[0] != self.descriptor:
            return False
        if (rpu._send_tag, rpu._send_len) != self.start_send:
            return False
        if self.accel_token is not NO_ACCEL_TOKEN:
            accel = rpu.accelerator
            if accel is None or accel.replay_token() != self.accel_token:
                return False
        read = rpu.bus.read
        for addr, nbytes, value in self.guard_reads:
            if read(addr, nbytes) != value:
                return False
        return True

    def _compile_acc(self, rpu: Any) -> list:
        """Resolve accelerator ops to their bound register handlers —
        skips the MMIO dispatch layer on every later hit."""
        registers = rpu.accelerator.registers
        out = []
        for op in self.acc_ops:
            reg = registers[op[1]]
            if op[0] == OP_ACC_W:
                # op layout: (code, offset, value, nbytes, cycle-offset)
                out.append((True, reg.write, op[2], 0))
            else:
                # op layout: (code, offset, nbytes, value)
                out.append((False, reg.read, op[3], (1 << (op[2] * 8)) - 1))
        return out

    def apply(self, rpu: Any) -> None:
        """Commit the bracket: re-apply RAM writes (store hooks fire),
        re-issue accelerator MMIO (counters and faults stay exact),
        retire descriptors, append the precomputed sends with their
        recorded cycle offsets, then set the registers the bracket
        wrote and the rest of the architectural end state."""
        global _SENT_PACKET
        cpu = rpu.cpu
        start_cycles = cpu.cycles
        if self.ram_writes:
            bus_write = rpu.bus.write
            for addr, value, nbytes in self.ram_writes:
                bus_write(addr, value, nbytes)
        if self.acc_ops:
            compiled = self.acc_compiled
            if compiled is None:
                compiled = self._compile_acc(rpu)
                self.acc_compiled = compiled
            for is_write, handler, val, mask in compiled:
                if is_write:
                    handler(val)
                else:
                    got = handler() & mask
                    if got != val:
                        raise ReplayDivergenceError(
                            f"accelerator read returned 0x{got:x}, record "
                            f"expected 0x{val:x}: the accelerator's "
                            "replay_token() does not cover all state its "
                            "MMIO depends on"
                        )
        rx = rpu._rx
        for _ in range(self.releases):
            if rx:
                rx.popleft()
        if self.io_other:
            io_write = rpu._io_write
            for offset, value, nbytes in self.io_other:
                io_write(offset, value, nbytes)
        if self.sends:
            if _SENT_PACKET is None:
                from ..core.funcsim import SentPacket as _SENT_PACKET  # noqa: F811
            sent_append = rpu.sent.append
            for tag, data, port, cyc in self.sends:
                sent_append(_SENT_PACKET(tag, data, port, start_cycles + cyc))
        rpu._send_tag, rpu._send_len = self.end_send
        regs = cpu.regs
        for idx, value in self.reg_writes:
            regs[idx] = value
        cpu.pc = self.end_pc
        if self.end_csrs is not None:
            cpu.csrs.clear()
            cpu.csrs.update(self.end_csrs)
        cpu.waiting_for_interrupt = self.end_wfi
        cpu.cycles = start_cycles + self.cycles_delta
        cpu.instret += self.instret_delta
