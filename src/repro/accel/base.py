"""Accelerator framework (§3.3, Appendix A.2).

An accelerator inside an RPU exposes two interfaces:

* a *register file* reached over MMIO from the RISC-V core — the
  ``ACC_*`` defines in the paper's firmware listings;
* optionally a *streaming port* fed by the DMA engine from packet
  memory (the Pigasus matcher consumes payloads this way).  The
  accelerator owns the stream: a register write pulls
  ``dma_read(addr, length)`` itself, through the port the mounting RPU
  binds to its bus, and ``reads_packet_memory`` declares that it does.

:class:`Accelerator` plays the "basic wrapper" Appendix A.2 describes:
it assigns register addresses, and each register's row carries its
contract (value range, bounded stream) for the firmware verifier.

Concrete accelerators define their register map and a cycle-cost
model; the instruction-set simulator maps :meth:`read_reg`/
:meth:`write_reg` at ``IO_EXT_BASE``, and the verifier and the replay
cache read the map through :attr:`registers`, the budget the cost
through :meth:`worst_cycles`.  The same object serves the behavioural
system simulator through its functional methods.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple


class AcceleratorError(RuntimeError):
    """Raised on register protocol violations."""


class Register(NamedTuple):
    """One accelerator register: its handlers (``None`` where the
    register is write- or read-only), its width, and its contract for
    the firmware verifier: every read lies in ``value_range``; reads pop
    a FIFO of at most ``stream_depth`` words ending in a zero marker
    (so a drain loop is bounded by it); writing a value in
    ``advance_on`` pops that FIFO's head, any other value does not."""

    read: Optional[Callable[[], int]]
    write: Optional[Callable[[int], None]]
    nbytes: int
    value_range: Optional[Tuple[int, int]] = None
    stream_depth: Optional[int] = None
    advance_on: Tuple[int, ...] = ()


class Accelerator:
    """Base class for RPU accelerators.

    Register offsets are byte addresses within the accelerator's MMIO
    window (``IO_EXT_BASE`` in firmware).  Subclasses register handlers
    via :meth:`define_register`.
    """

    name = "accelerator"
    #: a register write streams packet memory through :attr:`dma_read`
    reads_packet_memory = False

    def __init__(self) -> None:
        self._regs: Dict[int, Register] = {}
        #: the DMA engine's read port, ``(addr, length) -> bytes``; bound
        #: by the RPU that mounts the accelerator
        self.dma_read: Optional[Callable[[int, int], bytes]] = None
        self._fault_active = False
        #: results that went through the poisoned response path
        self.results_poisoned = 0

    def define_register(
        self,
        offset: int,
        nbytes: int,
        read=None,
        write=None,
        *,
        value_range: Optional[Tuple[int, int]] = None,
        stream_depth: Optional[int] = None,
        advance_on: Tuple[int, ...] = (),
    ) -> None:
        """Register a handler: ``read()`` -> int, ``write(value)``; the
        keywords are the row's contract (see :class:`Register`).

        Declaring a contract the hardware does not keep would make the
        verifier unsound, so implementations must enforce it (see the
        Pigasus matcher's FIFO cap).
        """
        self._regs[offset] = Register(
            read, write, nbytes, value_range, stream_depth, tuple(advance_on)
        )

    @property
    def registers(self) -> Mapping[int, Register]:
        """The register map, offset -> :class:`Register` (read-only)."""
        return MappingProxyType(self._regs)

    # front door: the budget's answer for an accelerator with no occupancy model
    def worst_cycles(self, packet_size: int) -> float:
        """Worst-case occupancy, in cycles, for one packet of
        ``packet_size`` bytes (the verifier's throughput budget)."""
        return 0.0

    # -- MMIO entry points (offset within the accelerator window) --------------

    def read_reg(self, offset: int, nbytes: int = 4) -> int:
        entry = self._regs.get(offset)
        if entry is None or entry[0] is None:
            raise AcceleratorError(
                f"{self.name}: read of unmapped register {offset:#x}"
            )
        return entry[0]() & ((1 << (nbytes * 8)) - 1)

    def write_reg(self, offset: int, value: int, nbytes: int = 4) -> None:
        entry = self._regs.get(offset)
        if entry is None or entry[1] is None:
            raise AcceleratorError(
                f"{self.name}: write of unmapped register {offset:#x}"
            )
        entry[1](value)

    # -- fault injection (repro.faults) ------------------------------------------

    def inject_fault(self, active: bool = True) -> None:
        """Arm (or clear) the poisoned-result fault: while active, every
        result passed through :meth:`guard` comes back corrupted with
        its parity flag low, so firmware can detect the bad read and
        orchestrate a software re-run — recovery as just another thing
        the core schedules."""
        self._fault_active = active

    def guard(self, value: int) -> Tuple[int, bool]:
        """Pass a result through the (possibly faulty) response path.

        Returns ``(value_as_read, parity_ok)``: the value firmware saw
        over MMIO and whether the wrapper's parity check passed.  With
        no fault armed this is ``(value, True)``.
        """
        if self._fault_active:
            self.results_poisoned += 1
            return value ^ 0x1, False
        return value, True

    # -- ISS replay cache (repro.replay) -----------------------------------------

    # front door: the replay cache's safe default for an accelerator without a token
    def replay_token(self):
        """Digest of every piece of mutable state the accelerator's MMIO
        *reads* depend on, or ``None`` when no such digest exists.

        ``None`` (the default) makes any packet bracket that touches
        this accelerator unreplayable — the safe answer for stateful
        accelerators.  Subclasses whose responses are a pure function of
        a small state slice return that slice; the replay cache compares
        tokens before applying a record and re-issues the recorded MMIO
        operations on a hit, so counters (and faults armed mid-run)
        stay exact.
        """
        return None
