"""Accelerator framework (§3.3, Appendix A.2).

An accelerator inside an RPU exposes two interfaces:

* a *register file* reached over MMIO from the RISC-V core — the
  ``ACC_*`` defines in the paper's firmware listings;
* optionally a *streaming port* fed by the DMA engine from packet
  memory (the Pigasus matcher consumes payloads this way).

:class:`Accelerator` plays the "basic wrapper" Appendix A.2 describes:
it assigns register addresses and declares each register's access
contract (value ranges, bounded streams) for the firmware verifier.

Concrete accelerators implement :meth:`read_reg`/:meth:`write_reg`
against their register map and a cycle-cost model; the same object
serves both the behavioural system simulator (functional calls) and
the instruction-set simulator (mapped as an MMIO region).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class AcceleratorError(RuntimeError):
    """Raised on register protocol violations."""


class Accelerator:
    """Base class for RPU accelerators.

    Register offsets are byte addresses within the accelerator's MMIO
    window (``IO_EXT_BASE`` in firmware).  Subclasses register handlers
    via :meth:`define_register`.
    """

    name = "accelerator"

    def __init__(self) -> None:
        self._regs: Dict[int, Tuple[Optional[callable], Optional[callable], int]] = {}
        self._reg_meta: Dict[int, Dict[str, object]] = {}
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
        stream_advance: bool = False,
    ) -> None:
        """Register a handler: ``read()`` -> int, ``write(value)``.

        The keyword metadata is the accelerator's *static contract*,
        consumed by the firmware verifier (``repro.verify.absint``):

        * ``value_range`` — every read provably lies in ``[lo, hi]``;
        * ``stream_depth`` — reads pop a hardware FIFO of at most this
          many words, ending with a zero marker (drain loops over the
          register are therefore bounded by the depth);
        * ``stream_advance`` — writes advance that FIFO's head.

        Declaring a contract the hardware does not keep would make the
        verifier unsound, so implementations must enforce it (see the
        Pigasus matcher's FIFO cap).
        """
        self._regs[offset] = (read, write, nbytes)
        meta: Dict[str, object] = {}
        if value_range is not None:
            meta["value_range"] = (int(value_range[0]), int(value_range[1]))
        if stream_depth is not None:
            meta["stream_depth"] = int(stream_depth)
        if stream_advance:
            meta["stream_advance"] = True
        if meta:
            self._reg_meta[offset] = meta

    def reg_meta(self, offset: int) -> Dict[str, object]:
        """Static-contract metadata for one register (may be empty)."""
        return dict(self._reg_meta.get(offset, ()))

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

    def mmio_handlers(self):
        """(read, write) pair suitable for ``MemoryBus.add_mmio``."""
        return (lambda off, n: self.read_reg(off, n), lambda off, v, n: self.write_reg(off, v, n))

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
