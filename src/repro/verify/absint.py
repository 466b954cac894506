"""Abstract interpretation over firmware CFGs: intervals + pointer regions.

The engine runs the classic worklist fixpoint over the same basic-block
graph :mod:`repro.verify.cfg` builds (same decode, same edges — the
differential guarantees from PR 5 carry over), but replaces the
constant-only register lattice with an **abstract value domain**:

* ``num`` values are unsigned 32-bit intervals ``[lo, hi]`` with an
  optional ``pkt_len`` coefficient (``lc``), so ``RECV_LEN`` reads stay
  *symbolic* — ``len + [0, 32]`` survives arithmetic and lets the
  pigasus append path be proven inside its slot for any frame size;
* ``pkt`` values are packet-DMA pointers: ``RECV_DATA + lc*len + [lo,
  hi]`` relative to the slot's data area (the DMA engine places frames
  at ``PKT_OFFSET`` inside a ``slot_bytes`` slot, so slot-relative
  bounds prove safety for every slot at once);
* ``sp`` values are stack-top-relative (the per-RPU stack allocation is
  ``RosebudConfig.stack_bytes``); loads/stores through them become
  stack-depth obligations instead of unknown addresses.

Widening fires at loop headers after :data:`WIDEN_AFTER` in-state
changes (``num`` intervals jump to ``[0, 2^32-1]``, pointer offsets to
±``OFF_INF``), which makes the fixpoint terminate on any CFG the
builder produces — every cycle passes through a detected back-edge
target.  A second pass re-runs the fixpoint with **induction clamps**
from :mod:`repro.verify.loopbound` (``r ∈ init + step*[0, bound]`` at a
bounded header), recovering the precision widening gave away.

Interrupts are modelled soundly: a ``csr*`` write that can set
``mstatus.MIE`` flips an abstract *maybe-enabled* flag; from then on
every post-instruction state both (a) has the handler's clobbered
registers dropped to TOP and (b) joins into the handler's entry state,
so handler analysis sees exactly the states it can really interrupt.

Machine facts (memory regions, interconnect register value ranges,
accelerator register metadata) come from :class:`MachineEnv` — the
single source of truth the registry's ``INTERCONNECT_REGISTERS`` map is
now derived from.

See ``docs/STATIC_ANALYSIS.md`` for the domain write-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import funcsim
from ..core.config import RosebudConfig
from ..riscv.blocks import BRANCH_MNEMONICS
from ..riscv.isa import (
    BRANCH_RELATIONS,
    NEGATED_RELATION,
    OPS,
    constant_result,
    writes_csr,
    writes_rd,
)
from .cfg import FirmwareCfg

U32 = 0xFFFFFFFF
_TWO32 = 1 << 32

#: Offset "infinity" for pointer/symbolic values: once an offset is
#: clamped here it can never be proven inside any region.
OFF_INF = 1 << 34

#: Widen a loop header after this many in-state changes.
WIDEN_AFTER = 3

#: ``mstatus`` CSR address (its MIE bit gates all interrupts).
MSTATUS_CSR = 0x300

#: Interconnect window size (matches ``MemoryBus.add_mmio`` in funcsim).
IO_WINDOW = 0x1000


# -- the value domain ---------------------------------------------------------


@dataclass(frozen=True)
class AbsVal:
    """One abstract register value: ``base + lc*pkt_len + [lo, hi]``.

    ``base`` is ``"num"`` (pure number), ``"pkt"`` (packet-data
    pointer), or ``"sp"`` (stack-top pointer).  ``lc`` is the
    ``pkt_len`` coefficient (0 or 1).  For plain numbers the interval
    is unsigned 32-bit; for anything symbolic it is a signed offset
    clamped to ±:data:`OFF_INF`.  ``tag`` carries identity for
    stream-register loads (used by the loop-bound stream rule).
    """

    base: str
    lc: int
    lo: int
    hi: int
    tag: Optional[tuple] = None

    @property
    def is_plain(self) -> bool:
        """A pure number interval (no base, no pkt_len term)."""
        return self.base == "num" and self.lc == 0

    @property
    def is_const(self) -> bool:
        return self.is_plain and self.lo == self.hi

    def describe(self) -> str:
        parts = []
        if self.base != "num":
            parts.append(self.base)
        if self.lc:
            parts.append("len" if self.lc == 1 else f"{self.lc}*len")
        if self.lo == self.hi:
            parts.append(f"{self.lo:#x}" if self.lo >= 0 else f"-{-self.lo:#x}")
        else:
            lo = "-inf" if self.lo <= -OFF_INF else f"{self.lo:#x}" if self.lo >= 0 else f"-{-self.lo:#x}"
            hi = "+inf" if self.hi >= OFF_INF else f"{self.hi:#x}"
            parts.append(f"[{lo}, {hi}]")
        return "+".join(parts) if parts else "0"


TOP = AbsVal("num", 0, 0, U32)
ZERO = AbsVal("num", 0, 0, 0)


def const(v: int) -> AbsVal:
    v &= U32
    return AbsVal("num", 0, v, v)


def interval(lo: int, hi: int) -> AbsVal:
    return AbsVal("num", 0, max(0, lo), min(hi, U32))


def _sym(base: str, lc: int, lo: int, hi: int, tag=None) -> AbsVal:
    return AbsVal(base, lc, max(lo, -OFF_INF), min(hi, OFF_INF), tag)


# -- interval arithmetic ------------------------------------------------------


def _add_imm(a: AbsVal, imm: int) -> AbsVal:
    if imm == 0:
        return a
    lo, hi = a.lo + imm, a.hi + imm
    if a.is_plain:
        if 0 <= lo and hi <= U32:
            return AbsVal("num", 0, lo, hi)
        if hi < 0:
            return AbsVal("num", 0, lo + _TWO32, hi + _TWO32)
        if lo >= _TWO32:
            return AbsVal("num", 0, lo - _TWO32, hi - _TWO32)
        return TOP
    return _sym(a.base, a.lc, lo, hi)


def _add(a: AbsVal, b: AbsVal) -> AbsVal:
    if b.base != "num":
        a, b = b, a
    if b.base != "num":
        return TOP  # pointer + pointer
    lc = a.lc + b.lc
    if lc > 1:
        return TOP
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if a.base == "num" and lc == 0:
        if hi <= U32:
            return AbsVal("num", 0, lo, hi)
        if lo >= _TWO32:
            return AbsVal("num", 0, lo - _TWO32, hi - _TWO32)
        return TOP
    return _sym(a.base, lc, lo, hi)


# front door: `sub`, an RV32 form no bundled firmware executes
def _sub(a: AbsVal, b: AbsVal) -> AbsVal:
    if b.base != "num":
        return TOP  # x - pointer: not representable
    lc = a.lc - b.lc
    if lc not in (0, 1):
        return TOP
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if a.base == "num" and lc == 0:
        if lo >= 0:
            return AbsVal("num", 0, lo, hi)
        if hi < 0:
            return AbsVal("num", 0, lo + _TWO32, hi + _TWO32)
        return TOP
    return _sym(a.base, lc, lo, hi)


def _and_imm(a: AbsVal, imm: int) -> AbsVal:
    if imm >= 0:
        # masking drops the base: result is a small plain number
        hi = min(a.hi, imm) if a.is_plain else imm
        return AbsVal("num", 0, 0, hi)
    # negative imm = alignment mask: x & imm == x - (x mod 2^k) for
    # power-of-two alignments, and in general subtracts at most the
    # cleared low bits — base and pkt_len term survive
    cleared = (~imm) & U32
    return (
        AbsVal("num", 0, max(0, a.lo - cleared), a.hi)
        if a.is_plain
        else _sym(a.base, a.lc, a.lo - cleared, a.hi)
    )


def _bit_hi(a: AbsVal, b: AbsVal) -> int:
    """Upper bound for or/xor of two plain intervals."""
    bits = max(a.hi.bit_length(), b.hi.bit_length())
    return (1 << bits) - 1 if bits else 0


def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    if a.base != b.base or a.lc != b.lc:
        return TOP
    tag = a.tag if a.tag == b.tag else None
    if a.is_plain:
        return AbsVal("num", 0, min(a.lo, b.lo), max(a.hi, b.hi), tag)
    return _sym(a.base, a.lc, min(a.lo, b.lo), max(a.hi, b.hi), tag)


def _widen_val(old: AbsVal, new: AbsVal) -> AbsVal:
    if old == new:
        return new
    if old.base != new.base or old.lc != new.lc:
        return TOP
    tag = new.tag if new.tag == old.tag else None
    lo, hi = new.lo, new.hi
    if new.is_plain:
        if lo < old.lo:
            lo = 0
        if hi > old.hi:
            hi = U32
        return AbsVal("num", 0, lo, hi, tag)
    if lo < old.lo:
        lo = -OFF_INF
    if hi > old.hi:
        hi = OFF_INF
    return _sym(new.base, new.lc, lo, hi, tag)


def _meet_val(a: AbsVal, clamp: AbsVal) -> AbsVal:
    """Intersect ``a`` with a sound clamp; fall back to the clamp when
    the shapes disagree (both are sound supersets, so either works)."""
    if a.base == clamp.base and a.lc == clamp.lc:
        lo, hi = max(a.lo, clamp.lo), min(a.hi, clamp.hi)
        if lo <= hi:
            return AbsVal(a.base, a.lc, lo, hi, a.tag)
    return clamp


# -- machine environment ------------------------------------------------------


@dataclass(frozen=True)
class IoRegister:
    """One interconnect-window register: offset, name, and the abstract
    value its reads produce (``kind`` selects the rule)."""

    offset: int
    name: str
    readable: bool
    writable: bool
    kind: str = ""  # "range" | "tag" | "pkt_len" | "port" | "pkt_ptr" | "top"
    lo: int = 0
    hi: int = 0


#: The interconnect register map — the single source of truth shared by
#: the registry's MMIO-footprint check and the abstract interpreter.
IO_REGISTER_SPECS: Tuple[IoRegister, ...] = (
    IoRegister(0x00, "RECV_READY", True, False, "range", 0, 1),
    IoRegister(0x04, "RECV_TAG", True, False, "tag"),
    IoRegister(0x08, "RECV_LEN", True, False, "pkt_len"),
    IoRegister(0x0C, "RECV_PORT", True, False, "port"),
    IoRegister(0x10, "RECV_DATA", True, False, "pkt_ptr"),
    IoRegister(0x14, "RECV_RELEASE", False, True),
    IoRegister(0x18, "SEND_TAG", False, True),
    IoRegister(0x1C, "SEND_LEN", False, True),
    IoRegister(0x20, "SEND_PORT_GO", False, True),
    IoRegister(0x28, "DEBUG_OUT_L", False, True),
    IoRegister(0x2C, "DEBUG_OUT_H", False, True),
    IoRegister(0x30, "CYCLES", True, False, "top"),
)


@dataclass(frozen=True)
class Region:
    name: str
    base: int
    size: int
    writable: bool

    @property
    def end(self) -> int:
        return self.base + self.size


class MachineEnv:
    """Memory regions + MMIO read semantics for one RPU configuration.

    ``RECV_DATA`` is modelled as a valid packet pointer and the other
    descriptor registers by their queue-backed ranges; the documented
    firmware contract is that descriptor registers are read only under
    ``RECV_READY`` (the runtime returns 0 otherwise).
    """

    def __init__(self, config: Optional[RosebudConfig] = None, accel=None) -> None:
        self.config = config or RosebudConfig()
        self.accel = accel
        cfg = self.config
        self.slot_bytes = cfg.slot_bytes
        self.pkt_offset = funcsim.PKT_OFFSET
        self.stack_bytes = cfg.stack_bytes
        self.min_frame = cfg.min_frame_bytes
        self.max_frame = cfg.max_frame_bytes
        self.regions: Tuple[Region, ...] = (
            Region("imem", funcsim.IMEM_BASE, cfg.imem_bytes, False),
            Region("dmem", funcsim.DMEM_BASE, cfg.dmem_bytes, True),
            Region("pmem", funcsim.PMEM_BASE, cfg.packet_mem_bytes, True),
            Region("accmem", funcsim.ACCMEM_BASE, cfg.accel_mem_bytes, True),
            Region("interconnect", funcsim.IO_BASE, IO_WINDOW, True),
            Region("accel", funcsim.IO_EXT_BASE, IO_WINDOW, True),
        )
        self._io_specs = {spec.offset: spec for spec in IO_REGISTER_SPECS}

    # -- concrete bounds for symbolic values --------------------------------

    def concrete_min(self, v: AbsVal) -> int:
        """Smallest concrete value/offset ``v`` can take (len >= 0)."""
        return v.lo

    def concrete_max(self, v: AbsVal) -> int:
        return v.hi + v.lc * self.max_frame

    def region_of(self, addr: int) -> Tuple[Optional[str], int]:
        """``(region name, offset within it)`` for an absolute address;
        ``(None, addr)`` in an unmapped hole."""
        for region in self.regions:
            if region.base <= addr < region.end:
                return region.name, addr - region.base
        return None, addr

    # -- MMIO read semantics -------------------------------------------------

    def _io_value(self, offset: int) -> AbsVal:
        spec = self._io_specs.get(offset)
        if spec is None or not spec.readable:
            return TOP
        if spec.kind == "range":
            return interval(spec.lo, spec.hi)
        if spec.kind == "tag":
            return interval(0, self.config.slots_per_rpu)
        if spec.kind == "pkt_len":
            return AbsVal("num", 1, 0, 0)
        if spec.kind == "port":
            return interval(0, max(0, self.config.n_ports - 1))
        if spec.kind == "pkt_ptr":
            return AbsVal("pkt", 0, 0, 0)
        return TOP

    def _accel_value(self, offset: int, pc: int) -> AbsVal:
        accel = self.accel
        if accel is None:
            return TOP
        meta = {}
        reg_meta = getattr(accel, "reg_meta", None)
        if callable(reg_meta):
            meta = reg_meta(offset) or {}
        depth = meta.get("stream_depth")
        vr = meta.get("value_range")
        value = interval(vr[0], vr[1]) if vr else TOP
        if depth:
            value = AbsVal(value.base, value.lc, value.lo, value.hi, ("stream", offset, pc))
        return value

    def load_value(self, addr: AbsVal, signed: bool, nbytes: int, pc: int) -> AbsVal:
        """Abstract value a load at ``pc`` can produce (``signed``: the
        load sign-extends)."""
        if signed:
            width_default = TOP  # sign extension can reach anywhere
        else:
            width_default = interval(0, (1 << (8 * nbytes)) - 1) if nbytes < 4 else TOP
        if not addr.is_const:
            return width_default
        region, offset = self.region_of(addr.lo)
        if region == "interconnect":
            value = self._io_value(offset)
        elif region == "accel":
            value = self._accel_value(offset, pc)
        else:
            return width_default
        # narrow loads keep the symbolic value only when it provably fits
        if nbytes < 4:
            mask = (1 << (8 * nbytes)) - 1
            if signed:
                return TOP
            if self.concrete_max(value) > mask or self.concrete_min(value) < 0:
                return interval(0, mask)
        return value


# -- abstract machine state ---------------------------------------------------


class AbsState:
    """Register file of :class:`AbsVal` plus the maybe-interrupts-on flag."""

    __slots__ = ("regs", "mie")

    def __init__(self, regs: List[AbsVal], mie: bool = False) -> None:
        self.regs = regs
        self.mie = mie

    @classmethod
    def reset(cls) -> "AbsState":
        """Power-on state: every register zero, except sp which is the
        (symbolic) stack top — the runtime places the stack, not us."""
        regs = [ZERO] * 32
        regs[2] = AbsVal("sp", 0, 0, 0)
        return cls(regs, mie=False)

    # front door: the fallback seed of a handler entry with no entry state;
    # every bundled firmware's entries are seeded
    @classmethod
    def unknown(cls) -> "AbsState":
        regs = [TOP] * 32
        regs[0] = ZERO
        return cls(regs, mie=False)

    def copy(self) -> "AbsState":
        return AbsState(list(self.regs), self.mie)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbsState)
            and self.mie == other.mie
            and self.regs == other.regs
        )


def _join_states(a: AbsState, b: AbsState) -> Tuple[AbsState, bool]:
    """``a ⊔ b`` plus whether the result differs from ``a``."""
    changed = b.mie and not a.mie
    regs = list(a.regs)
    for i in range(1, 32):
        j = _join_val(regs[i], b.regs[i])
        if j != regs[i]:
            regs[i] = j
            changed = True
    return AbsState(regs, a.mie or b.mie), changed


def _widen_states(old: AbsState, new: AbsState) -> AbsState:
    regs = [_widen_val(o, n) for o, n in zip(old.regs, new.regs)]
    regs[0] = ZERO
    return AbsState(regs, new.mie)


# -- transfer function --------------------------------------------------------


@dataclass
class AbsAccess:
    """One load/store site with its abstract address."""

    pc: int
    kind: str  # "load" | "store"
    nbytes: int
    addr: AbsVal


def _known(v: AbsVal) -> Optional[int]:
    """The concrete value of an untagged constant, else ``None``."""
    return v.lo if v.is_const and v.tag is None else None


class _Transfer:
    def __init__(self, env: MachineEnv) -> None:
        self.env = env

    def step(self, inst, pc: int, state: AbsState) -> Optional[AbsAccess]:
        m = inst.mnemonic
        op = OPS[m]
        regs = state.regs
        rd, imm = inst.rd, inst.imm
        a, b = regs[inst.rs1], regs[inst.rs2]
        access = None

        if op.kind in ("load", "store"):
            addr = _add_imm(a, imm)
            access = AbsAccess(pc, op.kind, op.nbytes, addr)
            if op.kind == "load" and rd:
                regs[rd] = self.env.load_value(addr, op.signed, op.nbytes, pc)
        elif op.kind == "csr":
            if writes_csr(inst) and inst.csr == MSTATUS_CSR:
                state.mie = True
            if rd:
                regs[rd] = TOP
        elif writes_rd(m, rd):
            # known inputs fold through the table row's own expression
            # (tagged values keep their identity instead); the
            # per-operator rules below only ever see intervals
            value = constant_result(inst, pc, _known(a), _known(b))
            if value is not None:
                regs[rd] = const(value)
            elif m == "addi":
                regs[rd] = _add_imm(a, imm)
            elif m == "andi":
                regs[rd] = _and_imm(a, imm)
            elif op.kind == "alu-rr":
                regs[rd] = _RR_OPS[m](self, a, b) if m in _RR_OPS else TOP
            else:
                regs[rd] = self._alu_imm(m, a, imm)
        regs[0] = ZERO
        return access

    # immediate ALU forms beyond addi/andi -----------------------------------

    def _alu_imm(self, m: str, a: AbsVal, imm: int) -> AbsVal:
        if m == "ori":
            if a.is_plain and imm >= 0:
                return AbsVal("num", 0, max(a.lo, imm), _bit_hi(a, const(imm)))
            return TOP
        if m == "xori":
            if a.is_plain and imm >= 0:
                return AbsVal("num", 0, 0, _bit_hi(a, const(imm)))
            return TOP
        if m == "slli":
            s = imm & 0x1F
            if a.is_plain and (a.hi << s) <= U32:
                return AbsVal("num", 0, a.lo << s, a.hi << s)
            return TOP
        if m == "srli":
            s = imm & 0x1F
            if a.is_plain:
                return AbsVal("num", 0, a.lo >> s, a.hi >> s)
            return TOP
        if m == "srai":
            s = imm & 0x1F
            if a.is_plain and a.hi < 0x8000_0000:
                return AbsVal("num", 0, a.lo >> s, a.hi >> s)
            return TOP
        if m == "slti":
            if a.is_plain and a.hi < 0x8000_0000:
                if a.hi < imm:
                    return const(1)
                if a.lo >= imm:
                    return const(0)
            return interval(0, 1)
        if m == "sltiu":
            u = imm & U32
            if a.is_plain:
                if a.hi < u:
                    return const(1)
                if a.lo >= u:
                    return const(0)
            return interval(0, 1)
        return TOP

    # register-register ALU forms --------------------------------------------

    # front door: an RV32 form no bundled firmware executes
    def _and_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if b.is_const:
            return _and_imm(a, b.lo - _TWO32 if b.lo & 0x8000_0000 else b.lo)
        if a.is_const:
            return _and_imm(b, a.lo - _TWO32 if a.lo & 0x8000_0000 else a.lo)
        if a.is_plain and b.is_plain:
            return AbsVal("num", 0, 0, min(a.hi, b.hi))
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _or_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain:
            return AbsVal("num", 0, max(a.lo, b.lo), _bit_hi(a, b))
        return TOP

    def _xor_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain:
            return AbsVal("num", 0, 0, _bit_hi(a, b))
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _shift_rr(self, m: str, a: AbsVal, b: AbsVal) -> AbsVal:
        if b.is_const:
            imm_map = {"sll": "slli", "srl": "srli", "sra": "srai"}
            return self._alu_imm(imm_map[m], a, b.lo & 0x1F)
        if m in ("srl", "sra") and a.is_plain and a.hi < 0x8000_0000:
            return AbsVal("num", 0, 0, a.hi)
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _mul_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain and a.hi * b.hi <= U32:
            return AbsVal("num", 0, a.lo * b.lo, a.hi * b.hi)
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _divu_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain and b.lo >= 1:
            return AbsVal("num", 0, a.lo // b.hi, a.hi // b.lo)
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _remu_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain and b.lo >= 1:
            return AbsVal("num", 0, 0, min(a.hi, b.hi - 1))
        return TOP

    # front door: an RV32 form no bundled firmware executes
    def _slt_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain and a.hi < 0x8000_0000 and b.hi < 0x8000_0000:
            if a.hi < b.lo:
                return const(1)
            if a.lo >= b.hi:
                return const(0)
        return interval(0, 1)

    # front door: an RV32 form no bundled firmware executes
    def _sltu_rr(self, a: AbsVal, b: AbsVal) -> AbsVal:
        if a.is_plain and b.is_plain:
            if a.hi < b.lo:
                return const(1)
            if a.lo >= b.hi:
                return const(0)
        return interval(0, 1)


_RR_OPS = {
    "add": lambda t, a, b: _add(a, b),
    "sub": lambda t, a, b: _sub(a, b),
    "and": _Transfer._and_rr,
    "or": _Transfer._or_rr,
    "xor": _Transfer._xor_rr,
    "sll": lambda t, a, b: t._shift_rr("sll", a, b),
    "srl": lambda t, a, b: t._shift_rr("srl", a, b),
    "sra": lambda t, a, b: t._shift_rr("sra", a, b),
    "slt": _Transfer._slt_rr,
    "sltu": _Transfer._sltu_rr,
    "mul": _Transfer._mul_rr,
    "divu": _Transfer._divu_rr,
    "remu": _Transfer._remu_rr,
}


# -- branch refinement --------------------------------------------------------


def _refine_edge(state: AbsState, inst, taken: bool) -> Optional[AbsState]:
    """State on the taken/not-taken edge of a conditional branch, or
    ``None`` when the edge is provably infeasible.  Refines only plain
    intervals (signed relations only away from the sign boundary)."""
    relation, signed = BRANCH_RELATIONS[inst.mnemonic]
    if not taken:
        relation = NEGATED_RELATION[relation]
    rs1, rs2 = inst.rs1, inst.rs2
    if rs1 == rs2:
        # beq r,r / bge r,r always taken; bne/blt never
        if relation in ("eq", "ge"):
            return state
        return None
    a, b = state.regs[rs1], state.regs[rs2]
    if not (a.is_plain and b.is_plain):
        return state
    if signed and (a.hi >= 0x8000_0000 or b.hi >= 0x8000_0000):
        return state
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if relation == "eq":
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        alo = blo = lo
        ahi = bhi = hi
    elif relation == "ne":
        if alo == ahi == blo == bhi:
            return None
        if blo == bhi:
            if blo == alo:
                alo += 1
            if blo == ahi:
                ahi -= 1
        if alo == ahi:
            if alo == blo:
                blo += 1
            if alo == bhi:
                bhi -= 1
        if alo > ahi or blo > bhi:
            return None
    elif relation == "lt":
        if alo >= bhi:
            return None
        ahi = min(ahi, bhi - 1)
        blo = max(blo, alo + 1)
    elif relation == "ge":
        if ahi < blo:
            return None
        alo = max(alo, blo)
        bhi = min(bhi, ahi)
    out = state.copy()
    if rs1:
        out.regs[rs1] = AbsVal("num", 0, alo, ahi, a.tag)
    if rs2:
        out.regs[rs2] = AbsVal("num", 0, blo, bhi, b.tag)
    return out


# -- results ------------------------------------------------------------------


@dataclass
class AbsintResult:
    """Everything the fixpoint proved about one firmware."""

    cfg: FirmwareCfg
    env: MachineEnv
    in_states: Dict[int, AbsState] = field(default_factory=dict)
    accesses: List[AbsAccess] = field(default_factory=list)
    infeasible_edges: Set[Tuple[int, int]] = field(default_factory=set)
    entry_joins: Dict[int, AbsState] = field(default_factory=dict)
    handler_entries: Dict[int, AbsState] = field(default_factory=dict)
    handler_clobbers: Dict[int, Set[int]] = field(default_factory=dict)
    widened: Set[int] = field(default_factory=set)
    iterations: int = 0
    incomplete: bool = False
    #: set by :func:`deep_analyze`: the loop-bound inference report
    loop_bounds: Optional[object] = None

    def __post_init__(self) -> None:
        self._pc_block: Dict[int, int] = {}
        for block in self.cfg.blocks.values():
            for pc in block.pcs:
                self._pc_block[pc] = block.start
        self._clobber_union: Set[int] = set()
        for regs in self.handler_clobbers.values():
            self._clobber_union |= regs

    def state_before(self, pc: int) -> Optional[AbsState]:
        """Abstract state just before the instruction at ``pc`` executes
        (replayed from the containing block's fixpoint in-state)."""
        start = self._pc_block.get(pc)
        if start is None or start not in self.in_states:
            return None
        state = self.in_states[start].copy()
        block = self.cfg.blocks[start]
        for _ in _replay(block, state, _Transfer(self.env), self._clobber_union, stop=pc):
            pass
        return state

    def resolved(self) -> Iterator[Tuple[AbsAccess, Optional[str], int]]:
        """``(access, region name, offset)`` for every site whose address
        the fixpoint pinned to one constant (region ``None``: a hole)."""
        for acc in self.accesses:
            if acc.addr.is_const:
                yield (acc, *self.env.region_of(acc.addr.lo))

    def mmio_footprint(self) -> Dict[str, Dict[int, Set[str]]]:
        """``{"interconnect"|"accel": {offset: {"load"/"store"}}}`` over
        every resolved MMIO access, trap handlers included."""
        out: Dict[str, Dict[int, Set[str]]] = {"interconnect": {}, "accel": {}}
        for acc, region, offset in self.resolved():
            if region in out:
                out[region].setdefault(offset, set()).add(acc.kind)
        return out


def _replay(
    block, state: AbsState, transfer: "_Transfer", clobbers: Set[int],
    stop: Optional[int] = None,
) -> Iterator[Optional[AbsAccess]]:
    """Step ``state`` (a copy of the block's fixpoint in-state) through
    ``block`` in place, halting before pc ``stop``.  Yields each
    instruction's access (or ``None``) once it has executed and before
    the trap handlers' clobbers land — the states an interrupt can
    really see."""
    for pc, inst in zip(block.pcs, block.insts):
        if pc == stop:
            return
        yield transfer.step(inst, pc, state)
        if state.mie:
            for r in clobbers:
                state.regs[r] = TOP


def _out_edges(block, state: AbsState) -> Iterator[Tuple[int, Optional[AbsState]]]:
    """``(successor, state on that edge)`` out of ``block``; the state is
    ``None`` when a conditional branch proves the edge infeasible."""
    last = block.last
    if (
        block.end_reason == "terminal"
        and last is not None
        and last.mnemonic in BRANCH_MNEMONICS
    ):
        target = (block.pcs[-1] + last.imm) & U32
        if target != (block.pcs[-1] + 4) & U32:
            for succ in block.successors:
                yield succ, _refine_edge(state, last, taken=(succ == target))
            return
    for succ in block.successors:
        yield succ, state


# -- the fixpoint engine ------------------------------------------------------


class _Engine:
    def __init__(
        self,
        cfg: FirmwareCfg,
        env: MachineEnv,
        clamps: Optional[Dict[int, Dict[int, AbsVal]]] = None,
    ) -> None:
        self.cfg = cfg
        self.env = env
        self.transfer = _Transfer(env)
        self.clamps = clamps or {}
        self.back_edges: Set[Tuple[int, int]] = {
            (tail, lp.header)
            for lp in cfg.loops.values()
            for tail, _ in lp.back_edges
        }
        self.headers = set(cfg.loops)
        self.in_states: Dict[int, AbsState] = {}
        self.entry_joins: Dict[int, AbsState] = {}
        self.update_counts: Dict[int, int] = {}
        self.widened: Set[int] = set()
        self.worklist: List[int] = []
        self.iterations = 0
        self.incomplete = False
        # handler clobbers: syntactic rd scan over handler-reachable blocks
        self.handler_clobbers: Dict[int, Set[int]] = {}
        for root in cfg.entries[1:]:
            if root not in cfg.blocks:
                continue
            regs: Set[int] = set()
            for start in cfg.reachable(root):
                for inst in cfg.blocks[start].insts:
                    if writes_rd(inst.mnemonic, inst.rd):
                        regs.add(inst.rd)
            self.handler_clobbers[root] = regs
        self.clobber_union: Set[int] = set()
        for regs in self.handler_clobbers.values():
            self.clobber_union |= regs

    # -- state propagation ---------------------------------------------------

    def _push(self, start: int) -> None:
        if start not in self.worklist:
            self.worklist.append(start)

    def _update(self, pred: int, succ: int, state: AbsState) -> None:
        if succ not in self.cfg.blocks:
            return
        if succ in self.headers and (pred, succ) not in self.back_edges:
            ej = self.entry_joins.get(succ)
            self.entry_joins[succ] = (
                state.copy() if ej is None else _join_states(ej, state)[0]
            )
        prev = self.in_states.get(succ)
        if prev is None:
            new, changed = state.copy(), True
        else:
            new, changed = _join_states(prev, state)
        if changed and prev is not None and succ in self.headers:
            count = self.update_counts.get(succ, 0) + 1
            self.update_counts[succ] = count
            if count > WIDEN_AFTER:
                new = _widen_states(prev, new)
                self.widened.add(succ)
        clamp = self.clamps.get(succ)
        if clamp:
            regs = list(new.regs)
            for r, cv in clamp.items():
                regs[r] = _meet_val(regs[r], cv)
            new = AbsState(regs, new.mie)
            changed = prev is None or new != prev
        if changed:
            self.in_states[succ] = new
            self._push(succ)

    def seed(self, root: int, state: AbsState) -> None:
        if root not in self.cfg.blocks:
            return
        prev = self.in_states.get(root)
        if prev is None:
            self.in_states[root] = state
        else:
            self.in_states[root] = _join_states(prev, state)[0]
        self._push(root)

    def run(self) -> None:
        cap = 256 * max(1, len(self.cfg.blocks))
        blocks = self.cfg.blocks
        while self.worklist:
            self.iterations += 1
            if self.iterations > cap:
                # widening makes this unreachable in practice; if it
                # ever fires, fall to TOP everywhere reachable (sound)
                self.incomplete = True
                for start in list(self.in_states):
                    self.in_states[start] = AbsState.unknown()
                self.worklist.clear()
                return
            start = self.worklist.pop(0)
            state = self.in_states[start].copy()
            for _ in self._replay(start, state):
                pass
            for succ, out in _out_edges(blocks[start], state):
                if out is not None:
                    self._update(start, succ, out)

    def _replay(self, start: int, state: AbsState):
        return _replay(self.cfg.blocks[start], state, self.transfer, self.clobber_union)

    # -- post-fixpoint sweeps ------------------------------------------------

    def collect_handler_entry(self, main_blocks: Set[int]) -> Optional[AbsState]:
        """Join of every post-instruction state where interrupts may be
        enabled — the states a trap can really interrupt."""
        acc: Optional[AbsState] = None
        for start in sorted(main_blocks):
            if start not in self.in_states:
                continue
            state = self.in_states[start].copy()
            for _ in self._replay(start, state):
                if state.mie:
                    snap = state.copy()
                    acc = snap if acc is None else _join_states(acc, snap)[0]
        return acc

    def final_sweep(self) -> Tuple[List[AbsAccess], Set[Tuple[int, int]]]:
        accesses: List[AbsAccess] = []
        infeasible: Set[Tuple[int, int]] = set()
        for start in sorted(self.in_states):
            state = self.in_states[start].copy()
            accesses.extend(acc for acc in self._replay(start, state) if acc is not None)
            for succ, out in _out_edges(self.cfg.blocks[start], state):
                if out is None:
                    infeasible.add((start, succ))
        return accesses, infeasible


def analyze_cfg(
    cfg: FirmwareCfg,
    env: Optional[MachineEnv] = None,
    *,
    clamps: Optional[Dict[int, Dict[int, AbsVal]]] = None,
) -> AbsintResult:
    """One widening fixpoint over ``cfg`` (main entry, then handlers
    from their soundly-joined entry states), plus the final collection
    sweep.  ``clamps`` are per-header register overrides from loop-bound
    inference (see :func:`deep_analyze` for the two-pass pipeline)."""
    env = env or MachineEnv()
    engine = _Engine(cfg, env, clamps=clamps)

    engine.seed(cfg.entry, AbsState.reset())
    engine.run()

    main_blocks = cfg.reachable(cfg.entry)
    handler_entries: Dict[int, AbsState] = {}
    handler_roots = [r for r in cfg.entries[1:] if r in cfg.blocks]
    if handler_roots and not engine.incomplete:
        entry = engine.collect_handler_entry(main_blocks)
        for root in handler_roots:
            seed = entry.copy() if entry is not None else AbsState.unknown()
            seed.mie = False  # hardware clears MIE on trap entry
            handler_entries[root] = seed.copy()
            engine.seed(root, seed)
        engine.run()

    accesses, infeasible = engine.final_sweep()
    return AbsintResult(
        cfg=cfg,
        env=env,
        in_states=engine.in_states,
        accesses=accesses,
        infeasible_edges=infeasible,
        entry_joins=engine.entry_joins,
        handler_entries=handler_entries,
        handler_clobbers=engine.handler_clobbers,
        widened=engine.widened,
        iterations=engine.iterations,
        incomplete=engine.incomplete,
    )


def deep_analyze(cfg: FirmwareCfg, env: Optional[MachineEnv] = None) -> AbsintResult:
    """The two-pass pipeline: widening fixpoint, loop-bound inference
    (``# loop-bound`` annotations, already on ``cfg.loops``, are its
    cross-checks), then a clamped re-run that recovers
    induction-variable precision.  The result carries the
    :class:`~repro.verify.loopbound.LoopBoundReport` in ``loop_bounds``."""
    from .loopbound import induction_clamps, infer_loop_bounds

    env = env or MachineEnv()
    first = analyze_cfg(cfg, env)
    report = infer_loop_bounds(cfg, first, env)
    clamps = induction_clamps(cfg, first, report)
    if clamps:
        second = analyze_cfg(cfg, env, clamps=clamps)
        second.loop_bounds = report
        return second
    first.loop_bounds = report
    return first
