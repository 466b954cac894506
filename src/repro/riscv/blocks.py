"""Shared block-boundary rules for the RV32IM fast path and analyzers.

The closure-translation engine (:mod:`repro.riscv.translate`) and the
static CFG builder (:mod:`repro.verify.cfg`) both partition a firmware
image into straight-line runs.  If they ever disagreed on where a run
ends, the static WCET bound could be computed over different blocks
than the ones the simulator actually executes — so the single source of
truth for "does this instruction terminate a block?" lives here and
both sides import it (``tests/test_verify_cfg.py`` holds a differential
assertion over every bundled firmware).

An instruction terminates a block when it can redirect control or
change interrupt enablement: branches, ``jal``/``jalr``, ``mret``,
``ecall``/``ebreak``, ``wfi``, and every ``csr*`` form.  Decode faults
are also terminal — the translator compiles them into a lazily-raising
closure and ends the block there.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .isa import OPS, DecodeError, Instruction, decode

#: Longest straight-line run fused into one superblock.
MAX_BLOCK = 64

_MASK32 = 0xFFFFFFFF

#: Mnemonics that always end a superblock: the ``terminal`` rows of the
#: instruction table.
TERMINAL_MNEMONICS = frozenset(m for m, op in OPS.items() if op.terminal)

#: The conditional-branch subset of :data:`TERMINAL_MNEMONICS` (two
#: successors: taken target and fall-through).
BRANCH_MNEMONICS = frozenset(m for m, op in OPS.items() if op.kind == "branch")


def is_block_terminal(mnemonic: str) -> bool:
    """True when ``mnemonic`` must end a superblock / basic block."""
    return mnemonic in TERMINAL_MNEMONICS


def static_successors(inst: Instruction, pc: int) -> Tuple[int, ...]:
    """Static successor pcs of a *terminal* instruction at ``pc``.

    The single source of truth for CFG edges: the verify-side builders
    (:mod:`repro.verify.cfg`) and the abstract interpreter both walk
    edges from here, so a graph they analyze can never disagree with
    the control transfers the simulator performs.  ``jalr``/``mret``
    return no successors (indirect / context restore); ``ebreak`` halts.
    """
    m = inst.mnemonic
    next_pc = (pc + 4) & _MASK32
    if m in BRANCH_MNEMONICS:
        target = (pc + inst.imm) & _MASK32
        return (target, next_pc) if target != next_pc else (next_pc,)
    if m == "jal":
        return ((pc + inst.imm) & _MASK32,)
    if m == "jalr":
        return ()  # indirect: target unknown statically
    if m == "mret":
        return ()  # returns to the interrupted context
    if m == "ebreak":
        return ()  # halts the core
    if m == "ecall":
        return (next_pc,)  # handler runs, execution continues
    # wfi and csr* fall through after their effect
    return (next_pc,)


#: A decoder callback: pc -> decoded instruction, or None when the word
#: at pc does not decode (data, or outside the image).
DecodeAt = Callable[[int], Optional[Instruction]]


def image_decoder(image: bytes, base: int = 0) -> DecodeAt:
    """Build a :data:`DecodeAt` over a flat firmware image at ``base``."""

    def decode_at(pc: int) -> Optional[Instruction]:
        off = pc - base
        if off < 0 or off + 4 > len(image) or off % 4:
            return None
        try:
            return decode(int.from_bytes(image[off:off + 4], "little"))
        except DecodeError:
            return None

    return decode_at


def superblock_pcs(
    decode_at: DecodeAt, entry_pc: int, max_block: int = MAX_BLOCK
) -> List[int]:
    """The instruction addresses the translator would fuse at ``entry_pc``.

    Mirrors ``TranslatedEngine.translate_block`` exactly: walk forward
    from the entry, stop *after* a terminal instruction (or an
    undecodable word, which the translator turns into a terminal fault
    closure), or at the ``max_block`` cap.
    """
    pcs: List[int] = []
    pc = entry_pc & _MASK32
    for _ in range(max_block):
        pcs.append(pc)
        inst = decode_at(pc)
        if inst is None or is_block_terminal(inst.mnemonic):
            break
        pc = (pc + 4) & _MASK32
    return pcs
