"""Loop-bound inference tests (``repro.verify.loopbound``).

The induction rule (counted loops, up and down, increment before and
after the guard), the stream rule (accelerator FIFO drains), and the
annotation cross-check semantics: a ``# loop-bound`` that disagrees
with an inferred bound is an error, one on an uninferable loop is
trusted but flagged.
"""

from repro.accel.pigasus import PigasusStringMatcher
from repro.firmware.asm_sources import PIGASUS_ASM, PKT_GEN_ASM
from repro.verify import analyze_firmware, analyze_source, local_dominators


def _bounds(asm, name="t", accel=None):
    cfg, absres, _, _ = analyze_firmware(asm, name=name, accel=accel)
    return cfg, absres.loop_bounds


class TestInductionRule:
    def test_pkt_gen_generator_loop_is_inferred(self):
        cfg, report = _bounds(PKT_GEN_ASM, name="pkt_gen")
        gen = cfg.program.symbols["gen"]
        lb = report.bounds[gen]
        assert lb.bound == 32
        assert lb.source == "induction"
        assert lb.step == 1  # the word-fill counter strides one word

    def test_count_up_blt(self):
        asm = """
        li s5, 0
        li s6, 12
        loopz:
        addi t0, t0, 2
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert (lb.bound, lb.source, lb.step) == (12, "induction", 1)

    def test_count_down_bnez(self):
        asm = """
        li s5, 8
        loopz:
        addi t0, t0, 1
        addi s5, s5, -1
        bne s5, x0, loopz
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert (lb.bound, lb.source, lb.step) == (8, "induction", -1)

    def test_guard_before_increment_pays_one_extra(self):
        # the guard re-tests the pre-increment value once more, so the
        # sound bound is trips + 1
        asm = """
        li s5, 0
        li s6, 5
        loopz:
        bge s5, s6, done
        addi t0, t0, 1
        addi s5, s5, 1
        j loopz
        done:
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert (lb.bound, lb.source) == (6, "induction")

    def test_swapped_operands_bgt(self):
        # bgt assembles as blt with swapped operands; the rule must
        # swap the relation back
        asm = """
        li s5, 10
        li s6, 0
        loopz:
        addi s5, s5, -2
        bgt s5, s6, loopz
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert (lb.bound, lb.source, lb.step) == (5, "induction", -2)


#: the drain storing 3 to ACC_PIG_CTRL: the matcher ignores it, so the
#: FIFO head never moves and the loop spins on its first word
NON_POPPING_DRAIN = PIGASUS_ASM.replace(
    "li   t6, 2\n    sb   t6, 0(a1)", "li   t6, 3\n    sb   t6, 0(a1)"
)


class TestStreamRule:
    def test_pigasus_drain_bounded_by_fifo_depth(self):
        cfg, report = _bounds(
            PIGASUS_ASM, name="pigasus", accel=PigasusStringMatcher()
        )
        drain = cfg.program.symbols["drain"]
        lb = report.bounds[drain]
        assert lb.bound == 8
        assert lb.source == "stream"
        assert "depth 8" in lb.detail
        # only a store of a value in the CTRL row's advance_on pops the
        # stream: the same loop storing 3 gets no stream bound
        assert NON_POPPING_DRAIN != PIGASUS_ASM
        cfg, report = _bounds(
            NON_POPPING_DRAIN, name="pigasus_ctrl3", accel=PigasusStringMatcher()
        )
        assert cfg.program.symbols["drain"] not in report.bounds

    def test_a_moved_stream_word_keeps_its_bound(self):
        # `mv` (addi rd, rs, 0) passes the loaded word on unchanged, stream
        # tag included, so a guard on the copy still drains the FIFO
        asm = PIGASUS_ASM.replace("beqz t5, done", "mv   s4, t5\n    beqz s4, done")
        cfg, report = _bounds(asm, name="pigasus_mv", accel=PigasusStringMatcher())
        lb = report.bounds[cfg.program.symbols["drain"]]
        assert (lb.bound, lb.source) == (8, "stream")

    def test_without_accel_the_drain_is_unbounded(self):
        cfg, report = _bounds(PIGASUS_ASM, name="pigasus_noaccel")
        drain = cfg.program.symbols["drain"]
        assert drain not in report.bounds


class TestAnnotationCrossChecks:
    def test_wrong_annotation_on_inferable_loop_is_an_error(self):
        asm = """
        li s5, 0
        li s6, 12
        loopz:                 # loop-bound 4
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert lb.bound == 12  # the proof wins over the annotation
        assert lb.source == "induction"
        errors = [d for d in report.diagnostics
                  if d.code == "loop-bound-mismatch"]
        assert len(errors) == 1
        assert errors[0].level == "error"
        assert "annotation says 4" in errors[0].message

    def test_matching_annotation_is_silent(self):
        asm = """
        li s5, 0
        li s6, 12
        loopz:                 # loop-bound 12
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        _, report = _bounds(asm)
        assert report.diagnostics == []

    def test_annotation_on_uninferable_loop_is_trusted_but_flagged(self):
        # the guard tests a loaded value: no induction variable, and no
        # accelerator stream contract either
        asm = """
        li s4, 0x10000
        loopz:                 # loop-bound 4
        lw t0, 0(s4)
        bne t0, x0, loopz
        ebreak
        """
        cfg, report = _bounds(asm)
        lb = report.bounds[cfg.program.symbols["loopz"]]
        assert (lb.bound, lb.source) == (4, "annotation")
        warns = [d for d in report.diagnostics
                 if d.code == "loop-bound-trusted"]
        assert len(warns) == 1
        assert warns[0].level == "warning"


class TestLocalDominators:
    def test_header_dominates_every_body_block(self):
        asm = """
        li s5, 0
        li s6, 4
        loopz:
        beq t0, t1, arm
        addi t2, t2, 1
        arm:
        addi s5, s5, 1
        blt s5, s6, loopz
        ebreak
        """
        cfg = analyze_source(asm, name="doms")
        loop = cfg.loops[cfg.program.symbols["loopz"]]
        doms = local_dominators(cfg, loop)
        for node in loop.body:
            assert loop.header in doms[node]
        # the fall-through arm does not dominate the join after the
        # diamond (the taken edge bypasses it)
        join = cfg.program.symbols["arm"]
        fall = next(
            n for n in loop.body
            if n not in (loop.header, join)
        )
        assert fall not in doms[join]
