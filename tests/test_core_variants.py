"""Tests for core-configuration variants and cross-system verdict parity."""


from repro.accel.pigasus import generate_ruleset, parse_rules
from repro.baselines import SnortBaseline
from repro.core import RosebudConfig, RosebudSystem
from repro.core.funcsim import FunctionalRpu
from repro.firmware import FORWARDER_ASM, PigasusHwReorderFirmware
from repro.packet import build_tcp
from repro.riscv import CycleModel, MemoryBus, RiscvCpu, assemble
from repro.traffic import FlowTrafficSource


class TestCoreVariants:
    """§4.1: placing the core inside the RPU 'leaves the option open
    for the developer to customize the core'."""

    def _forwarder_cycles(self, cycle_model):
        rpu = FunctionalRpu(FORWARDER_ASM)
        rpu.cpu.cycle_model = cycle_model
        packets = [build_tcp("1.1.1.1", "2.2.2.2", 1, 2, pad_to=64).data] * 8
        return rpu.measure_cycles_per_packet(packets)[0]

    def test_light_core_is_slower_per_packet(self):
        full = self._forwarder_cycles(CycleModel.vexriscv_full())
        light = self._forwarder_cycles(CycleModel.vexriscv_light())
        assert light > full * 0.9
        # loads dominate the forwarder loop; the light core pays more
        assert light >= full

    def test_light_core_multiplication_cost(self):
        source = """
            li a0, 123
            li a1, 456
            mul a2, a0, a1
            ebreak
        """
        def run(model):
            bus = MemoryBus()
            bus.add_ram(0, 4096)
            bus.load_blob(0, assemble(source).image)
            cpu = RiscvCpu(bus, cycle_model=model)
            cpu.run()
            assert cpu.read_reg(12) == 123 * 456
            return cpu.cycles

        assert run(CycleModel.vexriscv_light()) > run(CycleModel.vexriscv_full()) + 25

    def test_full_preset_is_default(self):
        assert CycleModel.vexriscv_full() == CycleModel()


class TestVerdictParity:
    """Rosebud's accelerator and the Snort baseline use the same rule
    semantics: over a shared workload they must flag the same packets."""

    def test_same_alerts_on_shared_trace(self):
        rules = parse_rules(generate_ruleset(80))
        payloads = [r.content for r in rules]
        system = RosebudSystem(
            RosebudConfig(n_rpus=8, slots_per_rpu=32),
            PigasusHwReorderFirmware(rules),
        )
        source = FlowTrafficSource(
            system, 0, 20.0, 512, attack_fraction=0.2,
            attack_payloads=payloads, n_flows=32, seed=9, n_packets=300,
        )
        # capture the workload as it's generated
        generated = []
        original = source.next_packet

        def tee():
            pkt = original()
            generated.append(pkt)
            return pkt

        source.next_packet = tee
        source.start()
        system.sim.run()

        snort = SnortBaseline(rules)
        snort_alerts = sum(1 for pkt in generated if snort.inspect(pkt))
        rosebud_alerts = system.counters.value("to_host")
        assert rosebud_alerts == snort_alerts
        # and the specific rule ids match packet by packet
        rosebud_flagged = {pkt.packet_id: pkt.rule_ids for pkt in system.host_rx}
        for pkt in generated:
            sids = snort.inspect(pkt)
            if sids:
                assert rosebud_flagged.get(pkt.packet_id) == sids
