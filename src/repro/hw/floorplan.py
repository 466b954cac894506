"""Physical layout model (Figures 5 & 6, §5).

The VU9P is three stacked dies (SLRs) joined by a limited pool of
super-long-line (SLL) crossing registers.  The paper reports two
physical-design facts this model reproduces:

* the switching infrastructure consumes **54.7 %** of the die-crossing
  registers (after explicit placement constraints), and
* routing utilization stays ≤ 17 % in any direction across all builds.

The model places the framework's blocks into SLRs the way Figures 5/6
draw them (MAC/PCIe in the center die where the hard IP lives, RPU PR
regions spread across all three dies, cluster switches spanning die
boundaries) and accounts SLL register usage for every link that
crosses a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.config import RosebudConfig

#: The VU9P has 3 SLRs; each adjacent pair is joined by 17,280 SLL
#: connections (Xilinx DS923), i.e. two crossing interfaces.
N_SLRS = 3
SLL_PER_BOUNDARY = 17_280

#: Registers per crossing: each bus bit that crosses a boundary is
#: registered on both sides (the "extra registers on the border" cost
#: §4.1 mentions for PR regions as well).
REGS_PER_CROSSING_BIT = 2


class FloorplanError(RuntimeError):
    """Raised when a layout is infeasible (SLL exhaustion etc.)."""


@dataclass
class PlacedBlock:
    """A block pinned to one SLR."""

    name: str
    slr: int


def axi_stream_bits(data_bits: int) -> int:
    """Physical wires of an AXI-Stream bus: data + tkeep (one bit per
    data byte) + tvalid/tready/tlast."""
    return data_bits + data_bits // 8 + 3


@dataclass
class CrossingLink:
    """A bus crossing one or more SLR boundaries.

    ``bits`` is the *data* width; the physical crossing cost includes
    the AXI-Stream sidebands."""

    name: str
    bits: int
    src_slr: int
    dst_slr: int

    @property
    def boundaries(self) -> List[int]:
        low, high = sorted((self.src_slr, self.dst_slr))
        return list(range(low, high))


class Floorplan:
    """SLR placement + SLL accounting for one Rosebud configuration."""

    def __init__(self, config: RosebudConfig) -> None:
        self.config = config
        self.blocks: Dict[str, PlacedBlock] = {}
        self.links: List[CrossingLink] = []
        self._place_framework()

    # -- placement (mirrors Figures 5/6) --------------------------------------------

    def _place(self, name: str, slr: int) -> None:
        if not 0 <= slr < N_SLRS:
            raise FloorplanError(f"SLR {slr} out of range")
        self.blocks[name] = PlacedBlock(name, slr)

    def _place_framework(self) -> None:
        config = self.config
        # hard IP: PCIe in SLR1 (center column), the two CMACs in SLR1
        # and SLR2 where the GTY quads sit on the VCU1525
        self._place("pcie", 1)
        self._place("cmac0", 1)
        self._place("cmac1", 2)
        self._place("lb", 1)
        # RPUs: spread evenly across the three dies like the figures
        for rpu in range(config.n_rpus):
            self._place(f"rpu{rpu}", rpu * N_SLRS // config.n_rpus)
        # cluster switches live with their RPUs' center of mass
        for cluster in range(config.n_clusters):
            members = config.cluster_members(cluster)
            slrs = [self.blocks[f"rpu{m}"].slr for m in members]
            self._place(f"cluster{cluster}", round(sum(slrs) / len(slrs)))
        self._wire_links()

    def _wire_links(self) -> None:
        config = self.config
        bus = config.cluster_bus_bits
        # packet sources/sinks feeding every cluster at full width:
        # the two MACs, host DRAM over PCIe, and the loopback port
        hubs = (
            ("cmac0", self.blocks["cmac0"].slr),
            ("cmac1", self.blocks["cmac1"].slr),
            ("hostdma", self.blocks["pcie"].slr),
            ("loopback", self.blocks["lb"].slr),
        )
        for cluster in range(config.n_clusters):
            sw = self.blocks[f"cluster{cluster}"].slr
            for hub_name, hub in hubs:
                for direction in ("in", "out"):
                    self.links.append(
                        CrossingLink(
                            f"{hub_name}->cluster{cluster}.{direction}",
                            bus, hub, sw,
                        )
                    )
            # RPU-side: the 128-bit per-RPU data links plus the control
            # channels (descriptors to the LB, broadcast messaging)
            for member in config.cluster_members(cluster):
                rpu_slr = self.blocks[f"rpu{member}"].slr
                for direction in ("in", "out"):
                    self.links.append(
                        CrossingLink(
                            f"cluster{cluster}->rpu{member}.{direction}",
                            config.rpu_bus_bits, sw, rpu_slr,
                        )
                    )
                for direction in ("in", "out"):
                    self.links.append(
                        CrossingLink(
                            f"ctrl.rpu{member}.{direction}",
                            64, self.blocks["lb"].slr, rpu_slr,
                        )
                    )

    # -- accounting --------------------------------------------------------------------

    def sll_bits_per_boundary(self) -> Dict[int, int]:
        usage: Dict[int, int] = {b: 0 for b in range(N_SLRS - 1)}
        for link in self.links:
            for boundary in link.boundaries:
                usage[boundary] += axi_stream_bits(link.bits)
        return usage

    def crossing_register_utilization(self) -> float:
        """Fraction of all SLL crossing registers the switching uses."""
        total_bits = sum(self.sll_bits_per_boundary().values())
        capacity = SLL_PER_BOUNDARY * (N_SLRS - 1)
        return total_bits / capacity

    def check_feasible(self) -> None:
        for boundary, bits in self.sll_bits_per_boundary().items():
            if bits > SLL_PER_BOUNDARY:
                raise FloorplanError(
                    f"boundary {boundary} needs {bits} SLLs of {SLL_PER_BOUNDARY}"
                )
