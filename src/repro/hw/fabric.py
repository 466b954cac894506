"""FPGA device / partial-reconfiguration-region model.

Models what the paper's Figures 5 & 6 show: a VU9P device split into a
static region (MACs, PCIe, switching, interconnects) plus one PR region
per RPU and one PR region for the LB.  The model enforces the PR
discipline Rosebud relies on: a PR region can be reconfigured only
after its traffic is drained, and whatever is loaded into a region
(the base RPU logic plus an accelerator) must fit its capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .components import ComponentSet, components_for
from .resources import ResourceVector, VU9P_CAPACITY

#: Average measured time to pause, load a bitfile, and boot an RPU
#: (§4.1: 756 ms over 320 loads).
PR_LOAD_TIME_MS = 756.0


class PlacementError(RuntimeError):
    """Raised when a design does not fit its region or device."""


@dataclass
class PRRegion:
    """One partially reconfigurable block and whatever is loaded in it."""

    name: str
    capacity: ResourceVector
    occupant: Optional[str] = None
    occupant_resources: ResourceVector = field(default_factory=ResourceVector)

    def load(self, name: str, resources: ResourceVector) -> None:
        if not resources.fits_within(self.capacity):
            capacity = self.capacity.as_dict()
            over = {
                kind: val - capacity[kind]
                for kind, val in resources.as_dict().items()
                if val > capacity[kind]
            }
            raise PlacementError(
                f"{name} does not fit in PR region {self.name}: over by {over}"
            )
        self.occupant = name
        self.occupant_resources = resources


class FpgaDevice:
    """A VU9P laid out for Rosebud with ``n_rpus`` RPU PR regions.

    The static part (framework) is derived from the paper's component
    tables; each RPU PR region's capacity is the framework RPU logic
    plus the published "Remaining (PR)" headroom.
    """

    def __init__(self, n_rpus: int, capacity: ResourceVector = VU9P_CAPACITY) -> None:
        self.n_rpus = n_rpus
        self.capacity = capacity
        self.components: ComponentSet = components_for(n_rpus)
        rpu_region_capacity = self.components.rpu_base + self.components.rpu_remaining
        lb_region_capacity = self.components.lb + self.components.lb_remaining
        self.rpu_regions: List[PRRegion] = [
            PRRegion(f"rpu{i}", rpu_region_capacity) for i in range(n_rpus)
        ]
        self.lb_region = PRRegion("lb", lb_region_capacity)
        self.lb_region.load("round_robin_lb", self.components.lb)
        base = self.components.rpu_base
        for region in self.rpu_regions:
            region.load("rpu_base", base)

    # -- reporting ----------------------------------------------------------------

    def utilization_report(self) -> Dict[str, Dict[str, float]]:
        """A Vivado-like per-component utilization report (fractions of
        device capacity), mirroring Tables 1/2 columns."""
        from .components import COMPLETE_16, COMPLETE_8

        comp = self.components
        if self.n_rpus == 16:
            complete = COMPLETE_16
        elif self.n_rpus == 8:
            complete = COMPLETE_8
        else:
            complete = comp.complete_design()
        rows = {
            "Single RPU": comp.rpu_base,
            "Remaining (PR)": comp.rpu_remaining,
            "LB": comp.lb,
            "Remaining": comp.lb_remaining,
            "Single Interconnect": comp.interconnect,
            "CMAC": comp.cmac,
            "PCIe": comp.pcie,
            "Switching": comp.switching,
            "Complete design": complete,
        }
        return {
            name: vector.utilization_of(self.capacity) for name, vector in rows.items()
        }

    def check_fits(self) -> None:
        total = self.components.complete_design()
        if not total.fits_within(self.capacity):
            raise PlacementError(f"design exceeds device: {total.as_dict()}")
