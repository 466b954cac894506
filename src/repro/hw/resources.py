"""FPGA resource vectors.

Xilinx utilization reports count LUTs, registers (flip-flops), BRAM
(36 Kb blocks), URAM (288 Kb blocks), and DSP slices.  A
:class:`ResourceVector` is an algebraic value so component models can be
summed, scaled, and compared against device capacity, reproducing the
paper's Tables 1–4 by composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

RESOURCE_KINDS = ("luts", "registers", "bram", "uram", "dsp")


@dataclass(frozen=True)
class ResourceVector:
    """A (LUT, FF, BRAM, URAM, DSP) utilization tuple."""

    luts: int = 0
    registers: int = 0
    bram: int = 0
    uram: int = 0
    dsp: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.luts + other.luts,
            self.registers + other.registers,
            self.bram + other.bram,
            self.uram + other.uram,
            self.dsp + other.dsp,
        )

    def __mul__(self, factor: int) -> "ResourceVector":
        return ResourceVector(
            self.luts * factor,
            self.registers * factor,
            self.bram * factor,
            self.uram * factor,
            self.dsp * factor,
        )

    __rmul__ = __mul__

    def fits_within(self, capacity: "ResourceVector") -> bool:
        return all(
            getattr(self, kind) <= getattr(capacity, kind) for kind in RESOURCE_KINDS
        )

    def utilization_of(self, capacity: "ResourceVector") -> Dict[str, float]:
        """Fractional utilization per resource kind against ``capacity``."""
        out: Dict[str, float] = {}
        for kind in RESOURCE_KINDS:
            cap = getattr(capacity, kind)
            out[kind] = getattr(self, kind) / cap if cap else 0.0
        return out

    def as_dict(self) -> Dict[str, int]:
        return {kind: getattr(self, kind) for kind in RESOURCE_KINDS}


#: The XCVU9P device on the VCU1525 board (paper Tables 1/2 bottom row).
VU9P_CAPACITY = ResourceVector(
    luts=1_182_240, registers=2_364_480, bram=2160, uram=960, dsp=6840
)
