"""Fluid fast-forward: the fourth fidelity tier.

Above the interpreter, the translated firmware backend, and the replay
cache sits this package: once a run is provably in steady state, whole
periods of event simulation are replaced by ledger arithmetic.  See
:mod:`repro.fluid.engine` for the detection/warp machinery and
:mod:`repro.verify.fluidgate` for the static eligibility half.
"""

from .compare import diff_results
from .engine import FluidEngine
from .signature import queue_occupancy, state_signature

__all__ = [
    "FluidEngine",
    "diff_results",
    "queue_occupancy",
    "state_signature",
]
