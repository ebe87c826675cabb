"""Non-negative super-resolution on [0,1] through the dual semi-infinite
program: a level bundle solver, dual-certificate analysis, primal recovery,
and the perturbation constants that tie dual error, location error,
amplitude error, and measurement noise together."""

from .kernel import Kernel
from .model import MeasurementSet, SampleGrid, SourceModel, synthesize
from .certificate import Certificate, global_maximizers, supremum
from .solver import BundleState, Cut, PenaltyProblem, solve
from .recovery import RecoveryResult, recover, recover_amplitudes

__all__ = [
    "Kernel", "SourceModel", "SampleGrid", "MeasurementSet", "synthesize",
    "Certificate", "supremum", "global_maximizers",
    "PenaltyProblem", "Cut", "BundleState", "solve",
    "RecoveryResult", "recover", "recover_amplitudes",
]
