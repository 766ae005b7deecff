"""Toolkit for singular fractional-order systems E D^alpha x = A x + B u.

Submodules:

* :mod:`sfos.descriptor` -- system container, pencil analysis, admissibility;
* :mod:`sfos.fpdm` -- the fractional-order positive-definite matrix set;
* :mod:`sfos.lmi` -- affine matrix expressions and a dense feasibility solver;
* :mod:`sfos.synthesis` -- observer-based and static output-feedback design;
* :mod:`sfos.lifting` -- order reduction for orders in (1, 2), and the
  working coordinates that synthesis and simulation share;
* :mod:`sfos.simulator` -- implicit Grünwald-Letnikov time stepping;
* :mod:`sfos.cli` -- command-line front end (``sfos`` entry point).
"""

from .descriptor import (AdmissibilityReport, DescriptorSystem, analyze,
                         analyze_pair, annihilators, system_from_dict)
from .errors import (GainRecoverySingular, InputError, LmiNumericalError,
                     NonsingularMatrixError, NotMemberError,
                     OutputInjectionInfeasible, OutputStageExhausted,
                     RankDeficientError, SfosError, StateFeedbackInfeasible,
                     SynthesisError, VerificationFailed)
from .fpdm import FpdmParam, congruence, is_member, materialize
from .synthesis import (ObserverDesign, OutputFeedbackDesign,
                        admissible_via_lmi, synth_observer,
                        synth_output_feedback)
from .lifting import (LiftedReport, LiftedSystem, lift, synth_observer_lifted,
                      synth_output_feedback_lifted, transfer_function)
from .lmi import LmiSolution, VariableRegistry, solve_feasibility
from .simulator import SimConfig, Trajectory, gl_weights, simulate, tail_decay_exponent

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "DescriptorSystem", "analyze", "analyze_pair",
    "annihilators", "system_from_dict",
    "SfosError", "InputError", "NonsingularMatrixError", "NotMemberError",
    "RankDeficientError", "LmiNumericalError",
    "SynthesisError", "StateFeedbackInfeasible", "OutputInjectionInfeasible",
    "OutputStageExhausted", "GainRecoverySingular", "VerificationFailed",
    "FpdmParam", "congruence", "is_member", "materialize",
    "LiftedReport", "LiftedSystem", "lift",
    "synth_observer_lifted", "synth_output_feedback_lifted",
    "transfer_function",
    "LmiSolution", "VariableRegistry", "solve_feasibility",
    "SimConfig", "Trajectory", "gl_weights", "simulate",
    "tail_decay_exponent",
    "ObserverDesign", "OutputFeedbackDesign", "admissible_via_lmi",
    "synth_observer", "synth_output_feedback",
    "__version__",
]
