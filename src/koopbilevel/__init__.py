"""Bilevel trajectory optimization with mixed boundary conditions on
Koopman generator surrogates.

Pipeline: identify a bilinear generator model from sampled Lie-derivative
data (`gedmd`), convexify the fixed-boundary fixed-period subproblem as an
equality-constrained QP on exactly discretized lifted LTI dynamics
(`lower_level`), search the low-dimensional boundary/period space on top
(`upper_level`), and validate against a direct-transcription NLP of the
original dynamics (`baseline_nlp`).
"""

from .errors import (
    ArtifactError,
    BuildError,
    ConfigError,
    CorrelationError,
    DataError,
    DegenerateQpError,
    DomainEvaluationError,
    IntegrationError,
    KoopbilevelError,
    LowerLevelError,
    NoSolutionError,
    NumericError,
)
from .systems import (
    ControlAffineSystem,
    HybridExtras,
    eval_rhs,
    get_system,
    rk4_step,
)
from .lifting import (
    ObservableDictionary,
    get_dictionary,
    lift,
    manifold_defect,
    unlift,
)
from .gedmd import (
    GeneratorModel,
    assemble_data,
    fit_generator,
    identify,
)
from .numerics import (
    KktResult,
    complex_step,
    eigenmodes,
    qp_sensitivity,
    solve_kkt,
    zoh_discretize,
)
from .lower_level import (
    BoundaryVariant,
    LowerLevelProblem,
    LowerLevelSolution,
    build_qp,
    choose_linearization_point,
    solve_lower,
    sweep_lower,
)
from .upper_level import (
    BilevelSolution,
    MixedBoundaryConstraint,
    UpperConfig,
    make_periodic_amplitude_anchor,
    make_walker_gait,
    solve_reduced,
    sweep_period,
)
from .baseline_nlp import (
    NlpSolution,
    TranscribedNlp,
    check_trajectory,
    solve_nlp,
)

__version__ = "0.1.0"
