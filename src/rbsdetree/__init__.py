"""Reflected backward solver for jump-and-diffusion scenario trees.

Public surface: marked-point-process model (mpp), tree construction
(lattice), envelope/decomposition (snell), the reflected solver and its
checks (rbsde), the fixed-point solver (picard), stopping rules and the
enumeration oracle (stopping), weighted norms (wnorm), instance builders
(instances) and the acceptance harness (verify).
"""

from .errors import (
    BetaTooSmall,
    BetaZero,
    BudgetExceeded,
    ConfigInvalid,
    EnumerationBudgetExceeded,
    NoConvergence,
    NonMonotoneCompensator,
    NotSupermartingale,
    RbsdeTreeError,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Representation,
    ScenarioTree,
    TimeGrid,
    build_tree,
    cexp_level,
    extract_representation,
    level_expectation,
    representation_integrands,
)
from .mpp import (
    CompensatorSpec,
    MarkSet,
    MppPath,
    counting_process,
    simulate_path,
)
from .picard import (
    ContractionConfig,
    PicardTrace,
    composite_distance,
    picard_solve,
    select_contraction_parameters,
)
from .rbsde import (
    EquationResidualReport,
    GeneratorSpec,
    LipschitzConstants,
    RbsdeSolution,
    SkorohodReport,
    a_priori_majorant,
    check_equation_residual,
    check_skorohod,
    reward_process,
    running_gains,
    solve_given_generators,
    solve_via_snell,
)
from .snell import (
    SnellDecomposition,
    doob_meyer,
    envelope_jump_support,
    snell_envelope,
)
from .stopping import (
    ENUMERATION_CAP,
    StoppingCertificate,
    StoppingRule,
    brute_force_value,
    epsilon_optimal_time,
    k_flatness_before_stop,
    reward_of_rule,
    rule_from_mask,
    smallest_optimal_time,
    stop_levels,
)
from .wnorm import WeightedNorm, cauchy_weight_bound, norm_sq

__version__ = "0.1.0"
