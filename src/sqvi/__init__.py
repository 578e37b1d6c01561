"""Solvers for monotone stochastic quasi-variational inequalities.

Find x* in K(x*) with <F(x*), y - x*> >= 0 for all y in K(x*), where the
constraint set K(x) moves with the decision variable and F is accessed
through mini-batches of stochastic samples. The solvers combine retracted
projected steps (optionally with an extra-gradient lookahead) with
certified inexact projections and schedules that grow batch sizes and
inner budgets geometrically.
"""

__version__ = "0.1.0"

from .errors import SqviError
from .sets import AffineSet, Ball, BlockBalls, Box, Halfspaces, Simplex, SimpleSet
from .operators import (
    OperatorSpec,
    check_monotone,
    estimate_lipschitz,
    estimate_qg,
    estimate_strong_monotonicity,
    evaluate_mean,
    gaussian_operator,
    sample_batch,
)
from .maps import (
    ArgminSet,
    FixedSet,
    NonlinearConvex,
    SetValuedMap,
    TranslatedSet,
    contractivity_audit,
    member,
)
from .projection import (
    BlockQuadratic,
    ProjectionResult,
    apd_solve,
    fista_solve,
    inexact_project,
    projection_rate_audit,
    reference_project,
)
from .solvers import (
    ConstantMinibatch,
    DampedInner,
    Deterministic,
    IncreasingSample,
    IterationTrace,
    SolverConfig,
    admissible_eta_interval,
    contraction_factor,
    derive_beta,
    oracle_complexity_report,
    run_ieg_sqvi,
    run_ig_sqvi,
    schedule_values,
)
from .diagnostics import dist_to_solution, fit_linear_rate, lower_level_subopt, natural_residual
from .problems import (
    PRESETS,
    DatasetGame,
    LinearCoupling,
    ProblemInstance,
    QuadraticPayoff,
    SyntheticGame,
    audit_instance,
    build_problem,
    load_libsvm,
    make_coupled_sp,
    make_regression_game,
    make_translated_box_qvi,
)
from .runner import RunConfig, parse_config, run_experiment
