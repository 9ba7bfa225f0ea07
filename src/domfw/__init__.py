"""Distributed online multiple Frank-Wolfe optimization and its harness."""

__version__ = "0.1.0"

from .algorithm import (
    RoundDiagnostics,
    ScheduleMode,
    ScheduleParams,
    Trajectory,
    initial_decisions,
    inner_count,
    run,
    run_round,
    step_size,
)
from .network import (
    GraphSchedule,
    MixingConstants,
    MixingFold,
    WeightMatrix,
    check_mixing,
    metropolis_weights,
    random_connected_schedule,
)
from .problem import (
    ConstraintKind,
    ConstraintSpec,
    LossStream,
    ProblemConstants,
    diameter,
    estimate_function_variation,
    function_variation_bound,
    generate_stream,
    global_loss,
    lmo,
    problem_constants,
    sample_feasible,
)
from .regret import (
    BoundReport,
    Envelopes,
    OptimumRecord,
    RegretSeries,
    RoundOptimizer,
    SolverError,
    envelopes,
    regret_series,
    regret_upper_bound,
)
