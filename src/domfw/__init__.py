"""Distributed online multiple Frank-Wolfe optimization and its harness."""

__version__ = "0.1.0"

from .algorithm import (
    InnerStep,
    RoundDiagnostics,
    ScheduleMode,
    ScheduleParams,
    Trajectory,
    consensus_step,
    fw_step,
    initial_decisions,
    inner_count,
    inner_steps,
    run,
    run_round,
    step_size,
    tracking_step,
)
from .network import (
    GraphSchedule,
    MixingConstants,
    MixingFold,
    WeightMatrix,
    check_mixing,
    constant_schedule,
    metropolis_weights,
    random_connected_schedule,
    transition_product,
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
    global_grad,
    global_loss,
    grad_eval,
    lmo,
    local_grads,
    loss_eval,
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
    active_set_optimum,
    envelopes,
    regret_series,
    regret_upper_bound,
    round_optima,
)
