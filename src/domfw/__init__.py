"""Distributed online multiple Frank-Wolfe optimization and its harness."""

__version__ = "0.1.0"

from .algorithm import (
    AgentState,
    RoundDiagnostics,
    ScheduleMode,
    ScheduleParams,
    Trajectory,
    consensus_step,
    fw_step,
    initial_decisions,
    inner_count,
    lo_call_count,
    run,
    run_round,
    step_size,
    tracking_step,
)
from .network import (
    GraphSchedule,
    MixingConstants,
    WeightMatrix,
    check_mixing,
    constant_schedule,
    metropolis_weights,
    random_connected_schedule,
    transition_product,
    validate,
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
    envelopes,
    project,
    projected_gradient_optimum,
    regret_series,
    regret_upper_bound,
)
