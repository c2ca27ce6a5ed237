"""Finite-volume kinetic schemes for the bistable reaction-diffusion equation with relaxation."""

from .diagnostics import (
    DiagnosticsRecord,
    detect_stabilization,
    front_position_and_monotonicity,
    g_profile,
    l2_distance,
    linf_distance,
    relative_speed_error,
)
from .grid import (
    Grid,
    build_graded_grid,
    build_uniform_grid,
    project_cell_averages,
)
from .model import (
    BracketError,
    FrontProfile,
    IntegrationError,
    ModelParams,
    ParamColumns,
    ShootingError,
    exact_parabolic_front,
    exact_parabolic_front_derivative,
    from_diagonal,
    hyperbolic_front_speed_shooting,
    parabolic_front_speed,
    reaction_f,
    reaction_f_prime,
    to_diagonal,
)
from .scenarios import (
    ConfigError,
    Scenario,
    initial_exact_front,
    initial_random,
    initial_riemann,
    parse_config_text,
    run_order_comparison,
    run_random_study,
    run_riemann_decay,
    run_speed_table,
    write_snapshots_csv,
)
from .schemes import (
    SchemeConfig,
    State,
    minmod,
    monotonized_central,
    prepare_state_for_scheme,
    rhs_for_scheme,
    rhs_gk_pseudo_kinetic,
    rhs_kinetic_first_order,
    rhs_kinetic_first_order_uv,
    rhs_kinetic_second_order,
    rhs_onefield_alternative,
    rhs_onefield_direct,
    rhs_parabolic_reference,
)
from .timestepping import (
    BlowUpError,
    ImexWorkspace,
    RunResult,
    SolveError,
    assemble_imex_matrix,
    explicit_step,
    gershgorin_margins,
    imex_step,
    imex_step_reduced_uniform,
    run,
    run_ensemble,
    suggest_dt,
)

__version__ = "0.1.0"
