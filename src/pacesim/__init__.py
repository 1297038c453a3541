"""Budget-pacing dynamics in repeated auctions.

Simulates gradient-based pacing agents in core auctions (first-price,
second-price, GSP), benchmarks realized liquid welfare against the exact
ex-ante optimum, measures dynamic regret against the perfect pacing
sequence, and machine-checks the deterministic and probabilistic
inequalities the guarantees rest on.
"""

from .auctions import (
    FIRST_PRICE,
    GSP,
    SECOND_PRICE,
    AuctionOutcome,
    Mechanism,
    Polymatroid,
    SingleSlot,
    allocate,
    check_core,
    check_ir,
    check_mbb,
    first_price,
    gsp,
    second_price,
)
from .pacing import (
    AgentConfig,
    PacingState,
    check_generalized_pacing,
    compute_bid,
    init_state,
    update,
)
from .simulation import (
    Epoch,
    PacedAgent,
    ScriptedAgent,
    SimulationConfig,
    Trace,
    ValueModel,
    load_trace,
    replicate,
    run_simulation,
    save_trace,
    verify_epoch_value_bound,
)
from .welfare import (
    ExAnteRule,
    LiquidWelfareReport,
    counterexample_report,
    counterexample_scenario,
    ex_ante_grid_oracle,
    ex_ante_value,
    liquid_welfare,
    solve_ex_ante_optimum,
    verify_welfare_bound,
)
from .regret import (
    EnvironmentStep,
    PacingRun,
    PerfectPacingSequence,
    RegretReport,
    SmoothingSpec,
    surrogate_objective,
    dynamic_regret_batch,
    expected_curves,
    fit_growth_exponent,
    measure_smoothing,
    perfect_multiplier,
    perfect_sequence,
    simulate_pacing,
    stochastic_value,
    uniform_opponent_env,
    throttled_value_curve,
)
from .verify import (
    CheckReport,
    DiscreteValues,
    MartingaleSetup,
    PiecewiseLinear,
    SGDTestProblem,
    UniformValues,
    concentration_check,
    gsp_core_slack,
    lipschitz_integral_check,
    benchmark_value_ceiling,
    benchmark_value_diagnostic,
    sgd_regret_check,
)

__version__ = "0.1.0"
