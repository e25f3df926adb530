"""Link-level simulator for hybrid-beamforming NOMA downlinks.

Covers steering/collinearity geometry, zero-forcing hybrid precoding, power
allocation with successive decoding, exact rate evaluation under beam
misalignment, three analytic rate/gap bounds, and a Monte Carlo sweep runner
with figure presets and a CSV-emitting command line.
"""

__version__ = "0.1.0"

from .beamforming import HybridPrecoder, design_precoder, effective_channel, rf_subspace_modes
from .bounds import (
    BoundReport,
    kappa_max_S,
    leakage_direction,
    misalignment_factor,
    misalignment_factor_eigen,
    model_effective_channel,
    theorem1_lower_bound,
    theorem2_lower_bound,
    theorem3_gap_bound,
    user_bounds,
)
from .channel import (
    ClusterSpec,
    Scenario,
    ScenarioConfig,
    UlaConfig,
    UserLink,
    beam_collinearity,
    collinearity_sum,
    counter_uniform,
    dirichlet_kernel,
    gain_db_to_beta,
    normalized_angle,
    steering_vector,
    synthesize_scenario,
    user_angles,
    validate_config,
)
from .errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    HbnomaError,
    NoConvergence,
    NotHermitian,
    NumericalError,
    OutOfRange,
    SingularMatrix,
    TrialError,
    UnknownPreset,
    ZeroVector,
)
from .montecarlo import (
    Baselines,
    BlockMetrics,
    ExperimentSpec,
    ResultCell,
    ResultRow,
    ResultTable,
    TrialMetrics,
    block_metrics,
    preset,
    run_experiment,
    trial_metrics,
)
from .noma import (
    PowerAllocation,
    RateReport,
    allocate_power,
    exact_rate,
    fully_digital_rates,
    oma_rate,
    order_users_by_effective,
    rate_from_terms,
)
from .numerics import (
    EigenPair,
    gram_max_eigen,
    hermitian_eig,
    hermitian_inverse,
    hermitian_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
