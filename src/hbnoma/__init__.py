"""Link-level simulator for hybrid-beamforming NOMA downlinks.

One batched engine evaluates blocks of misaligned draws in closed form:
zero-forcing hybrid precoding, power allocation with successive decoding,
exact rates and three analytic rate/gap bounds. On top of it sit a Monte
Carlo sweep runner with figure presets and a CSV-emitting command line.
"""

__version__ = "0.1.0"

from .channel import (
    ClusterSpec,
    ScenarioConfig,
    counter_uniform,
    dirichlet_kernel,
    gain_db_to_beta,
    user_angles,
)
from .errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    HbnomaError,
    NumericalError,
    SingularMatrix,
    UnknownPreset,
)
from .montecarlo import (
    Baselines,
    BlockMetrics,
    ExperimentSpec,
    ResultCell,
    ResultTable,
    TrialMetrics,
    block_metrics,
    preset,
    run_experiment,
    trial_metrics,
)

__all__ = [
    # configuration
    "ClusterSpec",
    "ScenarioConfig",
    # engine
    "counter_uniform",
    "user_angles",
    "dirichlet_kernel",
    "gain_db_to_beta",
    # experiments
    "Baselines",
    "ExperimentSpec",
    "ResultCell",
    "ResultTable",
    "TrialMetrics",
    "BlockMetrics",
    "block_metrics",
    "trial_metrics",
    "run_experiment",
    "preset",
    # errors
    "HbnomaError",
    "ConfigError",
    "UnknownPreset",
    "NumericalError",
    "SingularMatrix",
    "DegenerateScenario",
    "DegenerateSubspace",
]
