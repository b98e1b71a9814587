"""Slot-based simulation of a cellular downlink scheduler.

One base station serves one client per slot.  Strategies rank the active
flows by a per-flow index (rate, age, served traffic, and combinations);
the package measures the perceived-throughput criteria ALPT and logALPT
over completed downloads and ships a CLI for replicated, seeded
experiments: a strategy ranking table, a linear-combination weight sweep,
and a probabilistic-mixture sweep.
"""

from .channel import (
    ChannelConfig,
    ChannelRateSource,
    envelope_factor,
    rate_bounds,
    sample_rate,
)
from .errors import (
    AggregationError,
    CapabilityError,
    CellschedError,
    ParameterError,
    SchedulingError,
    UndefinedMetricError,
)
from .experiments import (
    ExperimentConfig,
    StrategyScore,
    SweepSpec,
    default_experiment_config,
    default_sim_config,
    experiment_from_dict,
    experiment_to_dict,
    run_experiment,
    simplex_grid,
    sweep_linear,
    sweep_probabilistic,
)
from .metrics import (
    AggregateReport,
    FlowRecord,
    MetricsReport,
    aggregate,
    alpt,
    log_alpt,
    summarize,
)
from .simcore import (
    BufferModel,
    SimConfig,
    SimResult,
    TraceEvent,
    run_simulation,
)
from .strategies import (
    FlowView,
    StrategySpec,
    compute_index,
    expected_file_size,
    linear_combine,
    pareto_posterior_density,
    select_client,
)
from .workload import (
    FlowSpec,
    ParetoMixture,
    WorkloadConfig,
    generate_workload,
    mixture_mean,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "AggregationError",
    "BufferModel",
    "CapabilityError",
    "CellschedError",
    "ChannelConfig",
    "ChannelRateSource",
    "ExperimentConfig",
    "FlowRecord",
    "FlowSpec",
    "FlowView",
    "MetricsReport",
    "ParameterError",
    "ParetoMixture",
    "SchedulingError",
    "SimConfig",
    "SimResult",
    "StrategyScore",
    "StrategySpec",
    "SweepSpec",
    "TraceEvent",
    "UndefinedMetricError",
    "WorkloadConfig",
    "aggregate",
    "alpt",
    "compute_index",
    "default_experiment_config",
    "default_sim_config",
    "envelope_factor",
    "expected_file_size",
    "experiment_from_dict",
    "experiment_to_dict",
    "generate_workload",
    "linear_combine",
    "log_alpt",
    "mixture_mean",
    "pareto_posterior_density",
    "rate_bounds",
    "run_experiment",
    "run_simulation",
    "sample_rate",
    "select_client",
    "simplex_grid",
    "summarize",
    "sweep_linear",
    "sweep_probabilistic",
]
