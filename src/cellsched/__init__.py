"""Slot-based simulation of a cellular downlink scheduler.

One base station serves one client per slot.  Strategies rank the active
flows by a per-flow index (rate, age, served traffic, and combinations);
the package measures the perceived-throughput criteria ALPT and logALPT
over completed downloads and ships a CLI for replicated, seeded
experiments: a strategy ranking table, a linear-combination weight sweep,
and a probabilistic-mixture sweep.
"""

from .channel import ChannelConfig
from .errors import CellschedError, ParameterError
from .experiments import (
    ExperimentConfig,
    SweepSpec,
    experiment_from_dict,
    experiment_to_dict,
    run_experiment,
    sweep_linear,
    sweep_probabilistic,
)
from .simcore import BufferModel, SimConfig, run_simulation
from .strategies import StrategySpec
from .workload import ParetoMixture, WorkloadConfig, generate_workload

__version__ = "0.1.0"

__all__ = [
    "BufferModel",
    "CellschedError",
    "ChannelConfig",
    "ExperimentConfig",
    "ParameterError",
    "ParetoMixture",
    "SimConfig",
    "StrategySpec",
    "SweepSpec",
    "WorkloadConfig",
    "experiment_from_dict",
    "experiment_to_dict",
    "generate_workload",
    "run_experiment",
    "run_simulation",
    "sweep_linear",
    "sweep_probabilistic",
]
