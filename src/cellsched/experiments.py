"""Replicated experiments: strategy ranking tables and parameter sweeps, and the config codec.

Every strategy is evaluated on the config's replication seeds, so each
one sees identical arrival streams and identical per-flow channel draws
(made once per seed and replayed to every strategy) — score differences
are paired, reflecting only the scheduling rule.
Results aggregate to mean +/- sample std; ``cli`` writes them to CSV and
the manifest, whose config echo is :func:`experiment_to_dict`.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

from .channel import SharedRateSource
from .errors import ParameterError
from .metrics import AggregateReport, aggregate, summarize
from .simcore import SimConfig, check_serves, run_simulation
from .strategies import OWNED_PARAMS, StrategySpec
from .workload import WorkloadConfig, generate_workload

#: Strategy lineup of the ranking experiment, in the paper's reported order.
RANKING_KINDS = ("T", "TK", "round_robin", "tas", "max_ci", "das", "pf")

MAX_GRID_POINTS = 10_000  # of either sweep grid; the defaults have 21 and 66


@dataclass(frozen=True)
class SweepSpec:
    """Grids of both sweeps: each sweep reads its own grid, whatever ``kind`` says."""

    kind: str = "linear"  # "linear" | "probabilistic"; echoed, selects nothing
    alpha_max: float = 2.0
    alpha_step: float = 0.1
    simplex_step: float = 0.1

    def __post_init__(self):
        if self.kind not in ("linear", "probabilistic"):
            raise ParameterError(f"unknown sweep kind {self.kind!r}")
        self.alpha_grid, self.simplex_grid  # built and checked on loading

    @functools.cached_property
    def alpha_grid(self) -> tuple[float, ...]:
        """Multiples of ``alpha_step`` from 0 up to the last one not above ``alpha_max``."""
        step = self.alpha_step
        if not 0.0 <= self.alpha_max < math.inf or not 0.0 < step < math.inf:
            raise ParameterError("need 0 <= alpha_max < inf and 0 < alpha_step < inf")
        last = self.alpha_max / step + 1e-9  # a step's billionth absorbs float drift
        if not last < MAX_GRID_POINTS:
            raise ParameterError(f"alpha_step={step} makes over {MAX_GRID_POINTS} grid points")
        return tuple(float(f"{i * step:.12g}") for i in range(math.floor(last) + 1))

    @functools.cached_property
    def simplex_grid(self) -> tuple[tuple[float, float, float], ...]:
        """All three-part probability vectors on a regular grid of ``simplex_step``."""
        step = self.simplex_step
        n = 1.0 / step if 0.0 < step <= 1.0 else 0.0
        if (n + 1) * (n + 2) / 2 > MAX_GRID_POINTS:  # the grid's point count
            raise ParameterError(f"simplex_step={step} makes over {MAX_GRID_POINTS} grid points")
        n = round(n)
        if n < 1 or abs(n * step - 1.0) > 1e-9:
            raise ParameterError(f"simplex_step={step} must lie in (0, 1] and divide 1")
        return tuple(
            (i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n + 1 - i)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sim template, the strategies, and replication plan."""

    sim: SimConfig
    strategies: tuple[StrategySpec, ...]
    replications: int = 10
    base_seed: int = 1
    sweep: SweepSpec = SweepSpec()
    output: str = "results"  # the directory the CSV and manifest go to

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.replications < 2:
            raise ParameterError(
                f"replications={self.replications}; need >= 2 for a spread"
            )
        if not self.strategies:
            raise ParameterError("strategies: the list is empty")
        labels = [spec.label() for spec in self.strategies]
        if len(set(labels)) != len(labels):
            raise ParameterError(f"strategy labels must be distinct, got {labels}")
        for spec in self.strategies:
            check_serves(self.sim.buffer, spec)

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.replications))


def replicate(config: ExperimentConfig, specs):
    """Metric reports of every strategy in ``specs`` on each of the config's seeds.

    Returns one list per strategy, in seed order.  Seeds form the outer
    loop: each seed's workload is generated once, its channel rates are
    drawn once into a SharedRateSource, and every strategy runs on those
    same flows and rates, so only one seed's flows are alive at a time.
    A run whose metrics are undefined raises a ParameterError naming its
    seed and strategy.
    """
    sim = config.sim
    reports = [[] for _ in specs]
    for seed in config.seeds:
        workload = replace(sim.workload, seed=seed)
        flows = generate_workload(workload)
        rates = SharedRateSource(seed, sim.channel)
        for spec, spec_reports in zip(specs, reports):
            run = replace(sim, strategy=spec, workload=workload)
            result = run_simulation(run, flows=flows, rate_source=rates)
            try:
                spec_reports.append(summarize(result.records, result.unfinished))
            except ParameterError as err:
                raise ParameterError(f"seed {seed}, strategy {spec.label()}: {err}") from None
    return reports


def _scores(config: ExperimentConfig, specs) -> list[AggregateReport]:
    """The aggregate score of each of ``specs`` on the config's seeds."""
    reports = replicate(config, specs)
    return [aggregate(spec_reports) for spec_reports in reports]


def run_experiment(config: ExperimentConfig) -> tuple[tuple[str, AggregateReport], ...]:
    """(label, score) of every strategy on shared seeds, sorted by logALPT descending."""
    specs = config.strategies
    rows = zip([spec.label() for spec in specs], _scores(config, specs))
    return tuple(sorted(rows, key=lambda row: row[1].log_alpt_mean, reverse=True))


def sweep_linear(config: ExperimentConfig):
    """logALPT curve of I_tas + alpha * I_das over the config's alpha grid."""
    grid = config.sweep.alpha_grid
    tas, das = StrategySpec(kind="tas"), StrategySpec(kind="das")
    specs = [
        StrategySpec(kind="linear", children=(tas, das), weights=(1.0, alpha))
        for alpha in grid
    ]
    return tuple(zip(grid, _scores(config, specs)))


def sweep_probabilistic(config: ExperimentConfig):
    """logALPT surface of the {T, tas, das} mixture over the config's simplex grid."""
    grid = config.sweep.simplex_grid
    children = tuple(StrategySpec(kind=k) for k in ("T", "tas", "das"))
    specs = [
        StrategySpec(kind="probabilistic", children=children, weights=point)
        for point in grid
    ]
    return tuple(zip(grid, _scores(config, specs)))


# --- serialization -------------------------------------------------------
#
# One codec serves every config class.  A dataclass or NamedTuple encodes to
# a mapping of its fields and decodes field by field, each value converted by
# the field's annotation.  A StrategySpec encodes its kind and the parameters
# the kind owns, and a bare string decodes as its kind.


def to_dict(obj):
    """Plain data (mappings, lists and scalars) of a config object."""
    if isinstance(obj, StrategySpec):
        names = ("kind", *OWNED_PARAMS.get(obj.kind, ()))
    elif hasattr(obj, "_fields"):  # a NamedTuple
        names = obj._fields
    elif is_dataclass(obj):
        names = [f.name for f in fields(obj)]
    elif isinstance(obj, tuple):
        return [to_dict(item) for item in obj]
    else:
        return obj
    return {name: to_dict(getattr(obj, name)) for name in names}


def from_dict(tp, data, where: str = "config", /, **decoded):
    """Decode ``data`` as type ``tp``; errors are ParameterErrors naming the field.

    ``decoded`` holds fields given already decoded.  Such a field counts as
    unknown in ``data``: a file can neither set nor override it.  A value
    of exactly its field's type (an int, str or bool, or a config object)
    is taken as decoded; a tuple is converted item by item and a float goes
    through :func:`_scalar`, which rejects NaN and ±inf.  That exact-type
    shortcut is a measured fast path: without it, decoding the 2000
    ``short_runs`` configs took 11–15 % longer (about 44 → 49 ms on a
    2-core host).
    """
    if type(tp) is types.GenericAlias:  # tuple[X, ...], the one generic field type
        if not isinstance(data, (list, tuple)):
            raise ParameterError(f"{where}: expected a list, got {data!r}")
        item = typing.get_args(tp)[0]
        return tuple([from_dict(item, v, f"{where}[{i}]") for i, v in enumerate(data)])
    hints = _hints(tp)
    if not hints:  # int, float, str or bool: a class without fields
        return _scalar(tp, data, where)
    if tp is StrategySpec and isinstance(data, str):
        data = {"kind": data}
    if not isinstance(data, dict):
        raise ParameterError(f"{where}: expected a mapping, got {data!r}")
    if not data.keys() <= hints.keys() or decoded and not decoded.keys().isdisjoint(data):
        unknown = sorted(data.keys() - (hints.keys() - decoded.keys()), key=str)
        raise ParameterError(f"{where}: unknown fields {unknown}")
    for k, v in data.items():
        t = hints[k]
        decoded[k] = v if type(v) is t and t is not float else from_dict(t, v, f"{where}.{k}")
    try:
        return tp(**decoded)
    except (TypeError, ParameterError) as err:  # TypeError: a field is missing
        raise ParameterError(f"{where}: {err}") from None


_hints = functools.cache(typing.get_type_hints)  # field annotations of a config class


def _scalar(tp, value, where):
    """Strings and bools pass only as themselves; numbers convert, ints exactly.

    A float must be finite: NaN and ±inf are rejected.  An int string in a
    float's form ("1e3", "10.0") is read as a float; for an int field it,
    like a float, must be whole.  An int or a plain int string is taken
    exactly, even one that no float can hold.
    """
    try:
        float_form = tp is int and type(value) is str and any(c in value for c in ".eE")
        result = tp(float(value) if float_form else value)
        exact = type(value) is tp if tp in (str, bool) else not isinstance(value, bool)
        if tp is float:
            exact = exact and math.isfinite(result)
        if exact and (type(value) in (int, str) and not float_form or result == float(value)):
            return result
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "finite float" if tp is float else tp.__name__
    raise ParameterError(f"{where}: {value!r} is not a valid {kind}")


def experiment_to_dict(config: ExperimentConfig) -> dict:
    """The config file layout of ``config``; experiment_from_dict inverts it."""
    data = to_dict(config)
    sim = data.pop("sim")
    del sim["strategy"]  # the first of the strategies
    data["horizon"] = sim["workload"].pop("horizon")
    del sim["workload"]["seed"]  # set per replication
    return {**data, **sim}


def experiment_from_dict(data) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config file.

    The file holds the sim template's sections at its top level and the
    horizon outside ``workload``.  Omitted values take the dataclass
    defaults, and omitted strategies the ranking lineup; an empty list is
    rejected.  The template's strategy is the first listed one.  Four
    fields are fixed by the loader and unknown in a file: a top-level
    ``sim`` and ``strategy``, and ``horizon`` and ``seed`` in ``workload``.
    """
    if not isinstance(data, dict):
        raise ParameterError(f"config: expected a mapping, got {data!r}")
    top = dict(data)
    horizon = _scalar(int, top.pop("horizon", WorkloadConfig.horizon), "config.horizon")
    workload = from_dict(WorkloadConfig, top.pop("workload", {}), "config.workload",
                         horizon=horizon, seed=WorkloadConfig.seed)
    sim = {k: top.pop(k) for k in ("drain_after_horizon", "channel", "buffer") if k in top}
    raw = top.pop("strategies", RANKING_KINDS)
    strategies = from_dict(tuple[StrategySpec, ...], raw, "config.strategies")
    if not strategies:
        raise ParameterError("config.strategies: the list is empty")
    sim = from_dict(SimConfig, sim, workload=workload, strategy=strategies[0])
    return from_dict(ExperimentConfig, top, sim=sim, strategies=strategies)
