"""Replicated experiments: strategy ranking tables and parameter sweeps.

Every strategy is evaluated on the same replication seeds (base_seed + i),
so each one sees identical arrival streams and identical per-flow channel
draws — score differences are paired, reflecting only the scheduling rule.
Results aggregate to mean +/- sample std and serialize to CSV plus a JSON
manifest carrying the config echo, the seeds, and content hashes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .channel import ChannelConfig
from .errors import CapabilityError, ParameterError
from .metrics import AggregateReport, aggregate, summarize
from .simcore import BufferModel, SimConfig, run_simulation
from .strategies import StrategySpec
from .workload import (
    ParetoMixture,
    WorkloadConfig,
    default_size_mixture,
    generate_workload,
)

TABLE_HEADER = (
    "strategy",
    "logalpt_mean",
    "logalpt_std",
    "alpt_mean",
    "alpt_std",
    "replications",
    "completed",
    "unfinished",
)
CURVE_HEADER = ("alpha", "logalpt_mean", "logalpt_std")
SURFACE_HEADER = ("p_t", "p_tas", "p_das", "logalpt_mean", "logalpt_std")
WORKLOAD_HEADER = ("id", "arrival_slot", "file_size_kb", "mean_rate_kbps")
TRACE_HEADER = ("t", "chosen_id", "transfer_kb", "active_count")

#: Strategy lineup of the ranking experiment, in the paper's reported order.
RANKING_KINDS = ("T", "TK", "round_robin", "tas", "max_ci", "das", "pf")


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for the weight sweep or the mixture sweep."""

    kind: str  # "linear" | "probabilistic"
    alpha_max: float = 2.0
    alpha_step: float = 0.1
    simplex_step: float = 0.1

    def __post_init__(self):
        if self.kind not in ("linear", "probabilistic"):
            raise ParameterError(f"unknown sweep kind {self.kind!r}")
        if self.alpha_max < 0.0 or not self.alpha_step > 0.0:
            raise ParameterError("need alpha_max >= 0 and alpha_step > 0")
        if not 0.0 < self.simplex_step <= 1.0:
            raise ParameterError(f"simplex_step={self.simplex_step} not in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sim template, the strategies, and replication plan."""

    sim: SimConfig
    strategies: tuple[StrategySpec, ...] = ()
    replications: int = 10
    base_seed: int = 1
    sweep: SweepSpec | None = None
    output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.replications < 2:
            raise ParameterError(
                f"replications={self.replications}; need >= 2 for a spread"
            )

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.replications))


@dataclass(frozen=True)
class StrategyScore:
    label: str
    spec: StrategySpec
    score: AggregateReport


def default_sim_config(
    horizon: int = 100_000,
    strategy: StrategySpec = StrategySpec(kind="T"),
) -> SimConfig:
    """Reference setup: lambda=0.09 arrivals, the four-component size mixture,
    mean rates uniform on [lambda*mean_size/3, 3*lambda*mean_size]."""
    return SimConfig(
        workload=WorkloadConfig(arrival_rate=0.09, horizon=horizon),
        strategy=strategy,
    )


def default_experiment_config(
    base_seed: int = 1, replications: int = 10, horizon: int = 100_000
) -> ExperimentConfig:
    """The ranking experiment over the seven reference strategies."""
    return ExperimentConfig(
        sim=default_sim_config(horizon=horizon),
        strategies=tuple(StrategySpec(kind=k) for k in RANKING_KINDS),
        replications=replications,
        base_seed=base_seed,
    )


def replicate(sim_template, specs, base_seed, replications):
    """Metric reports of every strategy in ``specs`` on each replication seed.

    Returns one list per strategy, in seed order.  Seeds form the outer
    loop: each seed's workload is generated once and every strategy runs on
    those same flows, so only one seed's flows are alive at a time.
    """
    templates = []
    for spec in specs:
        try:
            templates.append(replace(sim_template, strategy=spec))
        except CapabilityError as err:
            raise CapabilityError(f"strategy {spec.label()}: {err}") from err
    reports = [[] for _ in templates]
    for i in range(replications):
        workload = replace(sim_template.workload, seed=base_seed + i)
        flows = generate_workload(workload)
        for template, spec_reports in zip(templates, reports):
            config = replace(template, workload=workload)
            result = run_simulation(config, flows=flows)
            spec_reports.append(summarize(result.records, result.unfinished))
    return reports


def replication_reports(sim_template, strategy, base_seed, replications):
    """Metric reports of `replications` seeded runs of one strategy."""
    return replicate(sim_template, (strategy,), base_seed, replications)[0]


def _scores(config: ExperimentConfig, specs) -> list[StrategyScore]:
    reports = replicate(config.sim, specs, config.base_seed, config.replications)
    return [
        StrategyScore(label=spec.label(), spec=spec, score=aggregate(spec_reports))
        for spec, spec_reports in zip(specs, reports)
    ]


def score_strategy(config: ExperimentConfig, spec: StrategySpec) -> StrategyScore:
    return _scores(config, (spec,))[0]


def run_experiment(config: ExperimentConfig) -> tuple[StrategyScore, ...]:
    """Score every strategy on shared seeds; rows sorted by logALPT descending."""
    rows = _scores(config, config.strategies)
    rows.sort(key=lambda row: row.score.log_alpt_mean, reverse=True)
    return tuple(rows)


def default_alpha_grid(alpha_max: float = 2.0, step: float = 0.1) -> tuple[float, ...]:
    n = round(alpha_max / step)
    return tuple(round(i * step, 12) for i in range(n + 1))


def simplex_grid(step: float = 0.1) -> tuple[tuple[float, float, float], ...]:
    """All three-part probability vectors on a regular grid of the given step."""
    n = round(1.0 / step)
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ParameterError(f"simplex step {step} must divide 1 evenly")
    points = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            points.append((i / n, j / n, k / n))
    return tuple(points)


def sweep_linear(config: ExperimentConfig, grid=None):
    """logALPT curve of I_tas + alpha * I_das over the alpha grid."""
    if grid is None:
        sweep = config.sweep
        if sweep is not None and sweep.kind == "linear":
            grid = default_alpha_grid(sweep.alpha_max, sweep.alpha_step)
        else:
            grid = default_alpha_grid()
    grid = tuple(float(a) for a in grid)
    if not grid:
        raise ParameterError("alpha grid is empty")
    if any(a < 0.0 for a in grid):
        raise ParameterError("alpha grid must be non-negative")
    if list(grid) != sorted(grid):
        raise ParameterError("alpha grid must be sorted ascending")
    tas = StrategySpec(kind="tas")
    das = StrategySpec(kind="das")
    specs = [
        StrategySpec(kind="linear", children=(tas, das), weights=(1.0, alpha))
        for alpha in grid
    ]
    reports = replicate(config.sim, specs, config.base_seed, config.replications)
    return tuple((alpha, aggregate(r)) for alpha, r in zip(grid, reports))


def sweep_probabilistic(config: ExperimentConfig, grid=None):
    """logALPT surface of the {T, tas, das} mixture over simplex points."""
    if grid is None:
        sweep = config.sweep
        if sweep is not None and sweep.kind == "probabilistic":
            grid = simplex_grid(sweep.simplex_step)
        else:
            grid = simplex_grid()
    grid = tuple(tuple(float(p) for p in point) for point in grid)
    if not grid:
        raise ParameterError("simplex grid is empty")
    for point in grid:
        if len(point) != 3 or any(p < 0.0 for p in point):
            raise ParameterError(f"bad simplex point {point}")
        if abs(sum(point) - 1.0) > 1e-9:
            raise ParameterError(f"simplex point {point} does not sum to 1")
    children = (
        StrategySpec(kind="T"),
        StrategySpec(kind="tas"),
        StrategySpec(kind="das"),
    )
    specs = [
        StrategySpec(kind="probabilistic", children=children, weights=point)
        for point in grid
    ]
    reports = replicate(config.sim, specs, config.base_seed, config.replications)
    return tuple((point, aggregate(r)) for point, r in zip(grid, reports))


# --- serialization -------------------------------------------------------


def strategy_to_dict(spec: StrategySpec) -> dict:
    data = {"kind": spec.kind}
    if spec.kind == "T":
        data["c_const"] = spec.c_const
    if spec.kind == "TK":
        data["tk_variant"] = spec.tk_variant
    if spec.kind in ("T", "TK"):
        data["mean_rate_mode"] = spec.mean_rate_mode
    if spec.children:
        data["children"] = [strategy_to_dict(c) for c in spec.children]
        data["weights"] = list(spec.weights)
    return data


def strategy_from_dict(data) -> StrategySpec:
    if isinstance(data, str):
        return StrategySpec(kind=data)
    if not isinstance(data, dict) or "kind" not in data:
        raise ParameterError(f"strategy entry needs a 'kind': {data!r}")
    fields = dict(data)
    children = tuple(strategy_from_dict(c) for c in fields.pop("children", ()))
    weights = tuple(float(w) for w in fields.pop("weights", ()))
    known = {"kind", "c_const", "pareto_alpha", "tk_variant", "mean_rate_mode"}
    unknown = set(fields) - known
    if unknown:
        raise ParameterError(f"unknown strategy fields {sorted(unknown)}")
    return StrategySpec(children=children, weights=weights, **fields)


def experiment_to_dict(config: ExperimentConfig) -> dict:
    sim = config.sim
    wl = sim.workload
    mix = wl.size_mixture
    data = {
        "base_seed": config.base_seed,
        "replications": config.replications,
        "horizon": sim.horizon,
        "drain_after_horizon": sim.drain_after_horizon,
        "workload": {
            "arrival_rate": wl.arrival_rate,
            "rate_lo_mult": wl.rate_lo_mult,
            "rate_hi_mult": wl.rate_hi_mult,
            "size_mixture": {
                "alpha": mix.alpha,
                "components": [
                    {"weight": w, "scale_kb": m} for w, m in mix.components
                ],
            },
        },
        "channel": {
            "lo_coeff": sim.channel.lo_coeff,
            "hi_coeff": sim.channel.hi_coeff,
            "envelope_amplitude": sim.channel.envelope_amplitude,
            "envelope_freq": sim.channel.envelope_freq,
            "envelope_phase": sim.channel.envelope_phase,
            "envelope_mode": sim.channel.envelope_mode,
        },
        "buffer": {
            "mode": sim.buffer.mode,
            "rtt": sim.buffer.rtt,
            "initial_window": sim.buffer.initial_window,
            "max_window": sim.buffer.max_window,
        },
        "strategies": [strategy_to_dict(s) for s in config.strategies],
    }
    if config.sweep is not None:
        sweep = {"kind": config.sweep.kind}
        if config.sweep.kind == "linear":
            sweep["alpha_max"] = config.sweep.alpha_max
            sweep["alpha_step"] = config.sweep.alpha_step
        else:
            sweep["simplex_step"] = config.sweep.simplex_step
        data["sweep"] = sweep
    if config.output is not None:
        data["output"] = config.output
    return data


def _pick(data: dict, known: set, where: str) -> dict:
    unknown = set(data) - known
    if unknown:
        raise ParameterError(f"unknown {where} fields {sorted(unknown)}")
    return data


def experiment_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config mapping.

    Every section is optional; omitted values fall back to the reference
    setup of default_experiment_config().
    """
    data = _pick(
        dict(data),
        {
            "base_seed",
            "seed",
            "replications",
            "horizon",
            "drain_after_horizon",
            "workload",
            "channel",
            "buffer",
            "strategies",
            "sweep",
            "output",
        },
        "config",
    )
    horizon = int(data.get("horizon", 100_000))

    wl = _pick(
        dict(data.get("workload", {})),
        {"arrival_rate", "rate_lo_mult", "rate_hi_mult", "size_mixture"},
        "workload",
    )
    mix_data = wl.get("size_mixture")
    if mix_data is None:
        mixture = default_size_mixture()
    else:
        mix_data = _pick(dict(mix_data), {"alpha", "components"}, "size_mixture")
        components = tuple(
            (float(c["weight"]), float(c["scale_kb"]))
            for c in mix_data.get("components", ())
        )
        if not components:
            base = default_size_mixture()
            components = base.components
        mixture = ParetoMixture(
            components=components, alpha=float(mix_data.get("alpha", 5.5))
        )
    workload = WorkloadConfig(
        arrival_rate=float(wl.get("arrival_rate", 0.09)),
        size_mixture=mixture,
        rate_lo_mult=float(wl.get("rate_lo_mult", 1.0 / 3.0)),
        rate_hi_mult=float(wl.get("rate_hi_mult", 3.0)),
        horizon=horizon,
    )

    ch = _pick(
        dict(data.get("channel", {})),
        {
            "lo_coeff",
            "hi_coeff",
            "envelope_amplitude",
            "envelope_freq",
            "envelope_phase",
            "envelope_mode",
        },
        "channel",
    )
    defaults = ChannelConfig()
    channel = ChannelConfig(
        lo_coeff=float(ch.get("lo_coeff", defaults.lo_coeff)),
        hi_coeff=float(ch.get("hi_coeff", defaults.hi_coeff)),
        envelope_amplitude=float(
            ch.get("envelope_amplitude", defaults.envelope_amplitude)
        ),
        envelope_freq=float(ch.get("envelope_freq", defaults.envelope_freq)),
        envelope_phase=float(ch.get("envelope_phase", defaults.envelope_phase)),
        envelope_mode=str(ch.get("envelope_mode", defaults.envelope_mode)),
    )

    bf = _pick(
        dict(data.get("buffer", {})),
        {"mode", "rtt", "initial_window", "max_window"},
        "buffer",
    )
    buffer = BufferModel(
        mode=str(bf.get("mode", BufferModel.mode)),
        rtt=int(bf.get("rtt", BufferModel.rtt)),
        initial_window=float(bf.get("initial_window", BufferModel.initial_window)),
        max_window=float(bf.get("max_window", BufferModel.max_window)),
    )

    if "strategies" in data:
        strategies = tuple(strategy_from_dict(s) for s in data["strategies"])
    else:
        strategies = tuple(StrategySpec(kind=k) for k in RANKING_KINDS)

    sweep = None
    if "sweep" in data and data["sweep"] is not None:
        sw = _pick(
            dict(data["sweep"]),
            {"kind", "alpha_max", "alpha_step", "simplex_step"},
            "sweep",
        )
        sweep = SweepSpec(
            kind=str(sw.get("kind", "linear")),
            alpha_max=float(sw.get("alpha_max", 2.0)),
            alpha_step=float(sw.get("alpha_step", 0.1)),
            simplex_step=float(sw.get("simplex_step", 0.1)),
        )

    strategy0 = strategies[0] if strategies else StrategySpec(kind="T")
    sim = SimConfig(
        workload=workload,
        strategy=strategy0,
        channel=channel,
        buffer=buffer,
        horizon=horizon,
        drain_after_horizon=bool(data.get("drain_after_horizon", True)),
    )
    return ExperimentConfig(
        sim=sim,
        strategies=strategies,
        replications=int(data.get("replications", 10)),
        base_seed=int(data.get("seed", data.get("base_seed", 1))),
        sweep=sweep,
        output=data.get("output"),
    )


# --- emission ------------------------------------------------------------


def _write_csv(path: Path, header, rows) -> bytes:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def write_ranking_csv(path, scores) -> bytes:
    rows = [
        (
            s.label,
            s.score.log_alpt_mean,
            s.score.log_alpt_std,
            s.score.alpt_mean,
            s.score.alpt_std,
            s.score.replications,
            s.score.completed_total,
            s.score.unfinished_total,
        )
        for s in scores
    ]
    return _write_csv(Path(path), TABLE_HEADER, rows)


def write_curve_csv(path, curve) -> bytes:
    rows = [(a, agg.log_alpt_mean, agg.log_alpt_std) for a, agg in curve]
    return _write_csv(Path(path), CURVE_HEADER, rows)


def write_surface_csv(path, surface) -> bytes:
    rows = [
        (p[0], p[1], p[2], agg.log_alpt_mean, agg.log_alpt_std)
        for p, agg in surface
    ]
    return _write_csv(Path(path), SURFACE_HEADER, rows)


def write_workload_csv(path, flows) -> bytes:
    rows = [(f.id, f.arrival_slot, f.file_size, f.mean_rate) for f in flows]
    return _write_csv(Path(path), WORKLOAD_HEADER, rows)


def write_trace_csv(path, events) -> bytes:
    rows = [
        (e.t, "" if e.chosen_id is None else e.chosen_id, e.transfer, e.active_count)
        for e in events
    ]
    return _write_csv(Path(path), TRACE_HEADER, rows)


def git_blob_sha1(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def write_manifest(out_dir, name: str, config: ExperimentConfig, outputs: dict) -> Path:
    """Write <out_dir>/manifest.json echoing the config, seeds, and file hashes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "experiment": name,
        "seeds": list(config.seeds),
        "config": experiment_to_dict(config),
        "outputs": outputs,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
