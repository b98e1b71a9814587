"""Experiment harness: grids, sweeps, serialization, CSV/manifest emission."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from cellsched import (
    AggregateReport,
    CapabilityError,
    ExperimentConfig,
    ParameterError,
    SimConfig,
    StrategySpec,
    StrategyScore,
    SweepSpec,
    TraceEvent,
    WorkloadConfig,
    aggregate,
    default_experiment_config,
    default_sim_config,
    experiment_from_dict,
    experiment_to_dict,
    generate_workload,
    run_experiment,
    run_simulation,
    simplex_grid,
    summarize,
    sweep_linear,
    sweep_probabilistic,
)
from cellsched import experiments
from cellsched.experiments import (
    CURVE_HEADER,
    RANKING_KINDS,
    SURFACE_HEADER,
    TABLE_HEADER,
    TRACE_HEADER,
    WORKLOAD_HEADER,
    default_alpha_grid,
    git_blob_sha1,
    replication_reports,
    score_strategy,
    strategy_from_dict,
    strategy_to_dict,
    write_curve_csv,
    write_manifest,
    write_ranking_csv,
    write_surface_csv,
    write_trace_csv,
    write_workload_csv,
)

from conftest import make_flow


def tiny_config(horizon=400, replications=2, **kwargs) -> ExperimentConfig:
    sim = SimConfig(
        workload=WorkloadConfig(arrival_rate=0.09, horizon=horizon),
        strategy=StrategySpec(kind="tas"),
    )
    return ExperimentConfig(sim=sim, replications=replications, base_seed=1, **kwargs)


class TestExperimentConfig:
    def test_seed_sequence(self):
        config = tiny_config(replications=4)
        assert config.seeds == (1, 2, 3, 4)

    def test_needs_two_replications(self):
        with pytest.raises(ParameterError):
            tiny_config(replications=1)

    def test_defaults_describe_reference_setup(self):
        config = default_experiment_config()
        assert config.replications == 10
        assert config.sim.horizon == 100_000
        assert config.sim.workload.arrival_rate == 0.09
        assert tuple(s.kind for s in config.strategies) == RANKING_KINDS

    def test_default_sim_config_horizon(self):
        assert default_sim_config(horizon=5000).horizon == 5000


class TestSweepGrids:
    def test_default_alpha_grid(self):
        grid = default_alpha_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 2.0
        assert grid[3] == 0.3  # exact decimals, no float drift

    def test_simplex_grid_covers_all_compositions(self):
        grid = simplex_grid(0.1)
        assert len(grid) == 66
        assert all(abs(sum(p) - 1.0) < 1e-9 for p in grid)
        assert (1.0, 0.0, 0.0) in grid and (0.0, 0.0, 1.0) in grid

    def test_simplex_step_must_divide_one(self):
        with pytest.raises(ParameterError):
            simplex_grid(0.3)

    def test_sweep_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(kind="grid")
        with pytest.raises(ParameterError):
            SweepSpec(kind="linear", alpha_step=0.0)
        with pytest.raises(ParameterError):
            SweepSpec(kind="probabilistic", simplex_step=0.0)


class TestScoring:
    def test_replication_reports_deterministic(self):
        config = tiny_config()
        spec = StrategySpec(kind="tas")
        a = replication_reports(config.sim, spec, config.base_seed, 2)
        b = replication_reports(config.sim, spec, config.base_seed, 2)
        assert a == b

    def test_score_strategy_pairs_replications(self):
        config = tiny_config(replications=3)
        score = score_strategy(config, StrategySpec(kind="das"))
        assert score.label == "das"
        assert score.score.replications == 3

    def test_capability_error_carries_label(self):
        config = tiny_config()
        with pytest.raises(CapabilityError, match="sectf"):
            score_strategy(config, StrategySpec(kind="sectf"))

    def test_run_experiment_sorts_descending(self):
        config = tiny_config(
            strategies=(StrategySpec(kind="tas"), StrategySpec(kind="max_ci"),
                        StrategySpec(kind="round_robin")),
        )
        rows = run_experiment(config)
        means = [row.score.log_alpt_mean for row in rows]
        assert means == sorted(means, reverse=True)

    def test_run_experiment_empty_is_empty(self):
        assert run_experiment(tiny_config(strategies=())) == ()


class TestOneWorkloadPerSeed:
    """Each seed's workload is generated once and shared by every strategy."""

    @pytest.fixture
    def generated_seeds(self, monkeypatch):
        seeds = []
        real = experiments.generate_workload

        def counting(workload):
            seeds.append(workload.seed)
            return real(workload)

        monkeypatch.setattr(experiments, "generate_workload", counting)
        return seeds

    @staticmethod
    def separate_runs(config, spec):
        """Score of ``spec`` with every run generating its own workload."""
        reports = []
        for seed in config.seeds:
            workload = replace(config.sim.workload, seed=seed)
            result = run_simulation(
                replace(config.sim, workload=workload, strategy=spec)
            )
            reports.append(summarize(result.records, result.unfinished))
        return aggregate(reports)

    def test_run_experiment(self, generated_seeds):
        specs = tuple(StrategySpec(kind=k) for k in ("tas", "max_ci", "T"))
        config = tiny_config(replications=3, strategies=specs)
        rows = run_experiment(config)
        assert generated_seeds == [1, 2, 3]
        by_label = {row.label: row.score for row in rows}
        for spec in specs:
            score = score_strategy(config, spec).score
            assert by_label[spec.label()] == score
            assert score == self.separate_runs(config, spec)

    def test_sweep_linear(self, generated_seeds):
        config = tiny_config(replications=3)
        curve = sweep_linear(config, grid=(0.0, 0.5, 1.0))
        assert generated_seeds == [1, 2, 3]
        for alpha, score in curve:
            spec = StrategySpec(
                kind="linear",
                children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
                weights=(1.0, alpha),
            )
            assert score == score_strategy(config, spec).score

    def test_sweep_probabilistic(self, generated_seeds):
        config = tiny_config(replications=3)
        grid = ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.2, 0.3, 0.5))
        surface = sweep_probabilistic(config, grid=grid)
        assert generated_seeds == [1, 2, 3]
        children = tuple(StrategySpec(kind=k) for k in ("T", "tas", "das"))
        for point, score in surface:
            spec = StrategySpec(kind="probabilistic", children=children, weights=point)
            assert score == score_strategy(config, spec).score
            assert score == self.separate_runs(config, spec)


class TestSweeps:
    def test_linear_sweep_rows_follow_grid(self):
        config = tiny_config()
        curve = sweep_linear(config, grid=(0.0, 0.5, 1.0))
        assert [alpha for alpha, _ in curve] == [0.0, 0.5, 1.0]

    def test_linear_alpha_zero_equals_plain_tas(self):
        config = tiny_config()
        curve = sweep_linear(config, grid=(0.0,))
        tas_score = score_strategy(config, StrategySpec(kind="tas"))
        assert curve[0][1] == tas_score.score  # exact: identical selections

    def test_linear_grid_validation(self):
        config = tiny_config()
        with pytest.raises(ParameterError):
            sweep_linear(config, grid=())
        with pytest.raises(ParameterError):
            sweep_linear(config, grid=(-0.1, 0.0))
        with pytest.raises(ParameterError):
            sweep_linear(config, grid=(1.0, 0.5))

    def test_probabilistic_vertex_equals_plain_child(self):
        config = tiny_config()
        surface = sweep_probabilistic(config, grid=((1.0, 0.0, 0.0),))
        t_score = score_strategy(config, StrategySpec(kind="T"))
        assert surface[0][1] == t_score.score  # exact: degenerate mixture

    def test_probabilistic_grid_validation(self):
        config = tiny_config()
        with pytest.raises(ParameterError):
            sweep_probabilistic(config, grid=((0.5, 0.5),))
        with pytest.raises(ParameterError):
            sweep_probabilistic(config, grid=((0.5, 0.4, 0.2),))

    def test_sweep_uses_config_grid(self):
        config = tiny_config(sweep=SweepSpec(kind="linear", alpha_max=0.2,
                                             alpha_step=0.1))
        curve = sweep_linear(config)
        assert [alpha for alpha, _ in curve] == [0.0, 0.1, 0.2]


class TestStrategySerialization:
    def test_atomic_round_trip(self):
        spec = StrategySpec(kind="TK", tk_variant="mean")
        assert strategy_from_dict(strategy_to_dict(spec)) == spec

    def test_string_shorthand(self):
        assert strategy_from_dict("tas") == StrategySpec(kind="tas")

    def test_combinator_round_trip(self):
        spec = StrategySpec(
            kind="linear",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(1.0, 0.5),
        )
        assert strategy_from_dict(strategy_to_dict(spec)) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParameterError):
            strategy_from_dict({"kind": "tas", "discount": 0.9})
        with pytest.raises(ParameterError):
            strategy_from_dict({"weights": [1.0]})


class TestExperimentSerialization:
    def test_round_trip_preserves_config(self):
        config = default_experiment_config(base_seed=7, replications=3, horizon=5000)
        rebuilt = experiment_from_dict(experiment_to_dict(config))
        assert rebuilt == config

    def test_seed_alias(self):
        config = experiment_from_dict({"seed": 99, "horizon": 1000})
        assert config.base_seed == 99

    def test_unknown_keys_rejected_per_section(self):
        for payload in (
            {"mystery": 1},
            {"workload": {"burst": 2}},
            {"channel": {"fading": "rayleigh"}},
            {"buffer": {"drop_policy": "tail"}},
            {"sweep": {"kind": "linear", "resolution": 5}},
        ):
            with pytest.raises(ParameterError):
                experiment_from_dict(payload)

    def test_strategy_strings_accepted(self):
        config = experiment_from_dict(
            {"horizon": 1000, "strategies": ["tas", {"kind": "TK"}]}
        )
        assert tuple(s.kind for s in config.strategies) == ("tas", "TK")


class TestCsvEmission:
    @staticmethod
    def _aggregate(value: float) -> AggregateReport:
        return AggregateReport(
            alpt_mean=value, alpt_std=0.5, log_alpt_mean=math.log(value),
            log_alpt_std=0.01, replications=2, completed_total=10, unfinished_total=0,
        )

    def test_ranking_csv_layout(self, tmp_path):
        score = StrategyScore(
            label="tas", spec=StrategySpec(kind="tas"), score=self._aggregate(4.0)
        )
        data = write_ranking_csv(tmp_path / "ranking.csv", [score])
        lines = data.decode().splitlines()
        assert lines[0] == ",".join(TABLE_HEADER)
        assert lines[1].startswith("tas,")
        assert lines[1].endswith(",2,10,0")

    def test_curve_csv_layout(self, tmp_path):
        data = write_curve_csv(tmp_path / "c.csv", [(0.1, self._aggregate(2.0))])
        lines = data.decode().splitlines()
        assert lines[0] == ",".join(CURVE_HEADER)
        assert lines[1].split(",")[0] == "0.1"

    def test_surface_csv_layout(self, tmp_path):
        data = write_surface_csv(
            tmp_path / "s.csv", [((0.2, 0.3, 0.5), self._aggregate(2.0))]
        )
        lines = data.decode().splitlines()
        assert lines[0] == ",".join(SURFACE_HEADER)
        assert lines[1].startswith("0.2,0.3,0.5,")

    def test_workload_csv_layout(self, tmp_path):
        flow = make_flow(fid=3, arrival=17, size=500.0, mean_rate=999.5)
        data = write_workload_csv(tmp_path / "w.csv", [flow])
        assert data.decode().splitlines() == [
            ",".join(WORKLOAD_HEADER),
            "3,17,500.0,999.5",
        ]

    def test_trace_csv_blank_for_idle_slot(self, tmp_path):
        events = [TraceEvent(t=0, chosen_id=None, transfer=0.0, active_count=0),
                  TraceEvent(t=1, chosen_id=4, transfer=2.5, active_count=1)]
        data = write_trace_csv(tmp_path / "t.csv", events)
        assert data.decode().splitlines() == [
            ",".join(TRACE_HEADER),
            "0,,0.0,0",
            "1,4,2.5,1",
        ]

    def test_rewriting_is_byte_identical(self, tmp_path):
        flows = [make_flow(fid=i, arrival=i, size=600.0 + i) for i in range(5)]
        first = write_workload_csv(tmp_path / "w.csv", flows)
        second = write_workload_csv(tmp_path / "w.csv", flows)
        assert first == second

    def test_git_blob_sha1_known_value(self):
        # matches `git hash-object` on the same bytes
        assert git_blob_sha1(b"test\n") == "9daeafb9864cf43055ae93beb0afd6c7d144bfa4"

    def test_manifest_echoes_config_and_hashes(self, tmp_path):
        config = tiny_config()
        path = write_manifest(
            tmp_path, "ranking", config, {"ranking.csv": "abc123"}
        )
        manifest = json.loads(path.read_text())
        assert manifest["experiment"] == "ranking"
        assert manifest["seeds"] == [1, 2]
        assert manifest["outputs"] == {"ranking.csv": "abc123"}
        # echoed config reloads to the same experiment definition
        rebuilt = experiment_from_dict(manifest["config"])
        assert experiment_to_dict(rebuilt) == experiment_to_dict(config)


class TestWorkloadDump:
    def test_dump_matches_generator(self, tmp_path):
        config = tiny_config()
        flows = generate_workload(config.sim.workload)
        data = write_workload_csv(tmp_path / "w.csv", flows)
        assert len(data.decode().splitlines()) == len(flows) + 1
