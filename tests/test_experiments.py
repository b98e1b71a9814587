"""Experiment harness: grids, sweeps, serialization, CSV/manifest emission."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cellsched import (
    BufferModel,
    ChannelConfig,
    ExperimentConfig,
    ParameterError,
    ParetoMixture,
    SimConfig,
    StrategySpec,
    SweepSpec,
    WorkloadConfig,
    experiment_from_dict,
    experiment_to_dict,
    generate_workload,
    run_experiment,
    run_simulation,
    sweep_linear,
    sweep_probabilistic,
)
from cellsched import channel, experiments
from cellsched.cli import (
    CURVE_HEADER,
    SURFACE_HEADER,
    TABLE_HEADER,
    TRACE_HEADER,
    WORKLOAD_HEADER,
    git_blob_sha1,
    write_curve_csv,
    write_manifest,
    write_ranking_csv,
    write_surface_csv,
    write_trace_csv,
    write_workload_csv,
)
from cellsched.experiments import RANKING_KINDS, from_dict, replicate, to_dict
from cellsched.metrics import AggregateReport, aggregate, summarize
from cellsched.simcore import TraceEvent
from cellsched.workload import Component

from conftest import make_flow


def tiny_config(horizon=400, replications=2, strategies=None, **kwargs) -> ExperimentConfig:
    tas = StrategySpec(kind="tas")
    sim = SimConfig(workload=WorkloadConfig(arrival_rate=0.09, horizon=horizon), strategy=tas)
    strategies = (tas,) if strategies is None else strategies
    return ExperimentConfig(sim, strategies, replications=replications, base_seed=1, **kwargs)


LINEAR_SWEEP = SweepSpec(kind="linear", alpha_max=1.0, alpha_step=0.5)


class TestExperimentConfig:
    def test_seed_sequence(self):
        config = tiny_config(replications=4)
        assert config.seeds == (1, 2, 3, 4)

    def test_needs_two_replications(self):
        with pytest.raises(ParameterError):
            tiny_config(replications=1)

    def test_rejects_a_non_int_replication_count(self):
        for replications in (2.5, 3.0, True):
            with pytest.raises(ParameterError, match="need an int >= 2"):
                replace(tiny_config(), replications=replications)

    def test_rejects_a_non_int_base_seed(self):
        for base_seed in (2.5, 3.0, True):
            with pytest.raises(ParameterError, match="base_seed=.* must be an int"):
                replace(tiny_config(), base_seed=base_seed)

    def test_defaults_describe_reference_setup(self):
        config = experiment_from_dict({})
        assert config.replications == 10
        assert config.sim.workload.horizon == 100_000
        assert config.sim.workload.arrival_rate == 0.09
        assert tuple(s.kind for s in config.strategies) == RANKING_KINDS
        assert config.sweep == SweepSpec() and config.output == "results"

    def test_default_sim_config_horizon(self):
        config = experiment_from_dict({"horizon": 5000})
        assert config.sim.workload.horizon == 5000
        assert config.sim.strategy == config.strategies[0]

    def test_defaults_are_the_decoded_config_file(self):
        config = experiment_from_dict({"base_seed": 7, "replications": 3, "horizon": 5000})
        workload = WorkloadConfig(horizon=5000)
        sim = SimConfig(workload=workload, strategy=StrategySpec(kind="T"))
        strategies = tuple(StrategySpec(kind=k) for k in RANKING_KINDS)
        assert config == ExperimentConfig(sim, strategies, replications=3, base_seed=7)

    def test_rejects_an_empty_lineup(self):
        # the loader rejects an empty list too; a library caller reaches the class
        with pytest.raises(ParameterError, match="strategies: the list is empty"):
            replace(tiny_config(), strategies=())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ParameterError, match="tas"):
            tiny_config(strategies=(StrategySpec(kind="tas"), StrategySpec(kind="tas")))
        # the same kind with different parameters is a different row
        tiny_config(
            strategies=(StrategySpec(kind="T"), StrategySpec(kind="T", c_const=2.0))
        )


def alpha_grid(alpha_max, step):
    return SweepSpec(alpha_max=alpha_max, alpha_step=step).alpha_grid


class TestSweepGrids:
    def test_default_alpha_grid(self):
        grid = SweepSpec().alpha_grid
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 2.0
        assert grid[3] == 0.3  # exact decimals, no float drift

    def test_alpha_grid_stops_at_alpha_max(self):
        # 2.0 / 0.3 = 6.67 steps: the grid ends at 1.8, not at a rounded 2.1
        assert alpha_grid(2.0, 0.3) == (0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
        assert alpha_grid(0.25, 0.1) == (0.0, 0.1, 0.2)
        assert alpha_grid(0.05, 0.1) == (0.0,)
        # tiny steps: the tolerance scales with the step, the rounding keeps 12 digits
        assert alpha_grid(1e-11, 3e-12) == (0.0, 3e-12, 6e-12, 9e-12)
        assert alpha_grid(0.0, 2e-13) == (0.0,)
        grid = alpha_grid(1e-12, 1e-13)
        assert len(grid) == 11 and grid[1] == 1e-13 and grid[-1] == 1e-12
        assert len(set(grid)) == len(grid)

    def test_alpha_grid_keeps_steps_that_divide_evenly(self):
        # 0.7 / 0.1 and 0.3 / 0.1 fall just short of a whole number in floats
        assert alpha_grid(0.7, 0.1) == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        assert alpha_grid(0.3, 0.1) == (0.0, 0.1, 0.2, 0.3)
        assert alpha_grid(1.0, 0.5) == (0.0, 0.5, 1.0)

    @given(st.floats(0.0, 5.0), st.floats(0.01, 1.0))
    def test_alpha_grid_is_the_multiples_up_to_alpha_max(self, alpha_max, step):
        grid = alpha_grid(alpha_max, step)
        assert grid[0] == 0.0
        assert grid[-1] <= alpha_max + 1e-9 < grid[-1] + step + 1e-9
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_simplex_grid_covers_all_compositions(self):
        grid = SweepSpec(simplex_step=0.1).simplex_grid
        assert len(grid) == 66
        assert all(abs(sum(p) - 1.0) < 1e-9 for p in grid)
        assert (1.0, 0.0, 0.0) in grid and (0.0, 0.0, 1.0) in grid

    def test_simplex_step_must_divide_one(self):
        with pytest.raises(ParameterError, match="divide 1"):
            SweepSpec(simplex_step=0.3)

    def test_sweep_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(kind="grid")
        with pytest.raises(ParameterError):
            SweepSpec(kind="linear", alpha_step=0.0)
        with pytest.raises(ParameterError):
            SweepSpec(kind="linear", alpha_step=math.inf)
        with pytest.raises(ParameterError):
            SweepSpec(kind="probabilistic", simplex_step=0.0)


def score_of(config: ExperimentConfig, spec: StrategySpec):
    """The aggregate score of ``spec`` alone on the config's seeds."""
    ((_, score),) = run_experiment(replace(config, strategies=(spec,)))
    return score


class TestScoring:
    def test_replication_reports_deterministic(self):
        config = tiny_config()
        specs = (StrategySpec(kind="tas"),)
        a = replicate(replace(config, replications=2), specs)
        b = replicate(replace(config, replications=2), specs)
        assert a == b

    def test_score_strategy_pairs_replications(self):
        config = tiny_config(replications=3, strategies=(StrategySpec(kind="das"),))
        ((label, score),) = run_experiment(config)
        assert label == "das"
        assert score.replications == 3

    def test_capability_error_carries_label(self):
        with pytest.raises(ParameterError, match="sectf"):
            config = tiny_config(strategies=(StrategySpec(kind="sectf"),))
            run_experiment(config)

    def test_run_experiment_sorts_descending(self):
        config = tiny_config(
            strategies=(StrategySpec(kind="tas"), StrategySpec(kind="max_ci"),
                        StrategySpec(kind="round_robin")),
        )
        rows = run_experiment(config)
        means = [score.log_alpt_mean for _, score in rows]
        assert means == sorted(means, reverse=True)


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
        by_label = dict(rows)
        for spec in specs:
            score = score_of(config, spec)
            assert by_label[spec.label()] == score
            assert score == self.separate_runs(config, spec)

    def test_sweep_linear(self, generated_seeds):
        config = tiny_config(replications=3, sweep=LINEAR_SWEEP)
        curve = sweep_linear(config)
        assert generated_seeds == [1, 2, 3]
        assert [alpha for alpha, _ in curve] == [0.0, 0.5, 1.0]
        for alpha, score in curve:
            spec = StrategySpec(
                kind="linear",
                children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
                weights=(1.0, alpha),
            )
            assert score == score_of(config, spec)

    def test_sweep_probabilistic(self, generated_seeds):
        config = tiny_config(
            replications=3, sweep=SweepSpec(kind="probabilistic", simplex_step=0.5)
        )
        surface = sweep_probabilistic(config)
        assert generated_seeds == [1, 2, 3]
        assert len(surface) == 6
        children = tuple(StrategySpec(kind=k) for k in ("T", "tas", "das"))
        for point, score in surface:
            spec = StrategySpec(kind="probabilistic", children=children, weights=point)
            assert score == score_of(config, spec)
            assert score == self.separate_runs(config, spec)


class TestSharedRates:
    """``replicate`` replays each seed's recorded rates; the reports do not change."""

    @pytest.mark.parametrize("buffer_mode", ["infinite", "tcp-refill"])
    @pytest.mark.parametrize("envelope_mode", ["literal", "time_varying"])
    def test_reports_equal_independent_runs(
        self, monkeypatch, envelope_mode, buffer_mode
    ):
        specs = [StrategySpec(kind=k) for k in RANKING_KINDS]
        running = []  # the strategy of each run, in call order
        later_draws = []  # stream draws made while strategies 2-7 ran
        real_run = experiments.run_simulation
        real_draw = channel.FlowRateStream.draw

        def tracking_run(config, **kwargs):
            running.append(config.strategy)
            return real_run(config, **kwargs)

        def counting_draw(stream, t):
            if running[-1] is not specs[0]:
                later_draws.append(t)
            return real_draw(stream, t)

        monkeypatch.setattr(experiments, "run_simulation", tracking_run)
        monkeypatch.setattr(channel.FlowRateStream, "draw", counting_draw)
        sim = SimConfig(
            workload=WorkloadConfig(arrival_rate=0.09, horizon=600),
            strategy=StrategySpec(kind="T"),
            channel=ChannelConfig(envelope_mode=envelope_mode),
            buffer=BufferModel(mode=buffer_mode),
        )
        reports = replicate(ExperimentConfig(sim, specs, replications=2, base_seed=4), specs)
        assert running == specs * 2
        # some later strategy kept a flow active past its record and extended it
        assert len(later_draws) > 0
        for spec, spec_reports in zip(specs, reports):
            for i, report in enumerate(spec_reports):
                workload = replace(sim.workload, seed=4 + i)
                result = run_simulation(replace(sim, workload=workload, strategy=spec))
                assert report == summarize(result.records, result.unfinished)


class TestSweeps:
    def test_linear_sweep_rows_follow_grid(self):
        curve = sweep_linear(tiny_config(sweep=LINEAR_SWEEP))
        assert [alpha for alpha, _ in curve] == [0.0, 0.5, 1.0]

    def test_linear_alpha_zero_equals_plain_tas(self):
        config = tiny_config(sweep=LINEAR_SWEEP)
        curve = sweep_linear(config)
        assert curve[0][0] == 0.0
        tas_score = score_of(config, StrategySpec(kind="tas"))
        assert curve[0][1] == tas_score  # exact: identical selections

    def test_probabilistic_vertex_equals_plain_child(self):
        config = tiny_config(sweep=SweepSpec(kind="probabilistic", simplex_step=1.0))
        surface = sweep_probabilistic(config)
        assert [point for point, _ in surface] == [
            (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)
        ]
        for point, score in surface:
            child = ("T", "tas", "das")[point.index(1.0)]
            # exact: a degenerate mixture plays its one child
            assert score == score_of(config, StrategySpec(kind=child))

    @pytest.mark.parametrize("kind", ["linear", "probabilistic"])
    def test_each_sweep_reads_its_own_fields_whatever_the_kind(self, kind):
        sweep = SweepSpec(kind=kind, alpha_max=0.2, alpha_step=0.1, simplex_step=0.5)
        config = tiny_config(sweep=sweep)
        assert [alpha for alpha, _ in sweep_linear(config)] == [0.0, 0.1, 0.2]
        assert len(sweep_probabilistic(config)) == 6

    def test_sweep_uses_config_grid(self):
        config = tiny_config(sweep=SweepSpec(kind="linear", alpha_max=0.2,
                                             alpha_step=0.1))
        curve = sweep_linear(config)
        assert [alpha for alpha, _ in curve] == [0.0, 0.1, 0.2]


class TestStrategySerialization:
    def test_atomic_round_trip(self):
        spec = StrategySpec(kind="TK", tk_variant="mean")
        assert to_dict(spec) == {
            "kind": "TK", "tk_variant": "mean", "mean_rate_mode": "empirical"
        }
        assert from_dict(StrategySpec, to_dict(spec)) == spec

    def test_string_shorthand(self):
        assert from_dict(StrategySpec, "tas") == StrategySpec(kind="tas")

    def test_combinator_round_trip(self):
        spec = StrategySpec(
            kind="linear",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(1.0, 0.5),
        )
        assert from_dict(StrategySpec, to_dict(spec)) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ParameterError):
            from_dict(StrategySpec, {"kind": "tas", "discount": 0.9})
        with pytest.raises(ParameterError, match="missing .*'kind'"):
            from_dict(StrategySpec, {"weights": [1.0]})


def _atomic_specs():
    plain = [k for k in RANKING_KINDS if k not in ("T", "TK")] + ["srpt"]
    modes = st.sampled_from(("empirical", "assigned"))
    return st.one_of(
        st.sampled_from(plain).map(lambda k: StrategySpec(kind=k)),
        st.builds(
            StrategySpec,
            kind=st.just("T"),
            c_const=st.floats(0.1, 10.0),
            mean_rate_mode=modes,
        ),
        st.just(StrategySpec(kind="TK")),  # tk_variant inst reads no mean rate
        st.builds(
            StrategySpec,
            kind=st.just("TK"),
            tk_variant=st.just("mean"),
            mean_rate_mode=modes,
        ),
    )


@st.composite
def _strategy_specs(draw):
    if draw(st.booleans()):
        return draw(_atomic_specs())
    children = tuple(draw(st.lists(_atomic_specs(), min_size=1, max_size=3)))
    n = len(children)
    raw = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        return StrategySpec(kind="linear", children=children, weights=tuple(raw))
    weights = tuple(w / sum(raw) for w in raw)
    return StrategySpec(kind="probabilistic", children=children, weights=weights)


@st.composite
def _experiment_configs(draw):
    """ExperimentConfigs the config file can express, the ones a manifest echoes."""
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    scales = draw(st.lists(st.floats(1.0, 1e5), min_size=len(raw), max_size=len(raw)))
    mixture = ParetoMixture(
        components=tuple(Component(w / sum(raw), m) for w, m in zip(raw, scales)),
        alpha=draw(st.floats(1.1, 10.0)),
    )
    workload = WorkloadConfig(
        arrival_rate=draw(st.floats(0.01, 1.0)),
        size_mixture=mixture,
        rate_lo_mult=draw(st.floats(0.1, 0.9)),
        rate_hi_mult=draw(st.floats(1.0, 5.0)),
        horizon=draw(st.integers(1, 10**6)),
    )
    channel = ChannelConfig(
        lo_coeff=draw(st.floats(0.1, 0.9)),
        hi_coeff=draw(st.floats(1.0, 2.0)),
        envelope_amplitude=draw(st.floats(0.1, 3.0)),
        envelope_freq=draw(st.floats(0.0, 0.1)),
        envelope_phase=draw(st.floats(-3.0, 3.0)),
        envelope_mode=draw(st.sampled_from(("literal", "time_varying"))),
    )
    window = draw(st.floats(1.0, 500.0))
    buffer = draw(
        st.sampled_from(
            (
                BufferModel(),
                BufferModel(mode="tcp-refill", rtt=3, initial_window=window,
                            max_window=2.0 * window),
            )
        )
    )
    strategies = tuple(
        draw(
            st.lists(
                _strategy_specs(), min_size=1, max_size=4, unique_by=lambda s: s.label()
            )
        )
    )
    drain = draw(st.booleans())
    try:
        sim = SimConfig(workload=workload, strategy=strategies[0], channel=channel,
                        buffer=buffer, drain_after_horizon=drain)
    except ParameterError as err:  # an envelope near 0 with which no flow can finish
        assume("no flow can finish" not in str(err))
        raise
    sweep = draw(
        st.just(SweepSpec())
        | st.builds(
            SweepSpec,
            kind=st.sampled_from(("linear", "probabilistic")),
            alpha_max=st.floats(0.0, 5.0),
            alpha_step=st.floats(0.01, 1.0),
            simplex_step=st.sampled_from((0.1, 0.25, 0.5, 1.0)),
        )
    )
    return ExperimentConfig(
        sim=sim,
        strategies=strategies,
        replications=draw(st.integers(2, 50)),
        base_seed=draw(st.integers(0, 2**31)),
        sweep=sweep,
        output=draw(st.sampled_from(("results", "out/run 1"))),
    )


class TestExperimentSerialization:
    def test_round_trip_preserves_config(self):
        config = experiment_from_dict({"base_seed": 7, "replications": 3, "horizon": 5000})
        rebuilt = experiment_from_dict(experiment_to_dict(config))
        assert rebuilt == config

    def test_strategy_strings_accepted(self):
        config = experiment_from_dict(
            {"horizon": 1000, "strategies": ["tas", {"kind": "TK"}]}
        )
        assert tuple(s.kind for s in config.strategies) == ("tas", "TK")

    def test_whole_numbers_in_float_form_fill_int_fields(self):
        # YAML 1.1 reads 1e3 as a string; a YAML float such as 7.0 already loads
        config = experiment_from_dict({"horizon": "1e3", "replications": "2e0",
                                       "base_seed": "7.0"})
        assert config.sim.workload.horizon == 1000
        assert (config.replications, config.base_seed) == (2, 7)

    def test_an_int_no_float_can_hold_decodes_exactly(self):
        # decoding only: no run reaches such a horizon
        big = 2**53 + 1  # 9007199254740993, read back from a float as ...992
        config = experiment_from_dict({"horizon": big, "base_seed": big})
        assert (config.sim.workload.horizon, config.base_seed) == (big, big)
        config = experiment_from_dict({"horizon": str(big), "replications": 10.0})
        assert (config.sim.workload.horizon, config.replications) == (big, 10)

    def test_unknown_keys_rejected_per_section(self):
        for payload in (
            {"mystery": 1},
            {"seed": 99},
            {"workload": {"burst": 2}},
            {"channel": {"fading": "rayleigh"}},
            {"buffer": {"drop_policy": "tail"}},
            {"sweep": {"kind": "linear", "resolution": 5}},
            {"workload": {"horizon": 5}},
            {"sim": {}},
            {"strategies": [{"kind": "T", "pareto_alpha": 3.0}]},
        ):
            with pytest.raises(ParameterError):
                experiment_from_dict(payload)

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"horizon": "abc"}, "config.horizon"),
            ({"horizon": 10.5}, "config.horizon"),
            ({"replications": True}, "config.replications"),
            ({"workload": {"arrival_rate": "fast"}}, "config.workload.arrival_rate"),
            ({"drain_after_horizon": "false"}, "config.drain_after_horizon"),
            ({"buffer": ["tcp-refill"]}, "config.buffer"),
            ({"strategies": "tas"}, "config.strategies"),
            ({"strategies": ["tas", {"weights": [1.0]}]}, "config.strategies[1]"),
            ({"strategies": [{"kind": "tas", "c_const": 2.0}]}, "config.strategies[0]"),
            (
                {"workload": {"size_mixture": {"components": [[0.5, 1], [0.5, 2]]}}},
                "config.workload.size_mixture.components[0]",
            ),
            ({"horizon": 0}, "config.workload: horizon=0 must be positive"),
            ({"horizon": -1}, "config.workload: horizon=-1 must be positive"),
            (
                {"channel": {"envelope_phase": -1.5712963267948965}},
                "config: channel.hi_coeff * envelope * workload.rate_hi_mult",
            ),
            # a tuple is converted item by item, as a list is
            (
                {"strategies": [{"kind": "linear", "children": ("tas", "das"),
                                 "weights": (1.0, math.inf)}]},
                "config.strategies[0].weights[1]: inf is not a valid finite float",
            ),
            (
                {"strategies": [{"kind": "linear", "children": ("tas", {"kind": "T", "x": 1}),
                                 "weights": (1.0, 1.0)}]},
                "config.strategies[0].children[1]: unknown fields ['x']",
            ),
            (
                {"workload": {"size_mixture": {"components": (
                    {"weight": 1.0, "scale_kb": math.nan},)}}},
                "config.workload.size_mixture.components[0].scale_kb",
            ),
            ({"buffer": {"mode": "infinite", "rtt": 5}},
             "config.buffer: buffer mode 'infinite' does not take rtt"),
            ({"horizon": "10.5"}, "config.horizon: '10.5' is not a valid int"),
            ({"horizon": "1e-3"}, "config.horizon: '1e-3' is not a valid int"),
            ({"horizon": "inf"}, "config.horizon: 'inf' is not a valid int"),
            # the fields the loader fixes are unknown in a file
            ({"sim": {}}, "config: unknown fields ['sim']"),
            ({"strategy": "tas"}, "config: unknown fields ['strategy']"),
            ({"workload": {"seed": 1}}, "config.workload: unknown fields ['seed']"),
            ({"workload": {"horizon": 5}}, "config.workload: unknown fields ['horizon']"),
        ],
    )
    def test_decode_failures_name_the_field(self, payload, where):
        with pytest.raises(ParameterError, match=re.escape(where)):
            experiment_from_dict(payload)

    def test_a_field_given_decoded_is_unknown_in_the_data(self):
        with pytest.raises(ParameterError, match=re.escape("w: unknown fields ['seed']")):
            from_dict(WorkloadConfig, {"seed": 3}, "w", seed=0)

    def test_loading_leaves_the_mapping_unchanged(self):
        workload = {"arrival_rate": 0.05}
        data = {"horizon": 1000, "workload": workload, "strategies": ["tas", "das"]}
        experiment_from_dict(data)
        assert data == {"horizon": 1000, "workload": {"arrival_rate": 0.05},
                        "strategies": ["tas", "das"]}
        assert data["workload"] is workload

    def test_tuples_decode_like_lists(self):
        linear = {"kind": "linear", "children": ["tas", "das"], "weights": [1.0, 0.5]}
        mixture = {"components": [{"weight": 0.5, "scale_kb": 300}] * 2}
        listed = {"strategies": [linear], "workload": {"size_mixture": mixture}}
        tupled = {
            "strategies": ({**linear, "children": ("tas", "das"), "weights": (1.0, 0.5)},),
            "workload": {"size_mixture": {"components": tuple(mixture["components"])}},
        }
        assert experiment_from_dict(tupled) == experiment_from_dict(listed)

    def test_mixture_components_stay_mappings(self):
        mixture = {"components": [{"weight": 1, "scale_kb": 300}], "alpha": 3}
        config = experiment_from_dict({"workload": {"size_mixture": mixture}})
        assert config.sim.workload.size_mixture == ParetoMixture(
            components=((1.0, 300.0),), alpha=3.0
        )
        echo = experiment_to_dict(config)["workload"]["size_mixture"]
        assert echo == {
            "components": [{"weight": 1.0, "scale_kb": 300.0}], "alpha": 3.0
        }

    @given(config=_experiment_configs())
    def test_round_trip_property(self, config):
        echo = json.loads(json.dumps(experiment_to_dict(config)))
        assert experiment_from_dict(echo) == config


class TestCsvEmission:
    @staticmethod
    def _aggregate(value: float) -> AggregateReport:
        return AggregateReport(
            alpt_mean=value, alpt_std=0.5, log_alpt_mean=math.log(value),
            log_alpt_std=0.01, replications=2, completed_total=10, unfinished_total=0,
        )

    def test_ranking_csv_layout(self, tmp_path):
        data = write_ranking_csv(tmp_path / "ranking.csv", [("tas", self._aggregate(4.0))])
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

    def test_returns_the_bytes_it_wrote(self, tmp_path):
        path = tmp_path / "sub" / "w.csv"  # the directory is made on the way
        flows = [make_flow(fid=i, arrival=i, size=600.0 + i) for i in range(3)]
        assert write_workload_csv(path, flows) == path.read_bytes()
        assert path.read_bytes().count(b"\r\n") == 4  # csv's own line endings

    def test_git_blob_sha1_known_value(self):
        # matches `git hash-object` on the same bytes
        assert git_blob_sha1(b"test\n") == "9daeafb9864cf43055ae93beb0afd6c7d144bfa4"

    def test_manifest_echoes_config_and_hashes(self, tmp_path):
        config = tiny_config(strategies=(StrategySpec(kind="tas"),))
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

    def test_manifest_echo_of_owned_parameters_reloads_equal(self, tmp_path):
        spec = StrategySpec(kind="T", c_const=2.0)
        config = tiny_config(strategies=(spec, StrategySpec(kind="T")))
        config = replace(config, sim=replace(config.sim, strategy=spec))
        path = write_manifest(tmp_path, "ranking", config, {})
        echo = json.loads(path.read_text())["config"]
        assert echo["strategies"][0] == {
            "kind": "T", "c_const": 2.0, "mean_rate_mode": "empirical"
        }
        assert experiment_from_dict(echo) == config


class TestWorkloadDump:
    def test_dump_matches_generator(self, tmp_path):
        config = tiny_config()
        flows = generate_workload(config.sim.workload)
        data = write_workload_csv(tmp_path / "w.csv", flows)
        assert len(data.decode().splitlines()) == len(flows) + 1
