"""Index formulas, argmax selection, tie-breaking, and strategy combinators."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate

from cellsched import (
    ParameterError,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    compute_index,
    expected_file_size,
    linear_combine,
    pareto_posterior_density,
    run_simulation,
    select_client,
)
from cellsched.strategies import ATOMIC_KINDS, C_DEFAULT

from conftest import CountingRng, StubRng, make_view

INF = math.inf


class TestStrategySpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            StrategySpec(kind="fifo")

    def test_atomic_takes_no_children(self):
        with pytest.raises(ParameterError):
            StrategySpec(
                kind="tas", children=(StrategySpec(kind="das"),), weights=(1.0,)
            )

    def test_combinator_needs_children(self):
        with pytest.raises(ParameterError):
            StrategySpec(kind="linear")

    def test_children_and_weights_must_align(self):
        with pytest.raises(ParameterError):
            StrategySpec(
                kind="linear", children=(StrategySpec(kind="tas"),), weights=(1.0, 2.0)
            )

    def test_children_must_be_atomic(self):
        inner = StrategySpec(
            kind="linear", children=(StrategySpec(kind="tas"),), weights=(1.0,)
        )
        with pytest.raises(ParameterError):
            StrategySpec(kind="linear", children=(inner,), weights=(1.0,))

    def test_linear_needs_a_positive_weight(self):
        with pytest.raises(ParameterError):
            StrategySpec(
                kind="linear",
                children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
                weights=(0.0, 0.0),
            )

    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            StrategySpec(
                kind="linear", children=(StrategySpec(kind="tas"),), weights=(-1.0,)
            )

    def test_mixture_probabilities_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            StrategySpec(
                kind="probabilistic",
                children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
                weights=(0.6, 0.5),
            )

    def test_rejects_bad_constants(self):
        with pytest.raises(ParameterError):
            StrategySpec(kind="T", c_const=0.0)
        with pytest.raises(ParameterError):
            StrategySpec(kind="TK", tk_variant="harmonic")
        with pytest.raises(ParameterError):
            StrategySpec(kind="T", mean_rate_mode="oracle")

    def test_capability_flags(self):
        assert StrategySpec(kind="sectf").uses_buffer
        combo = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="srpt"), StrategySpec(kind="sectf")),
            weights=(0.5, 0.5),
        )
        assert combo.uses_buffer

    def test_labels(self):
        assert StrategySpec(kind="T").label() == "T"
        lin = StrategySpec(
            kind="linear",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(1.0, 0.5),
        )
        assert lin.label() == "linear(1*tas+0.5*das)"
        mix = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="T"), StrategySpec(kind="tas")),
            weights=(0.25, 0.75),
        )
        assert mix.label() == "prob(T:0.25,tas:0.75)"

    def test_default_c_constant(self):
        assert C_DEFAULT == pytest.approx(0.6 / math.log(13.0 / 7.0), rel=1e-15)
        assert StrategySpec(kind="T").c_const == C_DEFAULT


class TestOwnedParameters:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("tas", {"c_const": 2.0}),
            ("tas", {"mean_rate_mode": "assigned"}),
            ("T", {"tk_variant": "mean"}),
            ("TK", {"c_const": 2.0}),
        ],
    )
    def test_non_owned_parameter_raises(self, kind, params):
        with pytest.raises(ParameterError, match=f"{kind} does not take"):
            StrategySpec(kind=kind, **params)

    def test_combinator_owns_no_index_parameters(self):
        with pytest.raises(ParameterError, match="linear does not take mean_rate_mode"):
            StrategySpec(
                kind="linear",
                children=(StrategySpec(kind="T"),),
                weights=(1.0,),
                mean_rate_mode="assigned",
            )

    def test_labels_show_non_default_owned_parameters(self):
        assigned = StrategySpec(kind="T", mean_rate_mode="assigned")
        specs = [
            StrategySpec(kind="T"),
            StrategySpec(kind="T", c_const=2.0),
            assigned,
            StrategySpec(kind="T", c_const=2.0, mean_rate_mode="assigned"),
            StrategySpec(kind="TK"),
            StrategySpec(kind="TK", tk_variant="mean"),
            StrategySpec(kind="linear", children=(assigned,), weights=(1.0,)),
            StrategySpec(
                kind="linear", children=(StrategySpec(kind="T"),), weights=(1.0,)
            ),
        ]
        labels = [spec.label() for spec in specs]
        assert labels == [
            "T",
            "T(c_const=2)",
            "T(mean_rate_mode=assigned)",
            "T(c_const=2,mean_rate_mode=assigned)",
            "TK",
            "TK(tk_variant=mean)",
            "linear(1*T(mean_rate_mode=assigned))",
            "linear(1*T)",
        ]

    def test_linear_child_reads_its_own_mean_rate_mode(self):
        workload = WorkloadConfig(
            arrival_rate=0.12, rate_lo_mult=0.2, rate_hi_mult=1.8, horizon=1500, seed=3
        )

        def trace(spec):
            config = SimConfig(workload=workload, strategy=spec)
            return run_simulation(config, collect_trace=True).trace

        assigned = StrategySpec(kind="T", mean_rate_mode="assigned")
        linear = StrategySpec(kind="linear", children=(assigned,), weights=(1.0,))
        assert trace(assigned) != trace(StrategySpec(kind="T"))
        assert trace(linear) == trace(assigned)


class TestComputeIndex:
    def test_round_robin_is_inverse_age(self):
        assert compute_index(StrategySpec(kind="round_robin"), make_view(age=5)) == 0.2
        assert compute_index(StrategySpec(kind="round_robin"), make_view(age=0)) == INF

    def test_max_ci_is_rate(self):
        assert compute_index(StrategySpec(kind="max_ci"), make_view(rate=9.5)) == 9.5

    def test_tas_hand_value(self):
        view = make_view(rate=10.0, age=5)
        assert compute_index(StrategySpec(kind="tas"), view) == 2.0

    def test_das_and_zero_denominator(self):
        das = StrategySpec(kind="das")
        assert compute_index(das, make_view(rate=10.0, served=4.0)) == 2.5
        assert compute_index(das, make_view(served=0.0)) == INF

    def test_pf_formula(self):
        view = make_view(rate=10.0, age=5, served=50.0)
        assert compute_index(StrategySpec(kind="pf"), view) == 1.0
        assert compute_index(StrategySpec(kind="pf"), make_view(served=0.0)) == INF

    def test_srpt_hand_value_and_capability(self):
        view = make_view(rate=10.0, served=90.0, true_size=100.0)
        srpt = StrategySpec(kind="srpt")
        assert compute_index(srpt, view) == 1.0
        assert compute_index(srpt, make_view(true_size=50.0, served=50.0)) == INF

    def test_sectf_is_rate_over_buffer(self):
        sectf = StrategySpec(kind="sectf")
        assert compute_index(sectf, make_view(rate=10.0, buffer=4.0)) == 2.5
        assert compute_index(sectf, make_view(buffer=0.0)) == INF

    def test_t_hand_value(self):
        view = make_view(served=1000.0, age=50, mean_rate_est=100.0)
        value = compute_index(StrategySpec(kind="T"), view)
        assert value == pytest.approx(1000.0 / (50.0 + 1000.0 / (C_DEFAULT * 100.0)))
        assert value == pytest.approx(16.57, abs=0.02)

    def test_t_zero_cases(self):
        t = StrategySpec(kind="T")
        assert compute_index(t, make_view(served=0.0, age=7)) == 0.0
        assert compute_index(t, make_view(served=0.0, age=0)) == INF

    def test_t_and_tk_read_the_assigned_mean_rate(self):
        view = make_view(served=100.0, age=10, mean_rate_est=10.0, mean_rate=40.0)
        as_if_assigned = make_view(served=100.0, age=10, mean_rate_est=40.0)
        for kind, params in (("T", {}), ("TK", {"tk_variant": "mean"})):
            empirical = StrategySpec(kind=kind, **params)
            assigned = StrategySpec(kind=kind, mean_rate_mode="assigned", **params)
            value = compute_index(assigned, view)
            assert value == compute_index(empirical, as_if_assigned)
            assert value != compute_index(empirical, view)

    def test_t_respects_c_const(self):
        view = make_view(served=100.0, age=10, mean_rate_est=10.0)
        loose = compute_index(StrategySpec(kind="T", c_const=100.0), view)
        tight = compute_index(StrategySpec(kind="T", c_const=0.1), view)
        assert loose > tight

    def test_tk_variants(self):
        view = make_view(rate=8.0, served=10.0, age=4, mean_rate_est=6.0)
        tk = StrategySpec(kind="TK")
        assert compute_index(tk, view) == 20.0  # instantaneous default
        assert compute_index(StrategySpec(kind="TK", tk_variant="mean"), view) == 15.0
        assert compute_index(StrategySpec(kind="TK"), make_view(age=0)) == INF

    def test_linear_kind_combines_children(self):
        spec = StrategySpec(
            kind="linear",
            children=(StrategySpec(kind="max_ci"), StrategySpec(kind="tas")),
            weights=(2.0, 1.0),
        )
        view = make_view(rate=10.0, age=5)
        assert compute_index(spec, view) == 2.0 * 10.0 + 2.0

    def test_probabilistic_has_no_single_index(self):
        spec = StrategySpec(
            kind="probabilistic", children=(StrategySpec(kind="tas"),), weights=(1.0,)
        )
        with pytest.raises(ParameterError):
            compute_index(spec, make_view())

    @given(
        kind=st.sampled_from(ATOMIC_KINDS),
        age=st.integers(min_value=0, max_value=10**6),
        served=st.floats(min_value=0.0, max_value=1e9),
        buffer=st.floats(min_value=0.0, max_value=1e9),
        rate=st.floats(min_value=0.0, max_value=1e9),
        mean_est=st.floats(min_value=0.0, max_value=1e9),
        extra=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_never_nan(self, kind, age, served, buffer, rate, mean_est, extra):
        assume(served + extra > 0.0)  # a file size of 0 is no valid flow
        view = make_view(
            age=age,
            served=served,
            buffer=buffer,
            rate=rate,
            mean_rate_est=mean_est,
            true_size=served + extra,
        )
        value = compute_index(StrategySpec(kind=kind), view)
        assert not math.isnan(value)


class TestExpectedFileSize:
    def test_hand_value(self):
        assert expected_file_size(1000.0, 5.5) == pytest.approx(1222.22, abs=0.01)

    def test_nothing_observed(self):
        assert expected_file_size(0.0, 5.5) == 0.0

    def test_prefactor_limit(self):
        assert expected_file_size(777.0, 1e9) == pytest.approx(777.0, rel=1e-5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            expected_file_size(100.0, 1.0)
        with pytest.raises(ParameterError):
            expected_file_size(-1.0, 5.5)


class TestParetoPosteriorDensity:
    def test_normalizes_to_one(self):
        total, _ = integrate.quad(
            pareto_posterior_density, 1000.0, math.inf, args=(1000.0, 5.5)
        )
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_mean_matches_expected_file_size(self):
        mean, _ = integrate.quad(
            lambda a: a * pareto_posterior_density(a, 1000.0, 5.5),
            1000.0,
            math.inf,
        )
        assert mean == pytest.approx(expected_file_size(1000.0, 5.5), rel=1e-8)

    def test_zero_below_observed(self):
        assert pareto_posterior_density(500.0, 1000.0, 5.5) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            pareto_posterior_density(10.0, 0.0, 5.5)
        with pytest.raises(ParameterError):
            pareto_posterior_density(10.0, 5.0, 1.0)


class TestLinearCombine:
    def test_zero_weight_masks_value(self):
        assert linear_combine((1.0, 0.0), (3.0, 99.0)) == 3.0
        assert linear_combine((1.0, 0.0), (3.0, INF)) == 3.0

    def test_weighted_sum(self):
        assert linear_combine((1.0, 2.0), (3.0, 4.0)) == 11.0

    def test_infinity_propagates_through_positive_weight(self):
        assert linear_combine((1.0, 1.0), (INF, 5.0)) == INF

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            linear_combine((1.0,), (1.0, 2.0))


class TestSelectClient:
    def test_empty_views_is_none(self):
        assert select_client(StrategySpec(kind="tas"), []) is None

    def test_direct_argmax(self):
        views = [make_view(id=0, rate=5.0), make_view(id=1, rate=9.0)]
        assert select_client(StrategySpec(kind="max_ci"), views) == 1

    def test_brand_new_tie_goes_to_smaller_id(self):
        views = [
            make_view(id=3, age=0, served=0.0),
            make_view(id=1, age=0, served=0.0),
        ]
        assert select_client(StrategySpec(kind="tas"), views) == 1

    def test_tie_prefers_least_recently_served(self):
        views = [
            make_view(id=0, t=10, rate=10.0, age=5, last_served=9),
            make_view(id=1, t=10, rate=10.0, age=5, last_served=4),
        ]
        assert select_client(StrategySpec(kind="tas"), views) == 1

    def test_tie_prefers_never_served(self):
        views = [
            make_view(id=0, t=10, rate=10.0, age=5, last_served=4),
            make_view(id=2, t=10, rate=10.0, age=5, last_served=None),
        ]
        assert select_client(StrategySpec(kind="tas"), views) == 2

    def test_value_beats_recency(self):
        views = [
            make_view(id=0, rate=11.0, age=1, last_served=9),
            make_view(id=1, rate=10.0, age=1, last_served=None),
        ]
        assert select_client(StrategySpec(kind="tas"), views) == 0

    def test_probabilistic_consumes_one_draw_per_call(self):
        spec = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(0.5, 0.5),
        )
        views = [make_view(id=0), make_view(id=1, rate=20.0)]
        for views_arg in ([], [make_view(id=0)], views):
            rng = CountingRng(0)
            select_client(spec, views_arg, rng)
            assert rng.calls == 1

    def test_atomic_consumes_no_draws(self):
        rng = CountingRng(0)
        select_client(StrategySpec(kind="tas"), [make_view()], rng)
        assert rng.calls == 0

    def test_mixture_routes_by_threshold(self):
        # u < 0.3 -> first child (max_ci), else second (round_robin)
        spec = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="max_ci"), StrategySpec(kind="round_robin")),
            weights=(0.3, 0.7),
        )
        young_slow = make_view(id=0, rate=1.0, age=1)
        old_fast = make_view(id=1, rate=9.0, age=9)
        views = [young_slow, old_fast]
        assert select_client(spec, views, StubRng([0.29])) == 1  # max rate
        assert select_client(spec, views, StubRng([0.31])) == 0  # min age

    def test_single_view_fast_path_matches_argmax(self):
        assert select_client(StrategySpec(kind="pf"), [make_view(id=7)]) == 7

    @given(
        kind=st.sampled_from(ATOMIC_KINDS),
        age=st.integers(min_value=0, max_value=3),
        served=st.sampled_from((0.0, 50.0)),
        lasts=st.lists(
            st.none() | st.integers(min_value=0, max_value=4), min_size=2, max_size=5
        ),
        ids=st.lists(
            st.integers(min_value=0, max_value=50), min_size=5, max_size=5, unique=True
        ),
    )
    def test_tie_winner_independent_of_order(self, kind, age, served, lasts, ids):
        # identical records but for id and last_served: every index ties
        flows = [
            make_view(id=fid, age=age, served=served, last_served=last)
            for fid, last in zip(ids, lasts)
        ]
        never_first = min(
            flows,
            key=lambda f: (f.last_served is not None, f.last_served or 0, f.spec.id),
        )
        spec = StrategySpec(kind=kind)
        for order in itertools.permutations(flows):
            assert select_client(spec, list(order)) == never_first.spec.id
