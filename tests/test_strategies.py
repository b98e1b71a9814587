"""Index formulas, argmax selection, tie-breaking, and strategy combinators."""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate

from cellsched import (
    BufferModel,
    ChannelConfig,
    ParameterError,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    run_simulation,
)
from cellsched import simcore, strategies
from cellsched.simcore import FlowState
from cellsched.strategies import ATOMIC_KINDS, C_DEFAULT, select_client
from cellsched.workload import FlowSpec

from conftest import CountingRng, StubRng, index_of, make_view
from pareto_posterior import expected_file_size, pareto_posterior_density
from reference_model import INDICES

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
        # an infinite weight times an index of 0 is NaN, which no index may be
        for weight in (-1.0, math.inf):
            with pytest.raises(ParameterError, match="finite and non-negative"):
                StrategySpec(
                    kind="linear",
                    children=(StrategySpec(kind="T"), StrategySpec(kind="tas")),
                    weights=(weight, 1.0),
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

    def test_reads_mean_rate_truth_table(self):
        def spec(kind, **params):
            return StrategySpec(kind=kind, **params)

        table = [(spec(kind), False) for kind in ATOMIC_KINDS if kind not in ("T", "TK")]
        table += [
            (spec("T"), True),
            (spec("T", c_const=2.0), True),
            (spec("T", mean_rate_mode="assigned"), False),
            (spec("TK"), False),
            (spec("TK", tk_variant="mean"), True),
            (spec("TK", tk_variant="mean", mean_rate_mode="assigned"), False),
        ]
        atomic = list(table)
        for combinator in ("linear", "probabilistic"):
            for (a, reads_a), (b, reads_b) in itertools.product(atomic, repeat=2):
                combo = spec(combinator, children=(a, b), weights=(0.5, 0.5))
                table.append((combo, reads_a or reads_b))
        # a zero weight still counts: the loop then draws what it need not
        masked = spec("linear", children=(spec("tas"), spec("T")), weights=(1.0, 0.0))
        table.append((masked, True))
        assert [s.reads_mean_rate for s, _ in table] == [want for _, want in table]

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

    def test_c_times_mean_rate_is_the_default_bands_harmonic_mean(self):
        # C = (hi - lo) / ln(hi / lo) = 1 / E[1/U] for U uniform on the default band
        lo, hi = ChannelConfig().lo_coeff, ChannelConfig().hi_coeff
        assert C_DEFAULT == pytest.approx((hi - lo) / math.log(hi / lo), rel=1e-15)
        mean_inverse, _ = integrate.quad(lambda u: 1.0 / u / (hi - lo), lo, hi)
        assert C_DEFAULT == pytest.approx(1.0 / mean_inverse, rel=1e-12)

    @pytest.mark.parametrize("served", [0.5, 1.0, 500.0, 15827.8, 1e9])
    def test_shape_two_posterior_expects_served_bytes_more(self, served):
        # so served / (C * mean rate) is T's expected remaining time
        assert expected_file_size(served, 2.0) == 2.0 * served


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

    def test_tk_reads_mean_rate_mode_only_with_the_mean_variant(self):
        with pytest.raises(ParameterError, match="does not take mean_rate_mode"):
            StrategySpec(kind="TK", mean_rate_mode="assigned")
        StrategySpec(kind="TK", tk_variant="mean", mean_rate_mode="assigned")

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
        assert index_of(StrategySpec(kind="round_robin"), make_view(age=5)) == 0.2
        assert index_of(StrategySpec(kind="round_robin"), make_view(age=0)) == INF

    def test_max_ci_is_rate(self):
        assert index_of(StrategySpec(kind="max_ci"), make_view(rate=9.5)) == 9.5

    def test_tas_hand_value(self):
        view = make_view(rate=10.0, age=5)
        assert index_of(StrategySpec(kind="tas"), view) == 2.0

    def test_das_and_zero_denominator(self):
        das = StrategySpec(kind="das")
        assert index_of(das, make_view(rate=10.0, served=4.0)) == 2.5
        assert index_of(das, make_view(served=0.0)) == INF

    def test_pf_formula(self):
        view = make_view(rate=10.0, age=5, served=50.0)
        assert index_of(StrategySpec(kind="pf"), view) == 1.0
        assert index_of(StrategySpec(kind="pf"), make_view(served=0.0)) == INF

    def test_srpt_hand_value_and_capability(self):
        view = make_view(rate=10.0, served=90.0, true_size=100.0)
        srpt = StrategySpec(kind="srpt")
        assert index_of(srpt, view) == 1.0
        assert index_of(srpt, make_view(true_size=50.0, served=50.0)) == INF

    def test_sectf_is_rate_over_buffer(self):
        sectf = StrategySpec(kind="sectf")
        assert index_of(sectf, make_view(rate=10.0, buffer=4.0)) == 2.5
        assert index_of(sectf, make_view(buffer=0.0)) == INF

    def test_t_hand_value(self):
        view = make_view(served=1000.0, age=50, mean_rate_est=100.0)
        value = index_of(StrategySpec(kind="T"), view)
        assert value == pytest.approx(1000.0 / (50.0 + 1000.0 / (C_DEFAULT * 100.0)))
        assert value == pytest.approx(16.57, abs=0.02)

    def test_t_zero_cases(self):
        t = StrategySpec(kind="T")
        assert index_of(t, make_view(served=0.0, age=7)) == 0.0
        assert index_of(t, make_view(served=0.0, age=0)) == INF

    def test_t_and_tk_read_the_assigned_mean_rate(self):
        view = make_view(served=100.0, age=10, mean_rate_est=10.0, mean_rate=40.0)
        as_if_assigned = make_view(served=100.0, age=10, mean_rate_est=40.0)
        for kind, params in (("T", {}), ("TK", {"tk_variant": "mean"})):
            empirical = StrategySpec(kind=kind, **params)
            assigned = StrategySpec(kind=kind, mean_rate_mode="assigned", **params)
            value = index_of(assigned, view)
            assert value == index_of(empirical, as_if_assigned)
            assert value != index_of(empirical, view)

    def test_t_respects_c_const(self):
        view = make_view(served=100.0, age=10, mean_rate_est=10.0)
        loose = index_of(StrategySpec(kind="T", c_const=100.0), view)
        tight = index_of(StrategySpec(kind="T", c_const=0.1), view)
        assert loose > tight

    def test_tk_variants(self):
        view = make_view(rate=8.0, served=10.0, age=4, mean_rate_est=6.0)
        tk = StrategySpec(kind="TK")
        assert index_of(tk, view) == 20.0  # instantaneous default
        assert index_of(StrategySpec(kind="TK", tk_variant="mean"), view) == 15.0
        assert index_of(StrategySpec(kind="TK"), make_view(age=0)) == INF

    def test_linear_kind_combines_children(self):
        spec = StrategySpec(
            kind="linear",
            children=(StrategySpec(kind="max_ci"), StrategySpec(kind="tas")),
            weights=(2.0, 1.0),
        )
        view = make_view(rate=10.0, age=5)
        assert index_of(spec, view) == 2.0 * 10.0 + 2.0

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
        value = index_of(StrategySpec(kind=kind), view)
        assert not math.isnan(value)

    # zero, negative zero, subnormal and huge values, as numerators and denominators
    _edge_floats = st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 1e308)) | st.floats(
        min_value=0.0, max_value=1e12
    )

    @pytest.mark.parametrize("kind", sorted(INDICES))
    @given(
        age=st.sampled_from((0, 1)) | st.integers(min_value=0, max_value=10**6),
        served=_edge_floats,
        rate=_edge_floats,
        rate_sum=_edge_floats,
    )
    def test_ranking_indices_match_the_reference_bit_for_bit(
        self, kind, age, served, rate, rate_sum
    ):
        flow = FlowState(
            spec=FlowSpec(id=0, arrival_slot=0, file_size=1e12, mean_rate=1.0),
            served=served,
            rate=rate,
            rate_sum=rate_sum,
            age=age,
        )
        got = index_of(StrategySpec(kind=kind), flow)
        want = INDICES[kind](rate, age, served, rate_sum / (age + 1))
        assert struct.pack("<d", got) == struct.pack("<d", want)  # -0.0 != 0.0 here


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


def linear_spec(kinds, weights) -> StrategySpec:
    children = tuple(StrategySpec(kind=k) for k in kinds)
    return StrategySpec(kind="linear", children=children, weights=weights)


class TestLinearCombine:
    def test_zero_weight_masks_value(self):
        # pf = 99 * 1 / 33 = 3, max_ci = 99
        view = make_view(rate=99.0, age=1, served=33.0)
        assert index_of(linear_spec(("pf", "max_ci"), (1.0, 0.0)), view) == 3.0
        # max_ci = 3, round_robin = 1 / 0 = +inf
        view = make_view(rate=3.0, age=0)
        spec = linear_spec(("max_ci", "round_robin"), (1.0, 0.0))
        assert index_of(spec, view) == 3.0

    def test_weighted_sum(self):
        # pf = 12 * 3 / 12 = 3, tas = 12 / 3 = 4
        view = make_view(rate=12.0, age=3, served=12.0)
        assert index_of(linear_spec(("pf", "tas"), (1.0, 2.0)), view) == 11.0

    def test_infinity_propagates_through_positive_weight(self):
        # das = 5 / 0 = +inf, max_ci = 5
        view = make_view(rate=5.0, served=0.0)
        assert index_of(linear_spec(("das", "max_ci"), (1.0, 1.0)), view) == INF


class TestDrawChild:
    @staticmethod
    def expected(weights, u):
        """The mixture rule: u in [sum before i, sum through i) picks child i; a u
        at or above the total picks the last child with a positive weight."""
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return max(i for i, w in enumerate(weights) if w > 0.0)

    @pytest.mark.parametrize(
        "weights",
        [
            (1.0,),
            (0.3, 0.7),
            (0.0, 1.0),
            (0.2, 0.0, 0.5, 0.3),
            (0.1,) * 10,
            # short of 1 within the tolerance: u = 0.9999999996 once picked the 0 weight
            (0.7, 0.2999999995, 0.0),
            (0.5, 0.0, 0.4999999995, 0.0, 0.0),
        ],
    )
    def test_uniform_at_and_around_each_running_sum(self, weights, monkeypatch):
        children = tuple(StrategySpec(kind="tas") for _ in weights)  # told apart by identity
        spec = StrategySpec(kind="probabilistic", children=children, weights=weights)

        def drawn(child, flow):  # the record with child i's position as its id wins
            return float(flow.spec.id == next(i for i, c in enumerate(children) if c is child))

        monkeypatch.setitem(strategies._INDEX_FUNCS, "tas", drawn)
        flows = [make_view(id=i) for i in range(len(weights) + 1)]  # never fewer than two
        sums = list(itertools.accumulate(weights))
        uniforms = {0.0, 1.0 - 2.0**-53, math.nextafter(sums[-1], INF)}
        for s in sums:
            uniforms |= {s, math.nextafter(s, -INF)}
        for u in sorted(u for u in uniforms if u >= 0.0):  # random() gives [0, 1)
            i = self.expected(weights, u)
            assert weights[i] > 0.0
            assert select_client(spec, flows, StubRng([u])) is flows[i], u


class TestSelectClient:
    def test_empty_views_is_none(self):
        assert select_client(StrategySpec(kind="tas"), []) is None

    def test_direct_argmax(self):
        views = [make_view(id=0, rate=5.0), make_view(id=1, rate=9.0)]
        assert select_client(StrategySpec(kind="max_ci"), views).spec.id == 1

    def test_brand_new_tie_goes_to_smaller_id(self):
        views = [
            make_view(id=3, age=0, served=0.0),
            make_view(id=1, age=0, served=0.0),
        ]
        assert select_client(StrategySpec(kind="tas"), views).spec.id == 1

    def test_tie_prefers_least_recently_served(self):
        views = [
            make_view(id=0, t=10, rate=10.0, age=5, last_served=9),
            make_view(id=1, t=10, rate=10.0, age=5, last_served=4),
        ]
        assert select_client(StrategySpec(kind="tas"), views).spec.id == 1

    def test_tie_prefers_never_served(self):
        views = [
            make_view(id=0, t=10, rate=10.0, age=5, last_served=4),
            make_view(id=2, t=10, rate=10.0, age=5, last_served=None),
        ]
        assert select_client(StrategySpec(kind="tas"), views).spec.id == 2

    def test_value_beats_recency(self):
        views = [
            make_view(id=0, rate=11.0, age=1, last_served=9),
            make_view(id=1, rate=10.0, age=1, last_served=None),
        ]
        assert select_client(StrategySpec(kind="tas"), views).spec.id == 0

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
        assert select_client(spec, views, StubRng([0.29])).spec.id == 1  # max rate
        assert select_client(spec, views, StubRng([0.31])).spec.id == 0  # min age

    def test_returns_one_of_the_given_records(self):
        rng = random.Random(29)
        children = (StrategySpec(kind="tas"), StrategySpec(kind="srpt"))
        for kind in strategies.KINDS:
            combinator = kind in strategies.COMBINATOR_KINDS
            spec = StrategySpec(kind=kind, children=children if combinator else (),
                                weights=(0.5, 0.5) if combinator else ())
            for n in range(6):
                flows = [make_view(id=i, rate=rng.choice((5.0, 10.0)), age=rng.randint(0, 3),
                                   served=rng.choice((0.0, 50.0)),
                                   last_served=rng.choice((None, 2, 4)))
                         for i in range(n)]
                chosen = select_client(spec, flows, CountingRng(n))
                assert any(f is chosen for f in flows) if flows else chosen is None, kind

    def test_single_view_fast_path_matches_argmax(self):
        assert select_client(StrategySpec(kind="pf"), [make_view(id=7)]).spec.id == 7

    def test_zero_or_one_view_calls_no_index(self, monkeypatch):
        def refuse(spec, flow):
            raise AssertionError("index evaluated without a choice to make")

        for kind in ("tas", "das"):
            monkeypatch.setitem(strategies._INDEX_FUNCS, kind, refuse)
        mixture = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(0.5, 0.5),
        )
        for spec in (StrategySpec(kind="tas"), mixture):
            assert select_client(spec, [], StubRng([0.2])) is None
            assert select_client(spec, [make_view(id=4)], StubRng([0.7])).spec.id == 4

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
        rates=st.lists(st.sampled_from((5.0, 10.0)), min_size=5, max_size=5),
    )
    def test_tie_winner_independent_of_order(self, kind, age, served, lasts, ids, rates):
        # records that differ in id, last_served and a rate from a two-value set:
        # indices that read the rate tie within each rate, the others tie throughout
        flows = [
            make_view(id=fid, age=age, served=served, last_served=last, rate=rate)
            for fid, last, rate in zip(ids, lasts, rates)
        ]
        spec = StrategySpec(kind=kind)

        def rank(f):  # larger first: index, least recently served, smallest id
            never = f.last_served is None
            return (index_of(spec, f), never, -(f.last_served or 0), -f.spec.id)

        expected = max(flows, key=rank).spec.id
        for order in itertools.permutations(flows):
            assert select_client(spec, list(order)).spec.id == expected


class TestRoundRobin:
    def test_serves_the_youngest_eligible_flow(self, monkeypatch):
        # the index 1/age is largest for the flow that arrived last, so round_robin
        # is preemptive last-come-first-served: on configs drawn like acceptance
        # criterion 9's, every contended pick is among the latest arrivals it was
        # handed, and flows that arrived in the same slot go to the tie rule
        picks = {"infinite": [], "tcp-refill": []}  # per pick: was it a latest arrival?
        select = simcore.select_client

        def spy(spec, flows, rng=None):
            chosen = select(spec, flows, rng)
            if len(flows) > 1:
                latest = max(f.spec.arrival_slot for f in flows)
                picks[mode].append(chosen.spec.arrival_slot == latest)
            return chosen

        monkeypatch.setattr(simcore, "select_client", spy)
        rng = random.Random(10)
        for case in range(200):
            workload = WorkloadConfig(
                arrival_rate=rng.uniform(0.05, 0.4), horizon=rng.randint(20, 80), seed=case
            )
            buffer = BufferModel()
            if rng.random() < 0.5:
                initial = rng.uniform(50.0, 200.0)
                buffer = BufferModel(mode="tcp-refill", rtt=rng.randint(0, 8),
                                     initial_window=initial,
                                     max_window=initial * rng.uniform(1.0, 4.0))
            mode = buffer.mode
            run_simulation(SimConfig(workload=workload, buffer=buffer,
                                     strategy=StrategySpec(kind="round_robin")))
        # about 1400 infinite and 36000 tcp-refill contested picks
        for mode, seen in picks.items():
            assert len(seen) >= 1000, (mode, len(seen))
            assert all(seen), mode
