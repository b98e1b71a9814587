"""Workload generation: mixture arithmetic, sampler laws, determinism."""

from __future__ import annotations

import math
import random

import pytest
from scipy import stats

from cellsched import ParameterError, ParetoMixture, WorkloadConfig, generate_workload
from cellsched.workload import (
    FlowSpec,
    mean_rate_band,
    mixture_mean,
    sample_file_size,
    sample_interarrival,
)

from conftest import StubRng

REFERENCE_MIXTURE_MEAN = 142450.0 / 9.0  # = 15827.777...


class TestParetoMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ParetoMixture(components=((0.5, 100.0), (0.4, 200.0)), alpha=2.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ParameterError):
            ParetoMixture(components=((1.5, 100.0), (-0.5, 200.0)), alpha=2.0)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ParameterError):
            ParetoMixture(components=((1.0, 0.0),), alpha=2.0)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            ParetoMixture(components=(), alpha=2.0)

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ParameterError):
            ParetoMixture(components=((1.0, 100.0),), alpha=1.0)

    def test_default_mixture_shape(self):
        mix = ParetoMixture()
        assert mix.alpha == 5.5
        assert mix.components == (
            (0.4, 500.0),
            (0.3, 5000.0),
            (0.2, 25000.0),
            (0.1, 62500.0),
        )


class TestMixtureMean:
    def test_single_component_hand_value(self):
        mix = ParetoMixture(components=((1.0, 500.0),), alpha=5.5)
        assert mixture_mean(mix) == pytest.approx(611.1111111, abs=1e-6)

    def test_degenerate_pareto_limit(self):
        mix = ParetoMixture(components=((1.0, 1.0),), alpha=1e9)
        assert mixture_mean(mix) == pytest.approx(1.0, abs=1e-6)

    def test_default_mixture_mean(self):
        assert mixture_mean(ParetoMixture()) == pytest.approx(
            REFERENCE_MIXTURE_MEAN, rel=1e-12
        )


class TestSampleInterarrival:
    def test_inverts_exponential_cdf(self):
        rng = StubRng([1.0 - math.exp(-0.9)])
        assert sample_interarrival(rng, 0.09) == pytest.approx(10.0, rel=1e-12)

    def test_empirical_mean(self):
        rng = random.Random(101)
        n = 10**6
        total = sum(sample_interarrival(rng, 0.09) for _ in range(n))
        assert total / n == pytest.approx(1.0 / 0.09, abs=0.1)


class TestSampleFileSize:
    def test_pareto_lower_bound(self):
        mix = ParetoMixture(components=((1.0, 500.0),), alpha=5.5)
        rng = StubRng([0.0, 0.0])  # component pick, then u -> 1
        assert sample_file_size(rng, mix) == pytest.approx(500.0, rel=1e-12)

    def test_inverse_cdf_hand_value(self):
        mix = ParetoMixture(components=((1.0, 500.0),), alpha=5.5)
        rng = StubRng([0.0, 1.0 - 2.0**-5.5])
        assert sample_file_size(rng, mix) == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize(
        "u", [0.0, math.nextafter(0.5, 0.0), 0.5, 0.99999999995, 1.0 - 2.0**-53]
    )
    def test_zero_weight_component_is_never_drawn(self, u):
        # the weights sum to 1 - 1e-10, within the tolerance; a pick at or above
        # that total must go to the last positive weight, as for a probabilistic
        # strategy, not to the last component
        mix = ParetoMixture(
            components=((0.5, 100.0), (0.0, 1e6), (0.4999999999, 200.0), (0.0, 1e6))
        )
        rng = StubRng([u, 0.0])  # component pick, then u -> 1: the scale itself
        assert sample_file_size(rng, mix) == (100.0 if u < 0.5 else 200.0)

    def test_empirical_mean_default_mixture(self):
        rng = random.Random(7)
        mix = ParetoMixture()
        n = 10**6
        total = sum(sample_file_size(rng, mix) for _ in range(n))
        assert total / n == pytest.approx(REFERENCE_MIXTURE_MEAN, rel=0.01)

    def test_never_below_component_floor(self):
        rng = random.Random(3)
        mix = ParetoMixture()
        floor = min(m for _, m in mix.components)
        assert all(sample_file_size(rng, mix) >= floor for _ in range(5000))

    def test_single_component_kolmogorov_smirnov(self):
        alpha, m = 5.5, 500.0
        mix = ParetoMixture(components=((1.0, m),), alpha=alpha)
        rng = random.Random(11)
        samples = [sample_file_size(rng, mix) for _ in range(10**5)]

        def cdf(x):
            return 1.0 - (m / x) ** alpha

        result = stats.kstest(samples, cdf)
        assert result.pvalue > 0.01


class TestSampleMeanRate:
    def test_band_edges(self):
        # 1/3 and 3 times the offered load 0.09 * REFERENCE_MIXTURE_MEAN
        lo, hi = mean_rate_band(WorkloadConfig())
        assert lo == pytest.approx(474.83, abs=0.01)
        assert hi == pytest.approx(4273.50, abs=0.01)

    def test_empirical_mean_is_band_midpoint(self):
        # about 90k flows: 1 % of the midpoint is over six standard errors
        config = WorkloadConfig(horizon=10**6, seed=13)
        lo, hi = mean_rate_band(config)
        rates = [flow.mean_rate for flow in generate_workload(config)]
        assert all(lo <= r <= hi for r in rates)
        assert sum(rates) / len(rates) == pytest.approx(2374.2, rel=0.01)


class TestGenerateWorkload:
    def test_deterministic_given_seed(self):
        config = WorkloadConfig(arrival_rate=0.09, horizon=5000, seed=42)
        assert generate_workload(config) == generate_workload(config)

    def test_different_seeds_differ(self):
        base = WorkloadConfig(arrival_rate=0.09, horizon=5000, seed=1)
        other = WorkloadConfig(arrival_rate=0.09, horizon=5000, seed=2)
        assert generate_workload(base) != generate_workload(other)

    def test_flow_count_matches_poisson_oracle(self):
        config = WorkloadConfig(arrival_rate=0.09, horizon=100_000, seed=5)
        flows = generate_workload(config)
        assert 8700 <= len(flows) <= 9300

    def test_flow_fields_within_contracts(self):
        config = WorkloadConfig(arrival_rate=0.09, horizon=20_000, seed=9)
        flows = generate_workload(config)
        lam_abar = 0.09 * REFERENCE_MIXTURE_MEAN
        assert [f.id for f in flows] == list(range(len(flows)))
        for prev, cur in zip(flows, flows[1:]):
            assert cur.arrival_slot >= prev.arrival_slot
        for flow in flows:
            assert 0 <= flow.arrival_slot < config.horizon
            assert flow.file_size >= 500.0
            assert lam_abar / 3.0 <= flow.mean_rate <= 3.0 * lam_abar

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            WorkloadConfig(arrival_rate=0.0)
        for horizon in (0, -1):
            with pytest.raises(ParameterError, match=f"horizon={horizon} must be positive"):
                WorkloadConfig(arrival_rate=0.09, horizon=horizon)
        with pytest.raises(ParameterError):
            WorkloadConfig(arrival_rate=0.09, rate_lo_mult=2.0, rate_hi_mult=1.0)


class TestFlowSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            FlowSpec(id=0, arrival_slot=-1, file_size=10.0, mean_rate=1.0)
        with pytest.raises(ParameterError):
            FlowSpec(id=0, arrival_slot=0, file_size=0.0, mean_rate=1.0)
        with pytest.raises(ParameterError):
            FlowSpec(id=0, arrival_slot=0, file_size=10.0, mean_rate=0.0)
