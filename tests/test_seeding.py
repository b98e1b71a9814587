"""RNG stream derivation: distinct, deterministic, collision-free."""

from __future__ import annotations

import itertools

import pytest

from cellsched import ParameterError, ParetoMixture, StrategySpec
from cellsched.seeding import (
    CHANNEL_STREAM,
    CHOICE_STREAM,
    WORKLOAD_STREAM,
    skip,
    stream,
    stream_seed,
)


def test_stream_tags_are_distinct():
    assert len({WORKLOAD_STREAM, CHANNEL_STREAM, CHOICE_STREAM}) == 3


def test_stream_seed_injective_over_key_sample():
    keys = set()
    for base in (0, 1, 7, 123456, 2**31):
        for tag in (WORKLOAD_STREAM, CHANNEL_STREAM, CHOICE_STREAM):
            for sub in (0, 1, 2, 999, 10_000):
                keys.add(stream_seed(base, tag, sub))
    assert len(keys) == 5 * 3 * 5


def test_same_key_reproduces_sequence():
    a = stream(42, CHANNEL_STREAM, 7)
    b = stream(42, CHANNEL_STREAM, 7)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_keys_diverge():
    draws = {}
    for base, tag, sub in itertools.product((1, 2), (0, 1, 2), (0, 5)):
        rng = stream(base, tag, sub)
        draws[(base, tag, sub)] = tuple(rng.random() for _ in range(4))
    assert len(set(draws.values())) == len(draws)


def test_skip_leaves_the_stream_where_draws_would():
    for n in (0, 1, 2, 37):
        drawn = stream(8, CHANNEL_STREAM, 2)
        skipped = stream(8, CHANNEL_STREAM, 2)
        for _ in range(n):
            drawn.random()
        skip(skipped, n)
        assert skipped.random() == drawn.random()


def test_both_weighted_picks_share_one_weights_rule():
    # a size mixture and a probabilistic strategy: one tolerance, one message
    children = (StrategySpec(kind="tas"), StrategySpec(kind="das"))
    scales = (100.0, 200.0)
    for weights in ((0.5, 0.5 + 5e-10), (0.5, 0.5 - 5e-10)):  # within 1e-9 of 1
        ParetoMixture(components=tuple(zip(weights, scales)))
        StrategySpec(kind="probabilistic", children=children, weights=weights)
    messages = []
    for weights in ((0.5, 0.5 + 2e-9), (1.5, -0.5)):
        with pytest.raises(ParameterError) as mixture:
            ParetoMixture(components=tuple(zip(weights, scales)))
        with pytest.raises(ParameterError) as strategy:
            StrategySpec(kind="probabilistic", children=children, weights=weights)
        messages += [str(mixture.value), str(strategy.value)]
    assert messages == [
        f"weights {list(weights)} must be non-negative and sum to 1"
        for weights in ((0.5, 0.5 + 2e-9), (1.5, -0.5))
        for _ in range(2)
    ]
