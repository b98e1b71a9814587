"""RNG stream derivation: distinct, deterministic, collision-free."""

from __future__ import annotations

import itertools

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
