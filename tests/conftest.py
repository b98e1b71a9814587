"""Shared test builders: scripted RNGs, fixed-rate sources, flow record factories."""

from __future__ import annotations

import random

from cellsched import strategies
from cellsched.simcore import FlowState
from cellsched.workload import FlowSpec


class StubRng:
    """random()-compatible stub replaying a scripted list of uniforms."""

    def __init__(self, values):
        self._values = list(values)
        self._i = 0

    def random(self) -> float:
        value = self._values[self._i]
        self._i += 1
        return value


class CountingRng:
    """Wraps a real RNG and counts how many uniforms were consumed."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self._rng.random()


def make_view(**kwargs) -> FlowState:
    """An active flow's record as a strategy reads it, with benign defaults.

    The record holds no current slot: ``t`` becomes the arrival slot and only
    ``age`` enters an index.  ``mean_rate_est`` is stored as the rate sum of
    ``age + 1`` slots, and ``true_size`` (default: served + buffer) as the
    file size.
    """
    defaults = dict(
        id=0,
        t=10,
        age=5,
        served=50.0,
        buffer=100.0,
        rate=10.0,
        mean_rate_est=10.0,
        mean_rate=10.0,
        true_size=None,
        last_served=None,
    )
    defaults.update(kwargs)
    d = defaults
    size = d["served"] + d["buffer"] if d["true_size"] is None else d["true_size"]
    return FlowState(
        spec=FlowSpec(
            id=d["id"], arrival_slot=d["t"], file_size=size, mean_rate=d["mean_rate"]
        ),
        served=d["served"],
        buffer=d["buffer"],
        rate=d["rate"],
        rate_sum=d["mean_rate_est"] * (d["age"] + 1),
        age=d["age"],
        last_served=d["last_served"],
    )


def index_of(spec, flow) -> float:
    """``flow``'s index under ``spec``, read from the table the simulator reads.

    The entry is looked up at call time, so a patched table entry is seen.
    """
    return strategies._INDEX_FUNCS[spec.kind](spec, flow)


def make_flow(fid=0, arrival=0, size=100.0, mean_rate=10.0) -> FlowSpec:
    return FlowSpec(id=fid, arrival_slot=arrival, file_size=size, mean_rate=mean_rate)


class FixedRateSource:
    """Constant-rate source for hand-traced tests: every flow sees ``rate`` each slot."""

    def __init__(self, rate: float = 1.0, per_flow: dict[int, float] | None = None):
        self.rate = rate
        self.per_flow = per_flow or {}

    def stream_for(self, flow: FlowSpec) -> "_FixedStream":
        return _FixedStream(self.per_flow.get(flow.id, self.rate))


class _FixedStream:
    __slots__ = ("_rate",)

    def __init__(self, rate: float):
        self._rate = rate

    def draw(self, t: float) -> float:
        return self._rate

    def skip(self, start: int, stop: int) -> None:
        pass  # every slot's rate is the same
