"""Order statistics as an oracle: multi-user diversity at saturation.

n flows of 10^12 kB all arrive at slot 0 with mean rate 1, under the
infinite buffer, the literal envelope and no drain, so every slot serves one
of n flows whose rates are independent and uniform on [lo, hi] = [0.7, 1.3]
times the envelope E.  The mean transfer per slot then has closed forms that
owe nothing to README or to ``reference_model.py`` (Knopp & Humblet, ICC
1995; David & Nagaraja, *Order Statistics*, 2003):

- ``max_ci`` serves the largest of n rates, whose mean is lo + (hi - lo)·n/(n + 1);
- ``tas`` does the same, since equal ages make rate/age pick the largest rate;
- ``round_robin`` gives every flow the same 1/age, so the tie rule cycles the
  flows and the mean is that of one rate, (lo + hi)/2.
"""

from __future__ import annotations

import math
import statistics

import pytest

from cellsched import ChannelConfig, SimConfig, StrategySpec, WorkloadConfig, run_simulation
from cellsched.channel import envelope_factor
from cellsched.workload import FlowSpec

SEEDS = range(1, 9)
HORIZON = 20_000
# Fixed before the first run: eight per-seed means give a t-statistic with
# 7 degrees of freedom, which exceeds 4 in about one case in two hundred.
K = 4.0


def _band() -> tuple[float, float]:
    channel = ChannelConfig()
    envelope = envelope_factor(1, channel)
    return channel.lo_coeff * envelope, channel.hi_coeff * envelope


def _mean_transfer(kind: str, n: int) -> tuple[float, float]:
    """Mean and standard error over seeds of each seed's mean transfer per slot."""
    flows = [FlowSpec(i, 0, 1e12, 1.0) for i in range(n)]
    means = []
    for seed in SEEDS:
        config = SimConfig(workload=WorkloadConfig(horizon=HORIZON, seed=seed),
                           strategy=StrategySpec(kind=kind), drain_after_horizon=False)
        trace = run_simulation(config, flows=flows, collect_trace=True).trace
        means.append(statistics.fmean(trace.transfers))
    return statistics.fmean(means), statistics.stdev(means) / math.sqrt(len(means))


@pytest.mark.parametrize(
    "n, kind",
    [(2, "max_ci"), (2, "round_robin"), (5, "max_ci"), (5, "tas"), (5, "round_robin")],
)
def test_mean_transfer_matches_its_order_statistic(n, kind):
    lo, hi = _band()
    closed = (lo + hi) / 2 if kind == "round_robin" else lo + (hi - lo) * n / (n + 1)
    mean, se = _mean_transfer(kind, n)
    assert abs(mean - closed) <= K * se, (
        f"{kind}, n={n}: simulated {mean:.5f} ± {se:.5f}, closed form {closed:.5f}")
