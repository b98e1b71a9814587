"""Queueing theory as an oracle: the slot model near its M/G/1 limit.

With a near-constant channel (``lo_coeff``/``hi_coeff`` 1 -/+ 1e-3),
near-equal mean rates (``rate_lo_mult``/``rate_hi_mult`` 1 -/+ 1e-3), the
infinite buffer and arrival rate 0.01, every flow is served at one rate, so
a file of size x needs S' = x / rate slots and the base station is an M/G/1
server.  ``srpt`` is then SRPT and ``round_robin`` (index 1/age, youngest
first) is preemptive LCFS.  Their mean sojourn times have closed forms
(Schrage & Miller 1966; Harchol-Balter, *Performance Modeling and Design of
Computer Systems*, 2013) that owe nothing to README or to
``reference_model.py``; they are computed here by quadrature.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace

from scipy.integrate import quad

from cellsched import ChannelConfig, SimConfig, StrategySpec, WorkloadConfig, run_simulation

LAMBDA = 0.01
EPS = 1e-3
SEEDS = range(1, 17)
HORIZON = 50_000
# Fixed before the first run: sixteen per-seed means give a t-statistic with
# 15 degrees of freedom, which exceeds 4 in about one case in a thousand.
# Slotting biases the mean up by a few slots (a flow holds the server for
# ceil(S') slots, which moves LCFS-PR from 153.7 to about 157.2), well inside
# four standard errors, so no slot offset is applied.
K = 4.0


def _closed_forms(workload: WorkloadConfig, channel: ChannelConfig):
    """E[S'], ρ, and the mean sojourn times of LCFS-PR and SRPT, in slots.

    S' is a mixture of Pareto laws: each size component's scale divided by
    the one service rate, the literal envelope times the offered load.
    """
    mix, lam = workload.size_mixture, workload.arrival_rate
    a = mix.alpha
    envelope = channel.envelope_amplitude * (
        math.sin(channel.envelope_freq + channel.envelope_phase) + 1.0)
    rate = envelope * lam * sum(w * a * c / (a - 1.0) for w, c in mix.components)
    comps = [(w, c / rate) for w, c in mix.components]
    scales = sorted(s for _, s in comps)

    def survival(x):
        return sum(w * (1.0 if x < s else (s / x) ** a) for w, s in comps)

    def density(x):
        return sum(w * a * s**a / x ** (a + 1.0) for w, s in comps if x > s)

    def load_below(x):  # λ ∫_0^x t dF(t)
        return lam * sum(w * a * s**a * (s ** (1 - a) - x ** (1 - a)) / (a - 1)
                         for w, s in comps if x > s)

    def second_below(x):  # ∫_0^x t² dF(t)
        return sum(w * a * s**a * (x ** (2 - a) - s ** (2 - a)) / (2 - a)
                   for w, s in comps if x > s)

    def integral(g):  # over (0, inf), split where the density jumps
        edges = [0.0, *scales, math.inf]
        return sum(quad(g, lo, hi, limit=200)[0] for lo, hi in zip(edges, edges[1:]))

    mean_s = integral(survival)
    rho = lam * mean_s
    waiting = integral(lambda x: density(x) * lam * (second_below(x) + x * x * survival(x))
                       / (2.0 * (1.0 - load_below(x)) ** 2))
    residence = integral(lambda t: survival(t) / (1.0 - load_below(t)))
    return mean_s, rho, mean_s / (1.0 - rho), waiting + residence


def _mean_sojourn(kind: str, workload: WorkloadConfig, channel: ChannelConfig):
    """Mean and standard error over seeds of each seed's mean sojourn, in slots."""
    means = []
    for seed in SEEDS:
        config = SimConfig(workload=replace(workload, seed=seed),
                           strategy=StrategySpec(kind=kind), channel=channel)
        records = run_simulation(config).records
        means.append(statistics.fmean(r.departure - r.arrival for r in records))
    return statistics.fmean(means), statistics.stdev(means) / math.sqrt(len(means))


def test_srpt_and_lcfs_pr_match_their_mg1_closed_forms():
    workload = WorkloadConfig(arrival_rate=LAMBDA, rate_lo_mult=1 - EPS,
                              rate_hi_mult=1 + EPS, horizon=HORIZON)
    channel = ChannelConfig(lo_coeff=1 - EPS, hi_coeff=1 + EPS)
    mean_s, rho, lcfs_pr, srpt = _closed_forms(workload, channel)
    assert math.isclose(mean_s, 60.6, abs_tol=0.05) and math.isclose(rho, 0.606, abs_tol=5e-4)
    assert math.isclose(lcfs_pr, 153.7, abs_tol=0.05)
    for kind, closed in (("srpt", srpt), ("round_robin", lcfs_pr)):
        mean, se = _mean_sojourn(kind, workload, channel)
        assert abs(mean - closed) <= K * se, (
            f"{kind}: simulated {mean:.1f} ± {se:.1f} slots, closed form {closed:.1f}")
