"""Paired evidence for the strategy ranking that the documented slot model gives.

Every strategy runs on the same seeds, so all of them see the same arrivals
and the same channel draws (common random numbers).  The evidence is
therefore the per-seed difference between two strategies, not the overlap of
their separate spreads.  Five studies are printed:

1. the seven reference strategies at the reference setup (10^5 slots) on two
   disjoint blocks of ten seeds: each one's mean logALPT, and the mean,
   sample sd and t statistic of the paired difference of each adjacent pair
   and of T - tas;
2. the {T, tas, das} mixture surface of acceptance criterion 3 (10^4 slots,
   5 seeds, simplex step 0.1): its peak, how far the p_T = 0 edge lies below
   the peak, and the paired gap of the pure-T vertex;
3. T and TK with a never-served flow scored +inf instead of the README
   formula's 0, next to tas (3*10^4 slots, 5 seeds);
4. the linear combination I_tas + alpha * I_das of acceptance criterion 2
   at alpha = 0, 0.5, 1 and 2 (2*10^4 slots, seeds 1-20): the paired gain
   of each alpha > 0 over alpha = 0, and the paired gaps among them;
5. round_robin read as a cycle: a constant index, so the tie rule alone
   serves the flow served least recently, against tas and against the
   documented 1/age index, which serves the youngest flow (10^5 slots,
   seeds 1-10).

Run from the repository root (30-60 s on two cores):

    PYTHONPATH=src python3 scripts/ranking_evidence.py
"""

from __future__ import annotations

import math
from unittest.mock import patch

from cellsched import StrategySpec, experiment_from_dict, strategies
from cellsched.experiments import RANKING_KINDS, replicate
from cellsched.metrics import aggregate, paired


def print_pair(name, a, b, digits=4):
    """Print the mean, sample sd and t statistic of the per-seed differences a - b."""
    p = paired(a, b)
    print(f"  {name:<24} {p.log_alpt_mean:+.{digits}f}  "
          f"sd {p.log_alpt_std:.{digits}f}  t {p.t:6.1f}")


def ranking_block(base_seed):
    config = experiment_from_dict({"base_seed": base_seed})
    specs = [StrategySpec(kind=k) for k in RANKING_KINDS]
    scores = dict(zip(RANKING_KINDS, replicate(config, specs)))
    aggs = {k: aggregate(v) for k, v in scores.items()}
    order = sorted(aggs, key=lambda k: aggs[k].log_alpt_mean, reverse=True)
    seeds = config.seeds
    print(f"ranking, seeds {seeds[0]}-{seeds[-1]}, h={config.sim.workload.horizon}:")
    print("  " + " > ".join(order))
    for k in order:
        print(f"  {k:<12} {aggs[k].log_alpt_mean:.4f} ± {aggs[k].log_alpt_std:.4f}")
    print("  paired differences (mean, sd, t):")
    for hi, lo in zip(order, order[1:]):
        print_pair(f"{hi} - {lo}", scores[hi], scores[lo])
    print_pair("T - tas", scores["T"], scores["tas"])


def mixture_surface():
    config = experiment_from_dict({"horizon": 10_000, "replications": 5})
    children = tuple(StrategySpec(kind=k) for k in ("T", "tas", "das"))
    grid = config.sweep.simplex_grid  # simplex_step 0.1
    specs = [
        StrategySpec(kind="probabilistic", children=children, weights=p) for p in grid
    ]
    scores = dict(zip(grid, replicate(config, specs)))
    means = {p: aggregate(v).log_alpt_mean for p, v in scores.items()}
    peak = max(means, key=means.get)
    edge_gap = max(means[peak] - m for p, m in means.items() if p[0] == 0.0)
    print(f"mixture surface (p_T, p_tas, p_das), h={config.sim.workload.horizon} "
          f"x {config.replications} seeds:")
    print(f"  peak {peak} = {means[peak]:.4f}")
    print(f"  p_T = 0 edge: every point within {edge_gap:.4f} of the peak")
    print_pair("peak - (1,0,0)", scores[peak], scores[(1.0, 0.0, 0.0)])


def patched_indices(wrappers):
    """Replace each kind's index function ``fn`` by ``wrappers[kind](fn)`` for the duration.

    The simulator looks its index functions up each slot, so every index path
    sees the replacements; ``patch.dict`` restores the table on exit, also on
    an exception.
    """
    table = strategies._INDEX_FUNCS
    return patch.dict(table, {k: wrap(table[k]) for k, wrap in wrappers.items()})


def never_served_first():
    """Score a never-served flow +inf under T and TK for the duration.

    The README's T and TK formulas give such a flow 0 once its age is
    positive; this is the alternative reading.
    """
    def lifted(fn):
        return lambda spec, view: math.inf if view.served == 0.0 else fn(spec, view)

    return patched_indices({"T": lifted, "TK": lifted})


def cyclic_round_robin():
    """Give every flow the same round_robin index for the duration.

    The tie rule alone then decides: a never-served flow first, else the flow
    served least recently.  The README's index 1/age serves the youngest flow.
    """
    return patched_indices({"round_robin": lambda fn: lambda spec, view: 0.0})


def never_served_alternative():
    config = experiment_from_dict({"horizon": 30_000, "replications": 5})
    kinds = ("T", "TK", "tas")
    specs = [StrategySpec(kind=k) for k in kinds]
    as_documented = dict(zip(kinds, replicate(config, specs)))
    with never_served_first():
        lifted = dict(zip(kinds, replicate(config, specs)))
    print(f"never-served flows scored +inf by T and TK, h={config.sim.workload.horizon} "
          f"x {config.replications} seeds:")
    for k in kinds:
        before, after = aggregate(as_documented[k]), aggregate(lifted[k])
        print(f"  {k:<4} {before.log_alpt_mean:.4f} -> "
              f"{after.log_alpt_mean:.4f} ± {after.log_alpt_std:.4f}")
    print_pair("T(+inf) - tas", lifted["T"], lifted["tas"])
    print_pair("TK(+inf) - tas", lifted["TK"], lifted["tas"])


def linear_alphas():
    config = experiment_from_dict({"horizon": 20_000, "replications": 20})
    alphas = (0.0, 0.5, 1.0, 2.0)
    tas, das = StrategySpec(kind="tas"), StrategySpec(kind="das")
    specs = [
        StrategySpec(kind="linear", children=(tas, das), weights=(1.0, a))
        for a in alphas
    ]
    scores = dict(zip(alphas, replicate(config, specs)))
    seeds = config.seeds
    print(f"linear I_tas + alpha*I_das, h={config.sim.workload.horizon}, "
          f"seeds {seeds[0]}-{seeds[-1]}:")
    for a in alphas:
        print(f"  alpha={a:<4g} {aggregate(scores[a]).log_alpt_mean:.4f}")
    for a in alphas[1:]:
        print_pair(f"alpha={a:g} - alpha=0", scores[a], scores[0.0], digits=5)
    for a, b in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        print_pair(f"alpha={a:g} - alpha={b:g}", scores[a], scores[b], digits=5)


def cyclic_reading():
    config = experiment_from_dict({"base_seed": 1})
    kinds = ("round_robin", "tas")
    specs = [StrategySpec(kind=k) for k in kinds]
    youngest, tas = replicate(config, specs)
    with cyclic_round_robin():
        (cyclic,) = replicate(config, specs[:1])
    seeds = config.seeds
    print(f"round_robin read as a cycle (constant index, tie rule alone), "
          f"seeds {seeds[0]}-{seeds[-1]}, h={config.sim.workload.horizon}:")
    agg = aggregate(cyclic)
    print(f"  cyclic       {agg.log_alpt_mean:.4f} ± {agg.log_alpt_std:.4f}")
    print_pair("cyclic - tas", cyclic, tas)
    print_pair("cyclic - round_robin", cyclic, youngest)


if __name__ == "__main__":
    ranking_block(base_seed=1)
    ranking_block(base_seed=11)
    mixture_surface()
    never_served_alternative()
    linear_alphas()
    cyclic_reading()
