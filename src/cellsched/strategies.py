"""Index scheduling strategies and the per-slot client selection rule.

Every strategy assigns each eligible flow a scalar index from its observable
history; ``select_client`` returns the argmax flow's record, which is served.
Atomic kinds cover the classic rules (round robin, max-rate, age- and
service-normalized variants, oracle SRPT, buffer-draining) plus the two
completion-time-estimate indices ``T`` and ``TK``; ``linear`` and
``probabilistic`` combine atomic kinds.

An index reads the simulator's per-flow record (``simcore.FlowState``) as
it stands in the slot: ``rate`` (this slot's channel rate), ``age`` (slots
since arrival), ``served`` (bytes delivered before this slot), ``buffer``,
``rate_sum`` (every rate since arrival, this slot's included, so the
running mean rate is ``rate_sum / (age + 1)``; kept whole only for a spec
whose ``reads_mean_rate`` is true), ``last_served`` (None
before the first service) and ``spec`` (``id``, ``file_size``,
``mean_rate``).  Only ``srpt`` reads the true ``file_size``.

T = served / (age + served / (C * mean rate)).  ``C_DEFAULT`` fits the default
band whatever ``channel`` sets: C * mean rate is that band's harmonic-mean
rate, and the second term a shape-2 Pareto posterior's expected remaining time.

Conventions: a zero denominator maps to +inf, indices never evaluate to NaN,
and argmax ties go to the flow served least recently (a never-served flow
counts as least recent), then to the smallest id.  The +inf rule puts a flow in
its arrival slot first under the indices that divide by age, and a never-served
flow first under das and pf; by their formulas, T and TK score a never-served
flow of positive age as 0.  The repository's documents do not settle which
convention the source paper meant.  Each index function writes the +inf rule
inline; every call looks the function up in ``_INDEX_FUNCS``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields

from .errors import ParameterError
from .seeding import choice_bounds

COMBINATOR_KINDS = ("linear", "probabilistic")

#: T's default C: (hi - lo) / ln(hi / lo) of the default channel band [0.7, 1.3].
C_DEFAULT = 0.6 / math.log(13.0 / 7.0)

#: The parameters each kind reads.  Every other kind must leave them at their
#: defaults; labels and the config codec show exactly these parameters.
OWNED_PARAMS = {
    "T": ("c_const", "mean_rate_mode"),
    "TK": ("tk_variant", "mean_rate_mode"),
    "linear": ("children", "weights"),
    "probabilistic": ("children", "weights"),
}

_INF = math.inf


@dataclass(frozen=True)
class StrategySpec:
    """Declarative description of a scheduling strategy.

    A kind takes only the parameters that ``OWNED_PARAMS`` gives it.
    ``linear`` sums child indices with non-negative ``weights``;
    ``probabilistic`` redraws which child decides each slot, with
    ``weights`` read as probabilities summing to one.  Combinators nest one
    level deep: children must be atomic.
    """

    kind: str
    c_const: float = C_DEFAULT
    tk_variant: str = "inst"  # "inst": instantaneous rate; "mean": running mean rate
    mean_rate_mode: str = "empirical"  # "assigned" substitutes the true mean rate
    children: tuple[StrategySpec, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.kind not in KINDS:
            raise ParameterError(f"unknown strategy kind {self.kind!r}")
        if self.tk_variant not in ("inst", "mean"):
            raise ParameterError(f"unknown tk_variant {self.tk_variant!r}")
        if self.mean_rate_mode not in ("empirical", "assigned"):
            raise ParameterError(f"unknown mean_rate_mode {self.mean_rate_mode!r}")
        if not self.c_const > 0.0:
            raise ParameterError(f"c_const={self.c_const} must be positive")
        owned = OWNED_PARAMS.get(self.kind, ())
        for name, default in _PARAM_DEFAULTS.items():
            if name not in owned and getattr(self, name) != default:
                raise ParameterError(f"{self.kind} does not take {name}")
        tk_inst = self.kind == "TK" and self.tk_variant == "inst"
        if tk_inst and self.mean_rate_mode != "empirical":
            raise ParameterError("TK(tk_variant=inst) does not take mean_rate_mode")
        if self.kind in ATOMIC_KINDS:
            return
        if not self.children:
            raise ParameterError(f"{self.kind} needs at least one child")
        if len(self.children) != len(self.weights):
            raise ParameterError("children and weights must have equal length")
        for child in self.children:
            if child.kind not in ATOMIC_KINDS:
                raise ParameterError("combinator children must be atomic kinds")
        if self.kind == "probabilistic":  # checks the weights
            object.__setattr__(self, "_choice_bounds", choice_bounds(self.weights))
        elif not all(0.0 <= w < _INF for w in self.weights) or not any(self.weights):
            raise ParameterError("linear weights must be finite and non-negative, one positive")

    @property
    def uses_buffer(self) -> bool:
        if self.kind == "sectf":
            return True
        return any(c.uses_buffer for c in self.children)

    @property
    def reads_mean_rate(self) -> bool:
        """Whether an index reads the running mean rate ``rate_sum / (age + 1)``."""
        if self.kind == "T" or self.kind == "TK" and self.tk_variant == "mean":
            return self.mean_rate_mode == "empirical"
        return any(c.reads_mean_rate for c in self.children)

    def label(self) -> str:
        """The kind, with every owned parameter that differs from its default."""
        pairs = zip(self.children, self.weights)
        if self.kind == "linear":
            return "linear(" + "+".join(f"{w:g}*{c.label()}" for c, w in pairs) + ")"
        if self.kind == "probabilistic":
            return "prob(" + ",".join(f"{c.label()}:{p:g}" for c, p in pairs) + ")"
        params = [
            f"{name}={value}" if isinstance(value, str) else f"{name}={value:g}"
            for name in OWNED_PARAMS.get(self.kind, ())
            if (value := getattr(self, name)) != _PARAM_DEFAULTS[name]
        ]
        return f"{self.kind}({','.join(params)})" if params else self.kind


_PARAM_DEFAULTS = {f.name: f.default for f in fields(StrategySpec) if f.name != "kind"}


def _idx_round_robin(spec, flow):
    age = flow.age
    return _INF if age == 0.0 else 1.0 / age


def _idx_max_ci(spec, flow):
    return flow.rate


def _idx_tas(spec, flow):
    age = flow.age
    return _INF if age == 0.0 else flow.rate / age


def _idx_das(spec, flow):
    served = flow.served
    return _INF if served == 0.0 else flow.rate / served


def _idx_pf(spec, flow):
    served = flow.served
    return _INF if served == 0.0 else flow.rate * flow.age / served


def _idx_srpt(spec, flow):
    den = flow.spec.file_size - flow.served
    return _INF if den == 0.0 else flow.rate / den


def _idx_sectf(spec, flow):
    buffer = flow.buffer
    return _INF if buffer == 0.0 else flow.rate / buffer


def _idx_t(spec, flow):
    if spec.mean_rate_mode == "assigned":
        c_r = spec.c_const * flow.spec.mean_rate
    else:  # one draw per slot: age + 1 so far
        c_r = spec.c_const * (flow.rate_sum / (flow.age + 1))
    served = flow.served
    den = flow.age + (_INF if c_r == 0.0 else served / c_r)
    return _INF if den == 0.0 else served / den


def _idx_tk(spec, flow):
    if spec.tk_variant == "inst":
        r = flow.rate
    elif spec.mean_rate_mode == "assigned":
        r = flow.spec.mean_rate
    else:
        r = flow.rate_sum / (flow.age + 1)
    age = flow.age
    return _INF if age == 0.0 else r * flow.served / age


def _idx_linear(spec, flow):
    # a zero weight masks its child entirely, even a +inf index
    total = 0.0
    for child, w in zip(spec.children, spec.weights):
        if w == 0.0:
            continue
        v = _INDEX_FUNCS[child.kind](child, flow)
        if v == _INF:
            return _INF
        total += w * v
    return total


_INDEX_FUNCS = {
    "round_robin": _idx_round_robin,
    "max_ci": _idx_max_ci,
    "tas": _idx_tas,
    "das": _idx_das,
    "pf": _idx_pf,
    "srpt": _idx_srpt,
    "sectf": _idx_sectf,
    "T": _idx_t,
    "TK": _idx_tk,
    "linear": _idx_linear,
}
ATOMIC_KINDS = tuple(kind for kind in _INDEX_FUNCS if kind not in COMBINATOR_KINDS)
KINDS = ATOMIC_KINDS + COMBINATOR_KINDS


def select_client(spec: StrategySpec, flows, rng=None):
    """Pick the record to serve this slot, one of ``flows``, or None when it is empty.

    ``flows`` are the eligible flows' records.  A probabilistic spec first
    draws which child decides (exactly one uniform from ``rng`` per call),
    then the chosen rule's argmax applies.  Ties go to the flow served least
    recently, a never-served flow first, then to the smallest id.
    """
    if spec.kind == "probabilistic":
        spec = spec.children[bisect_right(spec._choice_bounds, rng.random())]
    if len(flows) == 1:
        return flows[0]
    index_fn = _INDEX_FUNCS[spec.kind]
    best = best_v = None
    for flow in flows:
        v = index_fn(spec, flow)
        if best is None or v > best_v or (v == best_v and _tie_key(flow) < _tie_key(best)):
            best, best_v = flow, v
    return best


def _tie_key(flow):
    """The tie rule, smallest first: never served, then least recently, then by id."""
    return (flow.last_served is not None, flow.last_served or 0, flow.spec.id)
