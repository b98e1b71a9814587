"""Index scheduling strategies and the per-slot client selection rule.

Every strategy assigns each eligible flow a scalar index from its observable
history and the station serves the argmax.  Atomic kinds cover the classic
rules (round robin, max-rate, age- and service-normalized variants, oracle
SRPT, buffer-draining) plus the two completion-time-estimate indices ``T``
and ``TK``; ``linear`` and ``probabilistic`` combine atomic kinds.

An index reads the simulator's per-flow record (``simcore.FlowState``) as
it stands in the slot: ``rate`` (this slot's channel rate), ``age`` (slots
since arrival), ``served`` (bytes delivered before this slot), ``buffer``,
``rate_sum`` (every rate since arrival, this slot's included, so the
running mean rate is ``rate_sum / (age + 1)``), ``last_served`` (None
before the first service) and ``spec`` (``id``, ``file_size``,
``mean_rate``).  Only ``srpt`` reads the true ``file_size``.

Conventions: a zero denominator maps to +inf, indices never evaluate to
NaN, and argmax ties are broken toward the flow served least recently (a
never-served flow counts as least recent), then toward the smallest id.
The +inf rule puts a flow in its arrival slot first under the indices that
divide by age, and a never-served flow first under das and pf; by their
formulas, T and TK score a never-served flow of positive age as 0.  The
repository's documents do not settle which of the two conventions the
source paper meant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParameterError

ATOMIC_KINDS = (
    "round_robin",
    "max_ci",
    "tas",
    "das",
    "pf",
    "srpt",
    "sectf",
    "T",
    "TK",
)
COMBINATOR_KINDS = ("linear", "probabilistic")
KINDS = ATOMIC_KINDS + COMBINATOR_KINDS

#: Default time constant of the T index's remaining-time estimate.
C_DEFAULT = 0.6 / math.log(13.0 / 7.0)

#: The parameters each kind reads.  Every other kind must leave them at their
#: defaults; labels and the config codec show exactly these parameters.
OWNED_PARAMS = {
    "T": ("c_const", "mean_rate_mode"),
    "TK": ("tk_variant", "mean_rate_mode"),
    "linear": ("children", "weights"),
    "probabilistic": ("children", "weights"),
}

_PROB_TOL = 1e-9
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
        if self.kind in ATOMIC_KINDS:
            return
        if not self.children:
            raise ParameterError(f"{self.kind} needs at least one child")
        if len(self.children) != len(self.weights):
            raise ParameterError("children and weights must have equal length")
        for child in self.children:
            if child.kind not in ATOMIC_KINDS:
                raise ParameterError("combinator children must be atomic kinds")
        if any(w < 0.0 for w in self.weights):
            raise ParameterError("weights must be non-negative")
        if self.kind == "linear":
            if not any(w > 0.0 for w in self.weights):
                raise ParameterError("linear combination needs a positive weight")
        else:  # probabilistic
            total = sum(self.weights)
            if abs(total - 1.0) > _PROB_TOL:
                raise ParameterError(f"mixture probabilities sum to {total}, expected 1")

    @property
    def uses_buffer(self) -> bool:
        if self.kind == "sectf":
            return True
        return any(c.uses_buffer for c in self.children)

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


def _div(num: float, den: float) -> float:
    """Division with the zero-denominator-to-+inf convention (never NaN)."""
    if den == 0.0:
        return _INF
    return num / den


def expected_file_size(served: float, alpha: float) -> float:
    """Posterior mean of a Pareto-distributed size given ``served`` already delivered.

    Conditioning a Pareto(shape ``alpha``) size on exceeding ``served``
    gives mean ``alpha/(alpha-1) * served``; with nothing observed yet the
    estimate is 0.
    """
    if not alpha > 1.0:
        raise ParameterError(f"alpha={alpha} must exceed 1 for a finite mean")
    if served < 0.0:
        raise ParameterError(f"served={served} must be non-negative")
    if served == 0.0:
        return 0.0
    return alpha / (alpha - 1.0) * served


def pareto_posterior_density(size: float, served: float, alpha: float) -> float:
    """Density of a Pareto(``alpha``) file size conditioned on exceeding ``served``.

    p(size) = alpha * served**alpha / size**(alpha+1) for size >= served > 0;
    its mean is ``expected_file_size(served, alpha)``.
    """
    if not alpha > 1.0:
        raise ParameterError(f"alpha={alpha} must exceed 1")
    if not served > 0.0:
        raise ParameterError(f"served={served} must be positive to condition on")
    if size < served:
        return 0.0
    return alpha * served**alpha / size ** (alpha + 1.0)


def _idx_round_robin(spec, flow):
    return _div(1.0, flow.age)


def _idx_max_ci(spec, flow):
    return flow.rate


def _idx_tas(spec, flow):
    return _div(flow.rate, flow.age)


def _idx_das(spec, flow):
    return _div(flow.rate, flow.served)


def _idx_pf(spec, flow):
    return _div(flow.rate * flow.age, flow.served)


def _idx_srpt(spec, flow):
    return _div(flow.rate, flow.spec.file_size - flow.served)


def _idx_sectf(spec, flow):
    return _div(flow.rate, flow.buffer)


def _idx_t(spec, flow):
    if spec.mean_rate_mode == "assigned":
        r = flow.spec.mean_rate
    else:  # one draw per slot since arrival: age + 1 rates so far
        r = flow.rate_sum / (flow.age + 1)
    return _div(flow.served, flow.age + _div(flow.served, spec.c_const * r))


def _idx_tk(spec, flow):
    if spec.tk_variant == "inst":
        r = flow.rate
    elif spec.mean_rate_mode == "assigned":
        r = flow.spec.mean_rate
    else:
        r = flow.rate_sum / (flow.age + 1)
    return _div(r * flow.served, flow.age)


def _idx_linear(spec, flow):
    return linear_combine(
        spec.weights, [compute_index(c, flow) for c in spec.children]
    )


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


def compute_index(spec: StrategySpec, flow) -> float:
    """Index of one flow record under ``spec``; +inf on zero denominators, never NaN."""
    try:
        fn = _INDEX_FUNCS[spec.kind]
    except KeyError:
        raise ParameterError(
            f"{spec.kind!r} has no per-flow index; use select_client"
        ) from None
    return fn(spec, flow)


def linear_combine(weights, values) -> float:
    """Weighted sum of index values; zero weights mask their value entirely."""
    if len(weights) != len(values):
        raise ParameterError("weights and values must have equal length")
    total = 0.0
    for w, v in zip(weights, values):
        if w == 0.0:
            continue
        if v == _INF:
            return _INF
        total += w * v
    return total


def _draw_child(spec: StrategySpec, rng) -> StrategySpec:
    # one uniform is consumed per call, even for a single-child mixture
    u = rng.random()
    acc = 0.0
    for child, p in zip(spec.children, spec.weights):
        acc += p
        if u < acc:
            return child
    return spec.children[-1]


def select_client(spec: StrategySpec, flows, rng=None):
    """Pick the flow id to serve this slot, or None when no flow is eligible.

    ``flows`` are the records of the eligible flows.  A probabilistic spec
    first draws which child decides (consuming exactly one uniform from
    ``rng``), then the chosen rule's argmax applies.  Ties go to the flow
    served least recently, a never-served flow first, then to the smallest id.
    """
    if spec.kind == "probabilistic":
        spec = _draw_child(spec, rng)
    if not flows:
        return None
    if len(flows) == 1:
        return flows[0].spec.id
    index_fn = _INDEX_FUNCS[spec.kind]
    best_id = None
    best_v = -_INF
    best_last = _INF
    for flow in flows:
        v = index_fn(spec, flow)
        if best_id is not None and v < best_v:
            continue
        last = -_INF if flow.last_served is None else flow.last_served
        fid = flow.spec.id
        if (
            best_id is None
            or v > best_v
            or last < best_last
            or (last == best_last and fid < best_id)
        ):
            best_id = fid
            best_v = v
            best_last = last
    return best_id
