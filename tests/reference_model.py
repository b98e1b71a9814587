"""Independent reference of the documented slot model, for checking the simulator.

Written from the README's description of the slot loop, its buffers and
its strategy table, and from the ``strategies`` module docstring; it shares
no code with ``cellsched.simcore`` or ``cellsched.strategies``.  It covers
the infinite and the ``tcp-refill`` buffer, both channel envelope modes,
the drain phase and a run stopped at the horizon, the seven ranking
indices, ``sectf``, ``srpt``, T and TK with the other parameters of the
README's table, and ``linear`` sums and ``probabilistic`` mixtures of them.
Per slot t:

- flows arriving at slot t join with min(file size, window) buffered; the
  infinite buffer's window is unbounded, ``tcp-refill``'s is
  ``initial_window``;
- a refill due at t lands before the draws: it buffers min(window, bytes
  still unfetched), then the window doubles, up to ``max_window``;
- every active flow draws its rate r_k(t) from its own channel stream
  ``seeding.stream(seed, CHANNEL_STREAM, id)`` as lo + (hi - lo) * u, with
  [lo, hi] = [lo_coeff, hi_coeff] x E(t) x the flow's mean rate, where
  E(t) = A * (sin(freq * t + phase) + 1) in ``time_varying`` mode and
  A * (sin(freq + phase) + 1) on every slot in ``literal`` mode;
- r̄_k is the mean of the flow's rates since arrival, this slot included;
- a ``linear`` index is the sum of w_i * I_i over its children, in order;
  a child of zero weight is left out, even where it scores +inf;
- a probabilistic mixture draws one uniform u from
  ``seeding.stream(seed, CHOICE_STREAM)`` on every slot from 0 on, whether
  or not a flow is eligible; child i decides when u lies in
  [w_1 + ... + w_(i-1), w_1 + ... + w_i), and a u at or above the sum goes
  to the last child with a positive weight;
- only flows with buffered bytes are eligible; the one with the largest
  index is served min(r_k(t), buffer); a zero denominator scores +inf, and
  ties go to the flow served least recently (a never-served flow counts as
  least recent), then to the smallest id;
- a flow departs on the slot after its last byte; a serve that empties the
  buffer with bytes still unfetched books a refill for slot t + 1 + rtt.

With the drain, the run goes on until every flow has departed; without it,
the run stops at the horizon, and the flows still active are unfinished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from cellsched import seeding
from cellsched.channel import ChannelConfig

C = 0.6 / math.log(13.0 / 7.0)


def _ratio(num, den):
    return math.inf if den == 0.0 else num / den


# index of a flow from (rate this slot, age, served before this slot, r̄)
INDICES = {
    "round_robin": lambda r, age, served, mean: _ratio(1.0, age),
    "max_ci": lambda r, age, served, mean: r,
    "tas": lambda r, age, served, mean: _ratio(r, age),
    "das": lambda r, age, served, mean: _ratio(r, served),
    "pf": lambda r, age, served, mean: _ratio(r * age, served),
    "T": lambda r, age, served, mean: _ratio(served, age + _ratio(served, C * mean)),
    "TK": lambda r, age, served, mean: _ratio(r * served, age),
}
# sectf reads the buffered bytes, which only the tcp-refill buffer keeps below the file
BUFFER_INDICES = {"sectf": lambda r, buffer: _ratio(r, buffer)}
# indices that read the flow's true size or assigned mean rate, or a C of their own,
# keyed by the label the README gives the strategy
SPEC_INDICES = {
    "srpt": lambda r, age, served, mean, spec: _ratio(r, spec.file_size - served),
    "TK(tk_variant=mean)": lambda r, age, served, mean, spec: _ratio(mean * served, age),
    "TK(tk_variant=mean,mean_rate_mode=assigned)":
        lambda r, age, served, mean, spec: _ratio(spec.mean_rate * served, age),
    "T(mean_rate_mode=assigned)": lambda r, age, served, mean, spec: _ratio(
        served, age + _ratio(served, C * spec.mean_rate)),
    "T(c_const=20)": lambda r, age, served, mean, spec: _ratio(
        served, age + _ratio(served, 20.0 * mean)),
}


@dataclass(frozen=True)
class Linear:
    """A ``linear`` rule: its children's names and weights, as (name, weight) pairs."""

    terms: tuple


def envelope(channel: ChannelConfig, t: int) -> float:
    """E(t) = A * (sin(freq * t + phase) + 1), its argument held at freq + phase in
    ``literal`` mode."""
    moving = channel.envelope_mode == "time_varying"
    arg = (channel.envelope_freq * t if moving else channel.envelope_freq) + channel.envelope_phase
    return channel.envelope_amplitude * (math.sin(arg) + 1.0)


@dataclass
class Replay:
    """What the reference produced for one run."""

    records: list = field(default_factory=list)  # (file_size, arrival, departure)
    served: list = field(default_factory=list)  # (slot, flow id) of busy slots
    contested: int = 0  # slots with two or more flows to choose from
    all_wait: int = 0  # slots with active flows that all wait on a refill
    unfinished: int = 0  # flows still active when a run without the drain stops


class _Flow:
    def __init__(self, spec, seed, channel, window):
        self.spec = spec
        self.rng = seeding.stream(seed, seeding.CHANNEL_STREAM, spec.id)
        self.channel = channel
        self.window = window
        self.buffer = min(spec.file_size, window)
        self.unfetched = spec.file_size - self.buffer
        self.refill_due = None
        self.served = 0.0
        self.rate_sum = 0.0
        self.draws = 0
        self.last_served = None

    def draw(self, t) -> float:
        channel, e, mean_rate = self.channel, envelope(self.channel, t), self.spec.mean_rate
        lo, hi = channel.lo_coeff * e * mean_rate, channel.hi_coeff * e * mean_rate
        rate = lo + (hi - lo) * self.rng.random()
        self.rate_sum += rate
        self.draws += 1
        return rate


def _child(weights, u) -> int:
    """The mixture child that the uniform ``u`` picks."""
    total = 0.0
    for i, w in enumerate(weights):
        total += w
        if u < total:
            return i
    return max(i for i, w in enumerate(weights) if w > 0.0)


def simulate(flows, seed: int, rule, tcp=None, channel=ChannelConfig(), horizon=None) -> Replay:
    """Replay ``flows`` (sorted by arrival) under ``rule`` on ``channel``.

    ``rule`` names an index of the tables above, is a :class:`Linear` of
    such names, or is a probabilistic mixture's (name, weight) pairs.
    ``tcp`` is None for the infinite buffer, or the ``tcp-refill`` buffer's
    (rtt, initial_window, max_window) as plain numbers.  ``horizon`` is the
    drain flag: None runs until every flow departs, and a run with the drain
    off stops at the horizon it gives.
    """
    rtt, first_window, max_window = tcp if tcp is not None else (0, math.inf, math.inf)
    mixture = isinstance(rule, tuple)
    choice = seeding.stream(seed, seeding.CHOICE_STREAM)
    out = Replay()
    pending = list(reversed(flows))
    active: dict[int, _Flow] = {}
    t = 0

    def index(flow, r, name):
        if isinstance(name, Linear):
            return sum(w * index(flow, r, child) for child, w in name.terms if w != 0.0)
        if name in BUFFER_INDICES:
            return BUFFER_INDICES[name](r, flow.buffer)
        age, mean = t - flow.spec.arrival_slot, flow.rate_sum / flow.draws
        if name in SPEC_INDICES:
            return SPEC_INDICES[name](r, age, flow.served, mean, flow.spec)
        return INDICES[name](r, age, flow.served, mean)

    def key(flow):
        recency = math.inf if flow.last_served is None else t - flow.last_served
        return index(flow, rates[flow.spec.id], name), recency, -flow.spec.id

    while (pending or active) and (horizon is None or t < horizon):
        while pending and pending[-1].arrival_slot == t:
            spec = pending.pop()
            active[spec.id] = _Flow(spec, seed, channel, first_window)
        for flow in active.values():
            if flow.refill_due == t:
                delta = min(flow.window, flow.unfetched)
                flow.buffer += delta
                flow.unfetched -= delta
                flow.window = min(2.0 * flow.window, max_window)
                flow.refill_due = None
        rates = {fid: flow.draw(t) for fid, flow in active.items()}
        name = rule
        if mixture:
            name = rule[_child([w for _, w in rule], choice.random())][0]
        eligible = [flow for flow in active.values() if flow.buffer > 0.0]
        out.contested += len(eligible) > 1
        out.all_wait += bool(active) and not eligible
        if eligible:
            flow = max(eligible, key=key)
            transfer = min(rates[flow.spec.id], flow.buffer)
            flow.buffer -= transfer
            flow.served += transfer
            flow.last_served = t
            out.served.append((t, flow.spec.id))
            if flow.buffer == 0.0 and flow.unfetched == 0.0:
                del active[flow.spec.id]
                out.records.append(
                    (flow.spec.file_size, flow.spec.arrival_slot, t + 1)
                )
            elif flow.buffer == 0.0:
                flow.refill_due = t + 1 + rtt
        t += 1
    out.unfinished = len(active)
    return out
