"""Slot-by-slot downlink simulation of one base station.

Each slot: admit arrivals, deliver the buffer refills due, reveal the
channel rate of every flow with buffered bytes, ask the strategy for one
client, transfer min(rate, buffer) to it.  Each active flow has one
FlowState record, which holds its channel stream from admission on, is
what the strategy reads and what it hands back as its pick.
A flow departs on the slot after the transfer that empties both its buffer
and its unfetched remainder; completed flows yield FlowRecords for the
metrics layer.

A slot is contended when two or more flows are active and not all of them
wait on a refill (see *wait* below), so at least one has buffered bytes;
only then does the loop build the eligible list and ask the strategy.
Otherwise the outcome is forced, and the loop runs one of three stretches
up to the next arrival or the horizon, with one ``serve_slot`` call per
slot and no eligible list or ``select_client`` call:

- *idle*: no flow is active;
- *wait*: every active flow waits on a refill, i.e.
  ``len(waiting) == len(active)``, since a flow is in ``waiting`` exactly
  when it is active with an empty buffer, and such a flow still has bytes
  unfetched, so it cannot depart.  The stretch ends where the first refill
  lands;
- *single-flow*: one flow is active and has buffered bytes; the stretch
  ends early when it departs or empties its buffer.

A flow with buffered bytes draws one rate per slot.  Refills are events: a
serve that empties a buffer with bytes still unfetched queues the flow's
refill for slot t + 1 + rtt, and ``refill_buffers`` runs only on slots
where one is due.  The rates of the slots the flow then waits are handled
there, once: drawn into ``rate_sum`` in slot order if the strategy reads
the running mean rate, else passed over by one ``stream.skip`` call, which
keeps the stream on slot.  A probabilistic strategy's choice stream still
advances by one draw per slot, skipped in one step at a stretch's end.

With ``collect_trace`` the run also returns its per-slot service trace, a
``Trace`` that keeps three columns and no object per slot: a contended or
single-flow slot appends to each column, and an idle or wait stretch adds
its rows to each column once, at its end.  Rows come from iterating the
trace; one slot is read from the columns.

Buffer semantics are chosen so completion is exact in floating point: the
final transfer equals the remaining buffer, and x - x == 0.0 always, so no
flow ever gets stuck behind a rounding residue.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

from . import seeding
from .channel import (
    ChannelConfig, ChannelRateSource, FlowRateStream, RateRecord, envelope_max,
)
from .errors import ParameterError, SchedulingError
from .metrics import FlowRecord
from .strategies import StrategySpec, select_client
from .workload import FlowSpec, WorkloadConfig, generate_workload, mean_rate_band

BUFFER_INFINITE = "infinite"
BUFFER_TCP_REFILL = "tcp-refill"

# drain-phase runaway guard; unreachable unless an invariant is broken
_DRAIN_SLACK = 10_000_000


@dataclass(frozen=True)
class BufferModel:
    """Base-station buffering discipline for staged file bytes.

    ``tcp-refill`` stages ``initial_window``, waits ``rtt`` slots after the
    buffer empties, then delivers ``initial_window`` again, then twice the
    last window each time, up to ``max_window`` (slow-start with saturation).
    ``infinite`` stages the whole file at once, so it takes none of the three.
    """

    mode: str = BUFFER_INFINITE
    rtt: int = 30
    initial_window: float = 100.0
    max_window: float = 400.0

    def __post_init__(self):
        if self.mode not in (BUFFER_INFINITE, BUFFER_TCP_REFILL):
            raise ParameterError(f"unknown buffer mode {self.mode!r}")
        if self.rtt < 0:
            raise ParameterError(f"rtt={self.rtt} must be non-negative")
        if not 0.0 < self.initial_window <= self.max_window:
            raise ParameterError(
                f"need 0 < initial_window <= max_window, got "
                f"{self.initial_window} and {self.max_window}"
            )
        tcp_params = (self.rtt, self.initial_window, self.max_window)
        if self.mode == BUFFER_INFINITE and tcp_params != _TCP_DEFAULTS:
            raise ParameterError("buffer mode 'infinite' does not take rtt or the windows")


_TCP_DEFAULTS = (BufferModel.rtt, BufferModel.initial_window, BufferModel.max_window)


def check_serves(buffer: BufferModel, spec: StrategySpec) -> None:
    """Reject a strategy that reads what ``buffer`` does not stage."""
    if spec.uses_buffer and buffer.mode != BUFFER_TCP_REFILL:
        raise ParameterError(f"strategy {spec.label()} needs buffer mode 'tcp-refill'")


@dataclass(slots=True)
class FlowState:
    """The one record of an active flow: bookkeeping and what strategies read.

    ``buffer`` holds bytes staged for transmission; ``unfetched`` holds
    bytes still at the origin server (always 0 in infinite mode), so
    ``served + buffer + unfetched == file_size`` up to accumulated float
    rounding in ``served``.  Each draw is added to ``rate_sum``, and when
    the strategy reads the running mean rate (``reads_mean_rate``) so is
    each slot's rate of a refill wait, so ``rate_sum`` holds every rate
    since arrival; before the strategy reads the record the loop writes
    ``rate`` (this slot's draw) and ``age`` (slots since arrival), so
    ``rate_sum / (age + 1)`` is then the running mean rate.  ``last_served``
    feeds tie-breaking; ``refill_due`` is the slot a queued refill lands,
    read only while the record waits in the refill queue.
    ``stream``, the flow's channel rate stream or its seed's record of the
    flow's rates keyed by slot, is set at admission.

    The five fields set at admission come first so that ``make_flow_state``
    passes them positionally, at about half the cost of a keyword call.
    """

    spec: FlowSpec
    buffer: float = 0.0
    unfetched: float = 0.0
    congestion_window: float = 0.0
    stream: FlowRateStream | RateRecord | None = None
    served: float = 0.0
    refill_due: int | None = None
    rate: float = 0.0
    rate_sum: float = 0.0
    age: int = 0
    last_served: int | None = None


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs besides trace plumbing.

    Arrivals stop at the workload's horizon and, with
    ``drain_after_horizon``, service continues until every admitted flow
    finishes so each one yields a record.
    """

    workload: WorkloadConfig
    strategy: StrategySpec
    channel: ChannelConfig = ChannelConfig()
    buffer: BufferModel = BufferModel()
    drain_after_horizon: bool = True

    def __post_init__(self):
        check_serves(self.buffer, self.strategy)
        channel, workload = self.channel, self.workload
        last = workload.horizon + _DRAIN_SLACK  # no run reaches a later slot
        top = (channel.hi_coeff * envelope_max(channel, last)
               * mean_rate_band(workload)[1])  # the largest rate
        smallest = min(m for _, m in workload.size_mixture.components)
        if not smallest / _DRAIN_SLACK <= top < math.inf:
            raise ParameterError("channel.hi_coeff * envelope * workload.rate_hi_mult * "
                                 "workload.arrival_rate * mean size is not finite or below "
                                 f"scale_kb {smallest:g} / {_DRAIN_SLACK}: no flow can finish")

    @property
    def horizon(self) -> int:
        """The workload's horizon, read-only; ``bench/tracer.py`` reads it here."""
        return self.workload.horizon


class TraceEvent(NamedTuple):
    """One slot of the service trace: who was served and how much moved.

    ``chosen_id`` is None on a slot that serves no flow.  Iterating a
    ``Trace`` builds each row with ``tuple.__new__``, which skips the named
    tuple's Python-level ``__new__`` and gives an equal row.
    """

    t: int
    chosen_id: int | None
    transfer: float
    active_count: int


@dataclass(frozen=True, slots=True)
class Trace:
    """The service trace of a run: one ``TraceEvent`` row per slot, kept as columns.

    Row i is slot i, because the slot loop writes one row per slot from
    slot 0 on, so ``t`` is not stored; the fields are the other three
    columns, which are also how to read one slot (``trace.chosen_ids[i]``).
    Rows come only from iteration, built in C as read; ``len`` counts them,
    and two traces are equal when their columns are.  No row stays alive,
    and so none stays tracked by the garbage collector, for as long as the
    trace does.
    """

    chosen_ids: tuple[int | None, ...]
    transfers: tuple[float, ...]
    active_counts: tuple[int, ...]

    def __len__(self):
        return len(self.chosen_ids)

    def __iter__(self):
        return map(tuple.__new__, repeat(TraceEvent),
                   zip(count(), self.chosen_ids, self.transfers, self.active_counts))


@dataclass(frozen=True)
class SimResult:
    """What one run returns.

    ``records`` holds a ``FlowRecord`` per departed flow, in departure
    order; ``unfinished`` counts the flows still active when the run
    stopped (0 whenever it drains).  ``trace`` is the run's ``Trace``, or
    None unless ``run_simulation`` was asked to collect it.
    """

    records: tuple[FlowRecord, ...]
    unfinished: int
    trace: Trace | None = None


def make_flow_state(spec: FlowSpec, model: BufferModel, stream=None) -> FlowState:
    """Fresh FlowState staging its first window: ``initial_window``, or the whole file."""
    window = model.initial_window if model.mode == BUFFER_TCP_REFILL else math.inf
    staged = spec.file_size if spec.file_size < window else window  # min(), without the call
    return FlowState(spec, staged, spec.file_size - staged, window, stream)


def admit_arrivals(active, t, pending, model, start, rate_source) -> int:
    """Admit every pending FlowSpec arriving at slot t; returns the next index.

    ``pending`` holds distinct ids in arrival order and ``start`` points at
    the first spec not yet admitted.  Each record is made with the channel
    stream ``rate_source`` gives its flow.
    """
    i = start
    while i < len(pending) and pending[i].arrival_slot <= t:
        spec = pending[i]
        active[spec.id] = make_flow_state(spec, model, rate_source.stream_for(spec))
        i += 1
    return i


def refill_buffers(waiting, t, model: BufferModel) -> None:
    """Deliver the refills due at slot t to the records at the head of ``waiting``.

    ``waiting`` holds, in due order, the records whose buffer emptied with
    bytes still unfetched; each one's ``refill_due`` is the slot its next
    window lands.  A delivery adds min(window, unfetched) and doubles the
    window up to the cap.
    """
    cap = model.max_window
    while waiting and waiting[0].refill_due == t:
        state = waiting.popleft()
        window, unfetched = state.congestion_window, state.unfetched
        delta = window if window < unfetched else unfetched  # min(), without the call
        state.buffer += delta
        state.unfetched = unfetched - delta
        window *= 2.0
        state.congestion_window = window if window < cap else cap


def serve_slot(active, t, rate, state):
    """Serve the chosen record ``state`` for one slot; returns (record-or-None, transfer).

    ``state`` is ``select_client``'s pick or the one active flow's record, or
    None on an idle or wait slot; ``rate`` is its channel rate for this slot.
    Only it is read or written: it receives min(rate, buffer); if that empties
    buffer and unfetched remainder the flow departs at t + 1, leaving
    ``active``; its FlowRecord is built with ``tuple.__new__``, as trace rows are.
    """
    if state is None:
        return None, 0.0
    if not state.buffer > 0.0:
        raise SchedulingError(f"chosen flow {state.spec.id} has an empty buffer at slot {t}")
    buffer = state.buffer
    transfer = buffer if buffer < rate else rate  # the operand min(rate, buffer) gives
    state.buffer = buffer - transfer
    state.served += transfer
    state.last_served = t
    if state.buffer == 0.0 and state.unfetched == 0.0:
        spec = state.spec
        del active[spec.id]
        return tuple.__new__(FlowRecord, (spec.file_size, spec.arrival_slot, t + 1)), transfer
    return None, transfer


def run_simulation(
    config: SimConfig,
    *,
    flows=None,
    rate_source=None,
    collect_trace=False,
) -> SimResult:
    """Run one seeded simulation; deterministic given the config.

    All randomness derives from ``config.workload.seed``: the arrival
    stream, one channel stream per flow (so rate draws never depend on
    scheduling decisions), and a choice stream, made only for a
    probabilistic strategy, which consumes exactly one draw per slot.

    ``flows`` (distinct ids in arrival order, all before the horizon, as
    checked before slot 0) replaces the generated workload, so runs on one
    seed can share its flows; ``rate_source`` replaces the seeded channel
    source.  Both also serve crafted scenarios with known arithmetic.
    """
    horizon = config.workload.horizon
    if flows is None:
        flows = generate_workload(config.workload)  # ids 0..n-1, in slot order
    else:
        ids, last = set(), 0
        for spec in flows:
            if spec.id in ids or not last <= spec.arrival_slot < horizon:
                raise ParameterError(
                    f"flow {spec.id} arrives at slot {spec.arrival_slot}; given flows need "
                    f"distinct ids and arrivals in slot order before the horizon {horizon}"
                )
            ids.add(spec.id)
            last = spec.arrival_slot
    if rate_source is None:
        rate_source = ChannelRateSource(config.workload.seed, config.channel)
    strategy = config.strategy
    model = config.buffer
    reads_mean = strategy.reads_mean_rate
    choice_rng = (seeding.stream(config.workload.seed, seeding.CHOICE_STREAM)
                  if strategy.kind == "probabilistic" else None)
    hard_stop = horizon + _DRAIN_SLACK

    active: dict[int, FlowState] = {}
    waiting: deque[FlowState] = deque()  # tcp-refill records in refill_due order
    records = []
    chosen_ids, transfers, active_counts = [], [], []  # the trace, when collected
    add_id, add_transfer, add_count = chosen_ids.append, transfers.append, active_counts.append

    arrivals = [spec.arrival_slot for spec in flows] + [horizon]  # horizon: none left
    next_pending = 0
    t = 0
    while True:
        if t >= horizon:
            if not config.drain_after_horizon or not active:
                break
            if t >= hard_stop:
                raise SchedulingError(
                    f"drain phase still busy after {t} slots; invariant broken"
                )
        elif arrivals[next_pending] <= t:
            next_pending = admit_arrivals(
                active, t, flows, model, next_pending, rate_source
            )
        if waiting and waiting[0].refill_due == t:
            refill_buffers(waiting, t, model)

        state = record = None
        n = len(active)
        if n < 2 or waiting and len(waiting) == n:
            # A forced stretch, served without a decision until a flow arrives:
            # no flow is active, every active flow waits on a refill (until the
            # first lands), or one flow has buffered bytes (until it departs or
            # empties its buffer).
            start = t
            stop = arrivals[next_pending] if t < horizon else hard_stop
            if waiting or not n:
                if waiting:
                    due = waiting[0].refill_due
                    stop = due if due < stop else stop
                for t in range(start, stop):
                    serve_slot(active, t, 0.0, None)
                if collect_trace:  # list repetition: about half the cost of extend(repeat())
                    span = stop - start
                    chosen_ids += [None] * span
                    transfers += [0.0] * span
                    active_counts += [n] * span
            else:
                (state,) = active.values()
                chosen = state.spec.id
                draw = state.stream.draw
                rate_sum = state.rate_sum
                for t in range(start, stop):
                    rate_sum += (rate := draw(t))
                    record, transfer = serve_slot(active, t, rate, state)
                    if collect_trace:
                        add_id(chosen)
                        add_transfer(transfer)
                        add_count(1)
                    if state.buffer == 0.0:
                        break
                state.rate_sum = rate_sum
            if choice_rng is not None:
                seeding.skip(choice_rng, t + 1 - start)
        else:
            eligible = []
            for flow in active.values():
                if flow.buffer > 0.0:  # a waiting flow's rates were handled as it began
                    flow.rate = r = flow.stream.draw(t)
                    flow.rate_sum += r
                    flow.age = t - flow.spec.arrival_slot
                    eligible.append(flow)
            state = select_client(strategy, eligible, choice_rng)
            if state is None:
                raise SchedulingError(f"no active flow chosen on contended slot {t}; "
                                      "invariant broken")
            record, transfer = serve_slot(active, t, state.rate, state)
            if collect_trace:
                add_id(state.spec.id)
                add_transfer(transfer)
                add_count(n)
        if record is not None:
            records.append(record)
        elif state is not None and state.buffer == 0.0:
            state.refill_due = due = t + 1 + model.rtt
            waiting.append(state)
            if reads_mean:  # the wait's rates, slot by slot, as the mean reads them
                draw = state.stream.draw
                rate_sum = state.rate_sum
                for s in range(t + 1, due):
                    rate_sum += draw(s)
                state.rate_sum = rate_sum
            else:
                state.stream.skip(t + 1, due)
        t += 1

    return SimResult(
        records=tuple(records),
        unfinished=len(active),
        trace=(Trace(tuple(chosen_ids), tuple(transfers), tuple(active_counts))
               if collect_trace else None),
    )
