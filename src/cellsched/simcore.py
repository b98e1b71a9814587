"""Slot-by-slot downlink simulation of one base station.

Each slot: admit arrivals, run buffer refills, reveal every active flow's
channel rate, ask the strategy for one client, transfer min(rate, buffer)
to it.  Each active flow has one FlowState record, which holds its channel
stream from admission on and is what the strategy reads.  The slot loop
visits every record once per slot and writes three fields: the slot's
``rate``, the running ``rate_sum`` and the ``age``; the flows with buffered
bytes go to the strategy as they are.  A flow departs on the slot after the
transfer that empties both its buffer and its unfetched remainder;
completed flows yield FlowRecords for the metrics layer.

Buffer semantics are chosen so completion is exact in floating point: the
final transfer equals the remaining buffer, and x - x == 0.0 always, so no
flow ever gets stuck behind a rounding residue.  The ``served`` accumulator
is set to the exact file size on departure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import seeding
from .channel import ChannelConfig, ChannelRateSource, FlowRateStream
from .errors import CapabilityError, ParameterError, SchedulingError
from .metrics import FlowRecord
from .strategies import StrategySpec, select_client
from .workload import FlowSpec, WorkloadConfig, generate_workload

BUFFER_INFINITE = "infinite"
BUFFER_TCP_REFILL = "tcp-refill"

# drain-phase runaway guard; unreachable unless an invariant is broken
_DRAIN_SLACK = 10_000_000


@dataclass(frozen=True)
class BufferModel:
    """Base-station buffering discipline for staged file bytes.

    ``infinite`` stages the whole file on arrival.  ``tcp-refill`` stages
    ``initial_window``, waits ``rtt`` slots after the buffer empties, then
    delivers the next window, doubling it up to ``max_window`` (slow-start
    growth with saturation).
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


@dataclass(slots=True)
class FlowState:
    """The one record of an active flow: bookkeeping and what strategies read.

    ``buffer`` holds bytes staged for transmission; ``unfetched`` holds
    bytes still at the origin server (always 0 in infinite mode), so
    ``served + buffer + unfetched == file_size`` up to accumulated float
    rounding in ``served``.  Each slot the loop writes ``rate`` (this
    slot's draw), adds it to ``rate_sum`` and sets ``age`` to the slots
    since arrival, so ``rate_sum / (age + 1)`` is the running mean rate;
    ``last_served`` feeds tie-breaking.  ``stream``, the flow's channel
    rate stream, is set at admission.
    """

    spec: FlowSpec
    served: float = 0.0
    buffer: float = 0.0
    unfetched: float = 0.0
    refill_due: int | None = None
    congestion_window: float = 0.0
    rate: float = 0.0
    rate_sum: float = 0.0
    age: int = 0
    last_served: int | None = None
    stream: FlowRateStream | None = None


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
        if not self.workload.horizon > 0:
            raise ParameterError(f"horizon={self.workload.horizon} must be positive")
        if self.strategy.uses_buffer and self.buffer.mode != BUFFER_TCP_REFILL:
            raise CapabilityError(
                "sectf reads the station buffer; it needs buffer mode 'tcp-refill'"
            )

    @property
    def horizon(self) -> int:
        """The workload's horizon, read-only; ``bench/tracer.py`` reads it here."""
        return self.workload.horizon


class TraceEvent(NamedTuple):
    """One slot of the service trace: who was served and how much moved.

    A named tuple rather than a frozen dataclass: one is built per slot of a
    traced run, and a tuple is about twice as cheap to build.
    """

    t: int
    chosen_id: int | None
    transfer: float
    active_count: int


@dataclass(frozen=True)
class SimResult:
    records: tuple[FlowRecord, ...]
    unfinished: int
    trace: tuple[TraceEvent, ...] | None = None


def make_flow_state(spec: FlowSpec, model: BufferModel) -> FlowState:
    """Fresh FlowState with the buffer initialized per the buffer model."""
    if model.mode == BUFFER_INFINITE:
        return FlowState(spec=spec, buffer=spec.file_size, unfetched=0.0)
    staged = min(model.initial_window, spec.file_size)
    return FlowState(
        spec=spec,
        buffer=staged,
        unfetched=spec.file_size - staged,
        congestion_window=model.initial_window,
    )


def admit_arrivals(active, t, pending, model, start=0) -> int:
    """Admit every pending FlowSpec arriving at slot t; returns the next index.

    ``pending`` must be sorted by arrival_slot and ``start`` must point at
    the first spec not yet admitted.
    """
    i = start
    while i < len(pending) and pending[i].arrival_slot <= t:
        spec = pending[i]
        if spec.arrival_slot < t:
            raise SchedulingError(
                f"arrival at slot {spec.arrival_slot} was never admitted (now t={t})"
            )
        if spec.id in active:
            raise SchedulingError(f"duplicate flow id {spec.id} at slot {t}")
        active[spec.id] = make_flow_state(spec, model)
        i += 1
    return i


def refill_buffers(active, t, model: BufferModel):
    """Schedule refills for newly emptied buffers and deliver the ones due at t.

    One pass: each flow is scheduled before its own delivery check, so with
    rtt = 0 a refill lands in the same slot it was requested.  A delivery
    adds min(window, unfetched) and doubles the window up to the cap.
    """
    if model.mode != BUFFER_TCP_REFILL:
        return active
    for state in active.values():
        if state.buffer == 0.0 and state.unfetched > 0.0 and state.refill_due is None:
            state.refill_due = t + model.rtt
        if state.refill_due == t:
            delta = min(state.congestion_window, state.unfetched)
            state.buffer += delta
            state.unfetched -= delta
            state.congestion_window = min(
                2.0 * state.congestion_window, model.max_window
            )
            state.refill_due = None
    return active


def serve_slot(active, t, rate, chosen):
    """Serve ``chosen`` for one slot; returns (record-or-None, transfer).

    Only the chosen flow is read or written; ``rate`` is its channel rate
    for this slot.  The chosen flow receives min(rate, buffer); if that
    empties both buffer and unfetched remainder the flow departs at t + 1
    and is removed from ``active``.
    """
    if chosen is None:
        return None, 0.0
    state = active.get(chosen)
    if state is None:
        raise SchedulingError(f"chosen flow {chosen} is not active at slot {t}")
    if not state.buffer > 0.0:
        raise SchedulingError(f"chosen flow {chosen} has an empty buffer at slot {t}")
    transfer = min(rate, state.buffer)
    state.buffer -= transfer
    state.served += transfer
    state.last_served = t
    if state.buffer == 0.0 and state.unfetched == 0.0:
        spec = state.spec
        state.served = spec.file_size
        del active[chosen]
        return FlowRecord(spec.file_size, spec.arrival_slot, t + 1), transfer
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
    scheduling decisions), and a dedicated stream for probabilistic
    strategy choices, which consumes exactly one draw per slot.

    ``flows`` (sorted by arrival_slot, each arriving before the horizon)
    replaces the generated workload, so runs on one seed can share its
    flows; ``rate_source`` replaces the seeded channel source.  Both also
    serve crafted scenarios with known arithmetic.
    """
    if flows is None:
        flows = generate_workload(config.workload)
    if rate_source is None:
        rate_source = ChannelRateSource(config.workload.seed, config.channel)
    choice_rng = seeding.stream(config.workload.seed, seeding.CHOICE_STREAM)

    strategy = config.strategy
    model = config.buffer
    tcp = model.mode == BUFFER_TCP_REFILL
    horizon = config.workload.horizon
    hard_stop = horizon + _DRAIN_SLACK

    active: dict[int, FlowState] = {}
    records = []
    trace = [] if collect_trace else None

    pending_count = len(flows)
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
        elif next_pending < pending_count and flows[next_pending].arrival_slot <= t:
            before = next_pending
            next_pending = admit_arrivals(active, t, flows, model, next_pending)
            for spec in flows[before:next_pending]:
                active[spec.id].stream = rate_source.stream_for(spec)
        if tcp:
            refill_buffers(active, t, model)

        eligible = []
        for state in active.values():
            state.rate = r = state.stream.draw(t)
            state.rate_sum += r
            state.age = t - state.spec.arrival_slot
            if state.buffer > 0.0:
                eligible.append(state)

        chosen = select_client(strategy, eligible, choice_rng)
        active_count = len(active)
        rate = active[chosen].rate if chosen in active else 0.0
        record, transfer = serve_slot(active, t, rate, chosen)
        if record is not None:
            records.append(record)
        if trace is not None:
            trace.append(TraceEvent(t, chosen, transfer, active_count))
        t += 1

    if next_pending < pending_count:
        spec = flows[next_pending]
        raise SchedulingError(
            f"flow {spec.id} arrives at slot {spec.arrival_slot}, "
            f"not before the horizon {horizon}"
        )
    return SimResult(
        records=tuple(records),
        unfinished=len(active),
        trace=tuple(trace) if trace is not None else None,
    )
