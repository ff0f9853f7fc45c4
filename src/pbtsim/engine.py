"""Event-driven execution of transaction workloads with metric collection.

Two modes mirror the evaluation methodology. Static mode executes each
transaction against the same initial state: the payment settles, any
on-demand repair runs (and its messages are counted), and then both the
weights and the trees are restored, keeping transactions independent and
policy comparisons fair. Dynamic mode lets the graph evolve: link-change
events mutate weights, failed transactions are requeued with a random
backoff, and metrics are binned into epochs of one thousand mean
inter-transaction times.

Periodic policies pay one message per tree per undirected edge every
epoch (the initial build counts as the first rebuild); on-demand policies
pay only for the repairs their link changes trigger.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .baselines import (
    RoutingPolicy,
    TransactionExecutor,
    flow_feasible,
    make_executor,
)
from .embedding import (
    DEFAULT_ADDRESS_LEN,
    DEFAULT_ELEMENT_BITS,
    Embedding,
    build_embeddings,
    derive_seed,
)
from .errors import ConfigError, InternalError
from .graph import CreditGraph, NodeId
from .stabilization import on_link_change, periodic_rebuild

# ---- events ------------------------------------------------------------------


@dataclass(frozen=True)
class TransactionEvent:
    time: int
    value: int
    src: NodeId
    dst: NodeId


@dataclass(frozen=True)
class LinkChangeEvent:
    time: int
    u: NodeId
    v: NodeId
    new_weight: int


Event = TransactionEvent | LinkChangeEvent


# ---- parameters and metrics ----------------------------------------------------


@dataclass
class SimParams:
    """Knobs shared by both simulation modes."""

    trees: int = 3
    attempts: int = 2
    epoch: int = 1000
    tl: int | None = None  # dynamic retry window; defaults to twice the mean gap
    landmark_mode: str = "degree"
    seed: int = 1
    address_len: int = DEFAULT_ADDRESS_LEN
    element_bits: int = DEFAULT_ELEMENT_BITS
    addr_overhead: bool = True
    lockstep_oracle: bool = False
    # audit mode re-derives money conservation per successful transaction:
    # sender balance -value, receiver +value, intermediates unchanged
    audit: bool = False

    def validate(self) -> None:
        if self.trees < 1:
            raise ConfigError("trees must be >= 1")
        if self.attempts < 1:
            raise ConfigError("attempts must be >= 1")
        if self.epoch < 1:
            raise ConfigError("epoch must be >= 1")
        if self.landmark_mode not in ("degree", "random"):
            raise ConfigError(f"unknown landmark mode {self.landmark_mode!r}")
        if self.tl is not None and self.tl < 0:
            raise ConfigError("tl must be nonnegative")


@dataclass
class TxMetric:
    index: int
    time: int
    success: bool
    attempts: int
    messages: int
    hop_delay: int
    path_lengths: list[int]
    oracle_feasible: bool | None = None

    @property
    def mean_path_length(self) -> float:
        return sum(self.path_lengths) / len(self.path_lengths) if self.path_lengths else 0.0


@dataclass
class EpochMetric:
    epoch: int
    transactions: int = 0
    successes: int = 0
    stabilization_messages: int = 0
    oracle_feasible: int = 0

    @property
    def success_ratio(self) -> float:
        return self.successes / self.transactions if self.transactions else 0.0


class RunMetrics:
    """Per-transaction and per-epoch records of one simulation run."""

    def __init__(self) -> None:
        self.transactions: list[TxMetric] = []
        self._epochs: dict[int, EpochMetric] = {}

    def epoch(self, index: int) -> EpochMetric:
        em = self._epochs.get(index)
        if em is None:
            em = self._epochs[index] = EpochMetric(index)
        return em

    @property
    def epochs(self) -> list[EpochMetric]:
        """Contiguous epoch list from 0 through the last touched epoch."""
        if not self._epochs:
            return []
        last = max(self._epochs)
        return [self._epochs.get(i) or EpochMetric(i) for i in range(last + 1)]

    def success_ratio(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(t.success for t in self.transactions) / len(self.transactions)

    def mean_hop_delay(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(t.hop_delay for t in self.transactions) / len(self.transactions)

    def mean_messages(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(t.messages for t in self.transactions) / len(self.transactions)

    def mean_path_length(self) -> float:
        lengths = [h for t in self.transactions if t.success for h in t.path_lengths]
        return sum(lengths) / len(lengths) if lengths else 0.0

    def mean_stabilization(self) -> float:
        epochs = self.epochs
        if not epochs:
            return 0.0
        return sum(e.stabilization_messages for e in epochs) / len(epochs)

    def summary(self) -> dict[str, float]:
        return {
            "success_ratio": self.success_ratio(),
            "delay_hops": self.mean_hop_delay(),
            "tx_messages": self.mean_messages(),
            "path_len": self.mean_path_length(),
            "stab_messages": self.mean_stabilization(),
        }


# ---- shared transaction driving ------------------------------------------------


def _valid_endpoints(g: CreditGraph, ev: TransactionEvent) -> bool:
    return (
        ev.src in g.nodes
        and ev.dst in g.nodes
        and ev.src != ev.dst
        and ev.value > 0
    )


def _repair_messages(
    g: CreditGraph,
    embeddings: list[Embedding],
    deltas,
    rng: random.Random,
) -> int:
    messages = 0
    for d in deltas:
        for report in on_link_change(g, embeddings, d.u, d.v, d.old, d.new, rng):
            messages += report.messages
    return messages


def _audit_settlement(ev: TransactionEvent, deltas) -> None:
    """Money conservation: only the endpoints' net balances move.

    Derived purely from the committed weight deltas: a change on (u, v)
    raises v's net balance and lowers u's by the same amount. Settling c
    end to end shifts each forward link down and its reverse up by c, so
    the sender's incoming-minus-outgoing balance rises by exactly 2c, the
    receiver's falls by 2c, and every intermediate nets to zero.
    """
    shifts: dict[NodeId, int] = {}
    for d in deltas:
        change = d.new - d.old
        shifts[d.v] = shifts.get(d.v, 0) + change
        shifts[d.u] = shifts.get(d.u, 0) - change
    if shifts.pop(ev.src, 0) != 2 * ev.value:
        raise InternalError(f"sender balance shift != 2*value on {ev}")
    if shifts.pop(ev.dst, 0) != -2 * ev.value:
        raise InternalError(f"receiver balance shift != -2*value on {ev}")
    for node, change in shifts.items():
        if change != 0:
            raise InternalError(f"intermediate {node} balance changed on {ev}")


# ---- static mode ----------------------------------------------------------------


def run_static(
    g: CreditGraph,
    transactions: list[TransactionEvent],
    policy: RoutingPolicy,
    params: SimParams,
) -> RunMetrics:
    """Run every transaction against the initial state, restoring after each.

    The graph is mutated in place but is returned to its exact initial
    state (weights and trees) before the function returns. Repair
    messages triggered by a payment's weight changes are counted before
    restoration. Transactions whose endpoints are missing (e.g. outside
    the giant component) fail immediately and count in the denominator.
    """
    params.validate()
    if not transactions:
        raise ConfigError("static mode needs a nonempty transaction list")
    seed = params.seed
    # Max-flow routing reads the graph alone, so it gets neither landmarks nor trees.
    tree_free = policy.path_rule == "max-flow"
    landmarks = [] if tree_free else g.select_landmarks(
        params.trees, params.landmark_mode, derive_seed(seed, "landmarks")
    )
    rng = random.Random(derive_seed(seed, "run"))
    executor = make_executor(policy, params.address_len, params.addr_overhead)
    metrics = RunMetrics()
    embeddings: list[Embedding] | None = [] if tree_free else None

    for idx, ev in enumerate(transactions):
        epoch = idx // params.epoch
        if policy.periodic and idx % params.epoch == 0:
            embeddings, msgs = periodic_rebuild(
                g, landmarks, derive_seed(seed, f"rebuild:{epoch}"), params.element_bits
            )
            metrics.epoch(epoch).stabilization_messages += msgs
        elif embeddings is None:
            embeddings = build_embeddings(
                g, landmarks, derive_seed(seed, "bootstrap"), params.element_bits
            )
        em = metrics.epoch(epoch)
        em.transactions += 1

        if not _valid_endpoints(g, ev):
            metrics.transactions.append(TxMetric(idx, ev.time, False, 0, 0, 0, []))
            continue

        feasible: bool | None = None
        if params.lockstep_oracle:
            feasible = flow_feasible(g, ev.src, ev.dst, ev.value)
            if feasible:
                em.oracle_feasible += 1

        if policy.on_demand:
            for emb in embeddings:
                emb.begin_undo()

        ctx = executor.begin(g, embeddings, ev.src, ev.dst, ev.value, rng)
        messages = ctx.setup_messages
        out = None
        used = 0
        for _ in range(params.attempts):
            out = executor.attempt(g, embeddings, ev.src, ev.dst, ev.value, ctx, rng)
            used += 1
            messages += out.messages
            if out.success:
                break
        assert out is not None

        if out.success and feasible is False:
            raise InternalError(
                f"policy succeeded on max-flow-infeasible transaction {idx}"
            )
        if out.success and params.audit:
            _audit_settlement(ev, out.weight_deltas)

        stab = 0
        if out.weight_deltas:
            if policy.on_demand:
                stab = _repair_messages(g, embeddings, out.weight_deltas, rng)
            g.rollback_weights(out.weight_deltas)
        if policy.on_demand:
            for emb in embeddings:
                emb.rollback_undo()
        em.stabilization_messages += stab
        em.successes += out.success

        metrics.transactions.append(
            TxMetric(
                idx, ev.time, out.success, used, messages,
                ctx.setup_delay + out.delay,
                out.path_lengths if out.success else [],
                feasible,
            )
        )

    if g.total_reserved() != 0:
        raise InternalError("reservations leaked across the run")
    return metrics


# ---- dynamic mode -----------------------------------------------------------------


@dataclass
class _PendingTx:
    index: int
    event: TransactionEvent
    ctx: object
    attempts_done: int
    messages: int


@dataclass
class _Schedule:
    """Epoch geometry: one epoch spans `epoch` mean inter-transaction times.

    The mean gap is kept as the exact rational span/den so epoch indices
    come out of pure integer arithmetic.
    """

    t0: int
    span: int  # timestamp span of the transaction list
    den: int   # transaction count - 1
    epoch: int

    @classmethod
    def from_events(cls, events: list[Event], epoch: int) -> _Schedule:
        times = [e.time for e in events if isinstance(e, TransactionEvent)]
        t0 = events[0].time if events else 0
        if len(times) >= 2 and times[-1] > times[0]:
            span, den = times[-1] - times[0], len(times) - 1
        else:
            span, den = 1, 1
        return cls(t0, span, den, epoch)

    def epoch_of(self, t: int) -> int:
        return (t - self.t0) * self.den // (self.epoch * self.span)

    def default_tl(self) -> int:
        """ceil(2 * mean inter-transaction time)."""
        return max(1, -(-2 * self.span // self.den))


def run_dynamic(
    g0: CreditGraph,
    events: list[Event],
    policy: RoutingPolicy,
    params: SimParams,
) -> RunMetrics:
    """Let events mutate a copy of the graph, requeueing failed payments.

    Link changes invoke on-demand repair (or are absorbed until the next
    periodic rebuild); failed transactions retry up to attempts-1 times,
    each rescheduled uniformly within the retry window. Per-epoch metrics
    bin transactions by their initiation time and stabilization messages
    by when they occur.
    """
    params.validate()
    for a, b in zip(events, events[1:]):
        if b.time < a.time:
            raise ConfigError("events must be sorted by time")
    g = g0.clone()
    seed = params.seed
    rng = random.Random(derive_seed(seed, "run"))
    landmarks: list[NodeId] = []
    embeddings: list[Embedding] = []
    if policy.path_rule != "max-flow":  # max-flow routing never reads trees
        landmarks = g.select_landmarks(
            params.trees, params.landmark_mode, derive_seed(seed, "landmarks")
        )
        embeddings = build_embeddings(
            g, landmarks, derive_seed(seed, "bootstrap"), params.element_bits
        )
    executor = make_executor(policy, params.address_len, params.addr_overhead)
    metrics = RunMetrics()

    sched = _Schedule.from_events(events, params.epoch)
    tl = params.tl if params.tl is not None else sched.default_tl()

    heap: list[tuple[int, int, object]] = []
    for seq, ev in enumerate(events):
        heap.append((ev.time, seq, ev))
    heapq.heapify(heap)
    next_seq = len(events)

    current_epoch = 0
    if policy.periodic:
        metrics.epoch(0).stabilization_messages += params.trees * g.undirected_edge_count()
    tx_index = 0

    def finish(pending: _PendingTx, success: bool, delay: int, lengths: list[int],
               feasible: bool | None) -> None:
        origin_epoch = sched.epoch_of(pending.event.time)
        em = metrics.epoch(origin_epoch)
        em.transactions += 1
        em.successes += success
        metrics.transactions.append(
            TxMetric(
                pending.index, pending.event.time, success, pending.attempts_done,
                pending.messages, delay, lengths if success else [], feasible,
            )
        )

    while heap:
        t, _, item = heapq.heappop(heap)
        e = sched.epoch_of(t)
        if e > current_epoch:
            if policy.periodic:
                for crossed in range(current_epoch + 1, e + 1):
                    metrics.epoch(crossed).stabilization_messages += (
                        params.trees * g.undirected_edge_count()
                    )
                embeddings, _ = periodic_rebuild(
                    g, landmarks, derive_seed(seed, f"rebuild:{e}"), params.element_bits
                )
            current_epoch = e

        if isinstance(item, LinkChangeEvent):
            old = g.weight(item.u, item.v)
            delta = g.set_link(item.u, item.v, item.new_weight)
            if policy.on_demand:
                msgs = _repair_messages(g, embeddings, [delta], rng)
                metrics.epoch(e).stabilization_messages += msgs
            continue

        if isinstance(item, TransactionEvent):
            if not _valid_endpoints(g, item):
                pending = _PendingTx(tx_index, item, None, 0, 0)
                tx_index += 1
                finish(pending, False, 0, [], None)
                continue
            ctx = executor.begin(g, embeddings, item.src, item.dst, item.value, rng)
            pending = _PendingTx(tx_index, item, ctx, 0, ctx.setup_messages)
            tx_index += 1
        else:
            pending = item  # a retry

        ev = pending.event
        feasible: bool | None = None
        if params.lockstep_oracle:
            feasible = flow_feasible(g, ev.src, ev.dst, ev.value)
            if pending.attempts_done == 0 and feasible:
                metrics.epoch(sched.epoch_of(ev.time)).oracle_feasible += 1
        out = executor.attempt(g, embeddings, ev.src, ev.dst, ev.value, pending.ctx, rng)
        pending.attempts_done += 1
        pending.messages += out.messages
        if out.success and feasible is False:
            raise InternalError(
                f"policy succeeded on max-flow-infeasible transaction {pending.index}"
            )
        if out.success and params.audit:
            _audit_settlement(ev, out.weight_deltas)
        if out.success:
            if policy.on_demand and out.weight_deltas:
                msgs = _repair_messages(g, embeddings, out.weight_deltas, rng)
                metrics.epoch(e).stabilization_messages += msgs
            finish(pending, True, pending.ctx.setup_delay + out.delay, out.path_lengths, feasible)
        elif pending.attempts_done < params.attempts:
            retry_at = t + rng.randrange(tl + 1)
            heapq.heappush(heap, (retry_at, next_seq, pending))
            next_seq += 1
        else:
            finish(pending, False, pending.ctx.setup_delay + out.delay, [], feasible)

    if g.total_reserved() != 0:
        raise InternalError("reservations leaked across the run")
    return metrics


def run_dynamic_with_oracle(
    g0: CreditGraph,
    events: list[Event],
    policy: RoutingPolicy,
    params: SimParams,
) -> tuple[RunMetrics, RunMetrics]:
    """Run the policy and an independent max-flow twin on its own graph copy.

    The twin diverges in state, as different routing decisions lead to
    different payments; use the result for relative per-epoch success.
    """
    from .baselines import MAX_FLOW_POLICY

    metrics = run_dynamic(g0, events, policy, params)
    baseline = run_dynamic(g0, events, MAX_FLOW_POLICY, params)
    return metrics, baseline


def relative_success(metrics: RunMetrics, baseline: RunMetrics) -> list[float | None]:
    """Per-epoch policy success ratio divided by the baseline's; may exceed 1."""
    epochs = metrics.epochs
    base = {e.epoch: e for e in baseline.epochs}
    out: list[float | None] = []
    for em in epochs:
        be = base.get(em.epoch)
        if be is None or be.transactions == 0 or em.transactions == 0 or be.success_ratio == 0:
            out.append(None)
        else:
            out.append(em.success_ratio / be.success_ratio)
    return out
