"""Event-driven execution of transaction workloads with metric collection.

Every payment follows one lifecycle in both modes. A payment with an
unknown endpoint, a self-payment or a non-positive value fails at once,
without an attempt, and still counts in its epoch. Otherwise the executor
begins it once (return addresses, set-up messages) and then attempts it up
to ``attempts`` times. Each attempt (``_attempt``) asks the lockstep
max-flow oracle first when it is on, runs the executor, adds the attempt's
messages, checks the outcome against the oracle and, in audit mode, against
money conservation, and, once the payment settles under an on-demand
policy, runs the repairs the settlement's weight changes trigger and
returns their message count. The payment's record (``_Payment.metric``)
is built from its counts and its last attempt, and its epoch is the one
the payment started in.

The two modes differ only around that lifecycle:

* Static mode executes each transaction against the same initial state:
  all attempts of a payment run back to back, and after the last one both
  the weights and the trees are restored, keeping transactions independent
  and policy comparisons fair. Epochs are counted by transaction index.
* Dynamic mode lets the graph evolve: link-change events mutate weights
  between attempts, a failed attempt is requeued with a random backoff
  within the retry window, and epochs span one thousand mean
  inter-transaction times by default.

Periodic policies pay one message per tree per undirected edge every
epoch (the initial build counts as the first rebuild; a static run, which
restores its trees, charges that count every epoch without rebuilding).
On-demand policies pay only for the repairs their link changes trigger.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .baselines import (
    Executor,
    RoutingPolicy,
    TxContext,
    flow_feasible,
    make_executor,
)
from .credit import SCALE
from .embedding import Embedding, build_embeddings, derive_seed
from .errors import ConfigError, InternalError
from .graph import CreditGraph, NodeId
from .routing import AttemptOutcome
from .stabilization import on_link_change, periodic_rebuild
from .workload import LinkChangeEvent, TransactionEvent

# ---- events ------------------------------------------------------------------

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
    addr_overhead: bool = True
    lockstep_oracle: bool = False
    # audit mode re-derives money conservation per successful transaction:
    # sender balance -value, receiver +value, intermediates unchanged; a
    # dynamic run also checks the tree and graph invariants (run_dynamic)
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


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


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
        return _mean(self.path_lengths)


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
    """Per-transaction and per-epoch records of one simulation run.

    ``epochs`` runs contiguously from epoch 0 through the last one touched.
    Idle epochs are kept: ``summary`` divides by this list, so its
    ``stab_messages`` is a mean per epoch of time, idle ones included.
    """

    def __init__(self) -> None:
        self.transactions: list[TxMetric] = []
        self.epochs: list[EpochMetric] = []

    def epoch(self, index: int) -> EpochMetric:
        """The record of epoch index, adding idle records up to it."""
        self.epochs.extend(EpochMetric(i) for i in range(len(self.epochs), index + 1))
        return self.epochs[index]

    def summary(self) -> dict[str, float]:
        txs = self.transactions
        return {
            "success_ratio": _mean([t.success for t in txs]),
            "delay_hops": _mean([t.hop_delay for t in txs]),
            "tx_messages": _mean([t.messages for t in txs]),
            "path_len": _mean([h for t in txs if t.success for h in t.path_lengths]),
            "stab_messages": _mean([e.stabilization_messages for e in self.epochs]),
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
    audit_trees: bool,
) -> int:
    """Repair the trees after each weight change and count the messages.

    With ``audit_trees`` every tree a repair touched is checked right after it,
    parent links against the graph included.
    """
    messages = 0
    for d in deltas:
        for report in on_link_change(g, embeddings, d.u, d.v, d.old, d.new, rng):
            messages += report.messages
            if audit_trees:
                embeddings[report.tree_index].check_invariants(g)
    return messages


def _audit_state(g: CreditGraph, embeddings: list[Embedding], on_demand: bool) -> None:
    """The graph's invariants and, under on-demand repair, every tree's.

    Periodic trees are left alone: they are stale between rebuilds by design.
    """
    g.check_invariants()
    if on_demand:
        for emb in embeddings:
            emb.check_invariants(g)


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


def _setup(
    g: CreditGraph, policy: RoutingPolicy, params: SimParams
) -> tuple[list[NodeId], list[Embedding], int, random.Random, Executor]:
    """Landmarks, the first trees, their per-epoch charge, the rng and the executor.

    The only place a run's first trees are built, from the bootstrap seed.
    The charge is trees x undirected edges for a periodic policy, else 0.
    Max-flow routing reads the graph alone: no landmarks, no trees.
    """
    landmarks: list[NodeId] = []
    embeddings: list[Embedding] = []
    charge = 0
    if policy.path_rule != "FF":
        landmarks = g.select_landmarks(
            params.trees, params.landmark_mode, derive_seed(params.seed, "landmarks")
        )
        seed = derive_seed(params.seed, "bootstrap")
        if policy.periodic:
            embeddings, charge = periodic_rebuild(g, landmarks, seed)
        else:
            embeddings = build_embeddings(g, landmarks, seed)
    rng = random.Random(derive_seed(params.seed, "run"))
    return landmarks, embeddings, charge, rng, make_executor(policy, params.addr_overhead)


@dataclass
class _Payment:
    """One payment from its start to its record: its counts so far and its epoch.

    ``ctx`` stays None for a payment whose endpoints are invalid, which fails
    without an attempt.
    """

    index: int
    event: TransactionEvent
    epoch: EpochMetric
    ctx: TxContext | None = None
    attempts: int = 0
    messages: int = 0
    feasible: bool | None = None

    def metric(self, out: AttemptOutcome | None) -> TxMetric:
        """Count the payment in its epoch and return its record.

        ``out`` is the last attempt, or None when no attempt was made.
        """
        em = self.epoch
        em.transactions += 1
        if out is None:
            return TxMetric(self.index, self.event.time, False, 0, 0, 0, [])
        em.successes += out.success
        return TxMetric(
            self.index, self.event.time, out.success, self.attempts,
            self.ctx.setup_messages + self.messages, self.ctx.setup_delay + out.delay,
            out.path_lengths, self.feasible,
        )


def _attempt(
    executor: Executor,
    g: CreditGraph,
    embeddings: list[Embedding],
    pay: _Payment,
    rng: random.Random,
    params: SimParams,
    on_demand: bool,
    audit_trees: bool = False,
) -> tuple[AttemptOutcome, int]:
    """One attempt of a payment: the outcome and the messages of the repairs it caused.

    The lockstep oracle answers before the attempt and counts in the
    payment's epoch on the first attempt only; a success is checked against
    it and, in audit mode, against the ledger. A settlement under an
    on-demand policy triggers the repairs of its weight changes, checked
    tree by tree with ``audit_trees``.
    """
    ev = pay.event
    if params.lockstep_oracle:
        pay.feasible = flow_feasible(g, ev.src, ev.dst, ev.value)
        if pay.feasible and pay.attempts == 0:
            pay.epoch.oracle_feasible += 1
    out = executor.attempt(g, embeddings, ev.src, ev.dst, ev.value, pay.ctx, rng)
    pay.attempts += 1
    pay.messages += out.messages
    if not out.success:
        return out, 0
    if pay.feasible is False:
        raise InternalError(f"policy succeeded on max-flow-infeasible transaction {pay.index}")
    if params.audit:
        _audit_settlement(ev, out.weight_deltas)
    if on_demand and out.weight_deltas:
        return out, _repair_messages(g, embeddings, out.weight_deltas, rng, audit_trees)
    return out, 0


# ---- static mode ----------------------------------------------------------------


def run_static(
    g: CreditGraph,
    transactions: list[TransactionEvent],
    policy: RoutingPolicy,
    params: SimParams,
) -> RunMetrics:
    """Run every transaction against the initial state, restoring after each.

    The graph is mutated in place but is returned to its exact initial
    state (weights and trees) after each payment, so the trees ``_setup``
    builds serve every epoch and a periodic policy is charged at each
    epoch boundary without rebuilding. Repair messages triggered by a
    payment's weight changes are counted before restoration. Transactions
    whose endpoints are missing (e.g. outside the giant component) fail
    immediately and count in the denominator.
    """
    params.validate()
    if not transactions:
        raise ConfigError("static mode needs a nonempty transaction list")
    _, embeddings, charge, rng, executor = _setup(g, policy, params)
    metrics = RunMetrics()

    for idx, ev in enumerate(transactions):
        pay = _Payment(idx, ev, metrics.epoch(idx // params.epoch))
        if idx % params.epoch == 0:
            pay.epoch.stabilization_messages += charge
        if not _valid_endpoints(g, ev):
            metrics.transactions.append(pay.metric(None))
            continue

        if policy.on_demand:
            for emb in embeddings:
                emb.begin_undo()
        pay.ctx = executor.begin(g, embeddings, ev.src, ev.dst, ev.value, rng)
        for _ in range(params.attempts):
            out, stab = _attempt(executor, g, embeddings, pay, rng, params, policy.on_demand)
            if out.success:
                break

        if out.weight_deltas:
            g.rollback_weights(out.weight_deltas)
        if policy.on_demand:
            for emb in embeddings:
                emb.rollback_undo()
        pay.epoch.stabilization_messages += stab
        metrics.transactions.append(pay.metric(out))

    if g.total_reserved() != 0:
        raise InternalError("reservations leaked across the run")
    return metrics


# ---- dynamic mode -----------------------------------------------------------------


def run_dynamic(
    g0: CreditGraph,
    events: list[Event],
    policy: RoutingPolicy,
    params: SimParams,
) -> RunMetrics:
    """Let events mutate a copy of the graph, requeueing failed payments.

    Link changes invoke on-demand repair (or are absorbed until the next
    periodic rebuild); failed transactions retry up to attempts-1 times,
    each rescheduled uniformly within the retry window, by default
    ceil(2 x mean gap). Per-epoch metrics bin transactions by their
    initiation time and stabilization messages by when they occur.

    One epoch spans ``params.epoch`` mean gaps between payments. The mean
    gap is kept as the exact rational span/den (the payments' time span
    over their count - 1), so epoch indices come out of integer
    arithmetic; it is one time unit when the payments span no time.

    In audit mode the run also checks every tree a repair touched right
    after the repair, and at each epoch boundary and at the end the graph's
    invariants and, under on-demand repair, every tree, so a tree that a
    change left stale is caught without waiting for a repair to touch it.
    """
    params.validate()
    for a, b in zip(events, events[1:]):
        if b.time < a.time:
            raise ConfigError("events must be sorted by time")
    g = g0.clone()
    landmarks, embeddings, charge, rng, executor = _setup(g, policy, params)
    metrics = RunMetrics()
    if policy.periodic:
        metrics.epoch(0).stabilization_messages += charge

    times = [e.time for e in events if isinstance(e, TransactionEvent)]
    t0 = events[0].time if events else 0
    if len(times) >= 2 and times[-1] > times[0]:
        span, den = times[-1] - times[0], len(times) - 1
    else:
        span, den = SCALE, 1  # no spread to measure: a mean gap of one time unit

    def epoch_of(t: int) -> int:
        return (t - t0) * den // (params.epoch * span)

    tl = params.tl if params.tl is not None else max(1, -(-2 * span // den))

    heap: list[tuple[int, int, object]] = [(ev.time, seq, ev) for seq, ev in enumerate(events)]
    heapq.heapify(heap)
    next_seq = len(events)

    current_epoch = 0
    tx_index = 0

    while heap:
        t, _, item = heapq.heappop(heap)
        e = epoch_of(t)
        if e > current_epoch:
            if params.audit:
                _audit_state(g, embeddings, policy.on_demand)
            if policy.periodic:
                # One rebuild per boundary; every crossed epoch pays for one.
                embeddings, msgs = periodic_rebuild(
                    g, landmarks, derive_seed(params.seed, f"rebuild:{e}")
                )
                for crossed in range(current_epoch + 1, e + 1):
                    metrics.epoch(crossed).stabilization_messages += msgs
            current_epoch = e

        if isinstance(item, LinkChangeEvent):
            delta = g.set_link(item.u, item.v, item.new_weight)
            if policy.on_demand:
                msgs = _repair_messages(g, embeddings, [delta], rng, params.audit)
                metrics.epoch(e).stabilization_messages += msgs
            continue

        if isinstance(item, TransactionEvent):
            pay = _Payment(tx_index, item, metrics.epoch(epoch_of(item.time)))
            tx_index += 1
            if not _valid_endpoints(g, item):
                metrics.transactions.append(pay.metric(None))
                continue
            pay.ctx = executor.begin(g, embeddings, item.src, item.dst, item.value, rng)
        else:
            pay = item  # a retry

        out, stab = _attempt(
            executor, g, embeddings, pay, rng, params, policy.on_demand, params.audit
        )
        if out.success and policy.on_demand:
            # Also when stab is 0: the settlement opens the current epoch's record.
            metrics.epoch(e).stabilization_messages += stab
        if not out.success and pay.attempts < params.attempts:
            retry_at = t + rng.randrange(tl + 1)
            heapq.heappush(heap, (retry_at, next_seq, pay))
            next_seq += 1
        else:
            metrics.transactions.append(pay.metric(out))

    if params.audit:
        _audit_state(g, embeddings, policy.on_demand)
    if g.total_reserved() != 0:
        raise InternalError("reservations leaked across the run")
    return metrics

