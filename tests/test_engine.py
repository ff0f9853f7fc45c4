import dataclasses
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from pbtsim import embedding, engine, stabilization
from pbtsim.baselines import MAX_FLOW_POLICY, GreedyExecutor, grid_policies, parse_policy
from pbtsim.credit import SCALE, credit
from pbtsim.engine import (
    LinkChangeEvent,
    SimParams,
    TransactionEvent,
    run_dynamic,
    run_static,
)
from pbtsim.errors import ConfigError
from pbtsim.graph import CreditGraph
from pbtsim.workload import build_graph, generate_synthetic


def desk_workload(seed=1, n=120, tx=400):
    snap, txf = generate_synthetic(
        n, tx_count=tx, seed=seed, m=3,
        weight_range=(1, 200), value_range=(0.5, 20),
    )
    g = build_graph(snap)
    return g, txf


def graph_state(g):
    return {k: list(v) for k, v in g._links.items()}


def test_static_mode_restores_graph_exactly():
    g, txs = desk_workload()
    before = graph_state(g)
    for label in ("GE-RAND-OND", "LM-MUL-PER", "TO-SM", "FF"):
        run_static(g, txs[:150], parse_policy(label), SimParams(seed=2))
        assert graph_state(g) == before, label


def test_static_determinism_same_seed():
    g, txs = desk_workload()
    a = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=9))
    b = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=9))
    assert [t.__dict__ for t in a.transactions] == [t.__dict__ for t in b.transactions]
    assert [e.__dict__ for e in a.epochs] == [e.__dict__ for e in b.epochs]


def test_static_seeds_differ():
    g, txs = desk_workload()
    a = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=1))
    b = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=2))
    assert [t.messages for t in a.transactions] != [t.messages for t in b.transactions]


def test_static_requires_transactions():
    g, _ = desk_workload()
    with pytest.raises(ConfigError):
        run_static(g, [], parse_policy("GE-RAND-OND"), SimParams())


def test_epoch_accounting_sums_to_total():
    g, txs = desk_workload(tx=350)
    m = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=3, epoch=100))
    assert sum(e.transactions for e in m.epochs) == len(txs)
    assert len(m.epochs) == 4


def test_periodic_stabilization_constant_per_epoch():
    g, txs = desk_workload(tx=300)
    edges = g.undirected_edge_count()
    m = run_static(g, txs, parse_policy("GE-RAND-PER"), SimParams(seed=3, epoch=100, trees=3))
    for e in m.epochs:
        assert e.stabilization_messages == 3 * edges


def test_static_runs_build_their_trees_once(monkeypatch):
    """One build serves every epoch of a static run; a periodic policy is
    still charged trees x edges at every epoch boundary."""
    g, txs = desk_workload(tx=300)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return embedding.build_embeddings(*args, **kwargs)

    monkeypatch.setattr(engine, "build_embeddings", counted)
    monkeypatch.setattr(stabilization, "build_embeddings", counted)
    charge = 2 * g.undirected_edge_count()
    for policy in [*grid_policies(), MAX_FLOW_POLICY]:
        builds.clear()
        m = run_static(g, txs, policy, SimParams(seed=3, epoch=100, trees=2))
        assert len(m.epochs) == 3
        assert len(builds) == (policy is not MAX_FLOW_POLICY), policy.label
        if policy.periodic:
            assert [e.stabilization_messages for e in m.epochs] == [charge] * 3, policy.label


def tree_maps(emb):
    return {name: dict(getattr(emb, name)) for name in ("coord", "parent", "prev_coord")}


@pytest.mark.parametrize("label", ["GE-MUL-OND", "LM-MUL-PER"])
def test_static_rollback_leaves_the_shared_trees_as_built(monkeypatch, label):
    """Every payment of a static run starts from the trees _setup built, so
    one build can serve every epoch."""
    built = []

    def kept(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            trees = result[0] if isinstance(result, tuple) else result
            built.extend((emb, tree_maps(emb)) for emb in trees)
            return result
        return wrapper

    monkeypatch.setattr(engine, "build_embeddings", kept(engine.build_embeddings))
    monkeypatch.setattr(engine, "periodic_rebuild", kept(engine.periodic_rebuild))
    g, txs = desk_workload(tx=300)
    m = run_static(g, txs, parse_policy(label), SimParams(seed=3, epoch=100, trees=2))
    assert len(built) == 2
    if label.endswith("OND"):
        assert sum(e.stabilization_messages for e in m.epochs) > 0  # repairs fired
    for emb, maps in built:
        assert tree_maps(emb) == maps


def test_on_demand_stabilization_cheaper_than_periodic():
    g, txs = desk_workload(tx=300)
    ond = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=3, epoch=100))
    per = run_static(g, txs, parse_policy("GE-RAND-PER"), SimParams(seed=3, epoch=100))
    assert ond.summary()["stab_messages"] <= 0.1 * per.summary()["stab_messages"]


def test_invalid_endpoints_count_as_failures():
    g, txs = desk_workload(tx=50)
    # unknown node, self-payment, non-positive value
    bad = [
        TransactionEvent(0, credit(1), 0, 9999),
        TransactionEvent(1, credit(1), 5, 5),
        TransactionEvent(2, 0, 0, 1),
    ]
    m = run_static(g, bad + txs[:10], parse_policy("GE-RAND-OND"), SimParams(seed=1))
    assert len(m.transactions) == 13
    assert not any(t.success for t in m.transactions[:3])
    assert all(t.messages == 0 and t.attempts == 0 for t in m.transactions[:3])


def test_audit_mode_passes_on_honest_run():
    g, txs = desk_workload(tx=200)
    m = run_static(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=4, audit=True))
    assert m.summary()["success_ratio"] > 0.2


def test_metric_consistency_delay_le_messages():
    g, txs = desk_workload(tx=300)
    for label in ("GE-RAND-OND", "LM-MUL-PER", "TO-SW", "FF"):
        m = run_static(g, txs, parse_policy(label), SimParams(seed=5))
        for t in m.transactions:
            assert t.hop_delay <= t.messages


# ---- dynamic mode -------------------------------------------------------------------


def test_dynamic_requires_sorted_events():
    g, txs = desk_workload(tx=10)
    events = [txs[5], txs[0]]
    with pytest.raises(ConfigError):
        run_dynamic(g, events, parse_policy("GE-RAND-OND"), SimParams(seed=1))


def test_dynamic_leaves_input_graph_untouched():
    g, txs = desk_workload(tx=120)
    before = graph_state(g)
    run_dynamic(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=2))
    assert graph_state(g) == before


def test_dynamic_determinism():
    g, txs = desk_workload(tx=250)
    changes = [LinkChangeEvent(txs[40].time, 0, 1, credit(5)),
               LinkChangeEvent(txs[90].time, 2, 3, 0)]
    events = sorted(changes + txs, key=lambda e: e.time)
    a = run_dynamic(g, events, parse_policy("GE-RAND-OND"), SimParams(seed=7))
    b = run_dynamic(g, events, parse_policy("GE-RAND-OND"), SimParams(seed=7))
    assert [t.__dict__ for t in a.transactions] == [t.__dict__ for t in b.transactions]
    assert [e.__dict__ for e in a.epochs] == [e.__dict__ for e in b.epochs]


def test_dynamic_retries_use_fresh_shares():
    g, txs = desk_workload(tx=300)
    m1 = run_dynamic(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=3, attempts=1))
    m3 = run_dynamic(g, txs, parse_policy("GE-RAND-OND"), SimParams(seed=3, attempts=3))
    assert m3.summary()["success_ratio"] >= m1.summary()["success_ratio"]
    assert any(t.attempts > 1 for t in m3.transactions)


@pytest.mark.xfail(
    strict=True,
    reason="begin issues return addresses once per transaction; retries after a "
    "periodic rebuild still use addresses from the old trees",
)
def test_dynamic_retries_use_current_addresses(monkeypatch):
    snap, txf = generate_synthetic(120, m=2, tx_count=600, seed=4)
    attempt = GreedyExecutor.attempt
    stale = []

    def checked(self, g, embeddings, src, dst, value, ctx, rng):
        for emb, addr in zip(embeddings, ctx.addrs):
            if addr is not None and not addr.is_receiver(emb.coord.get(dst)):
                stale.append((src, dst, emb.tree_index))
        return attempt(self, g, embeddings, src, dst, value, ctx, rng)

    monkeypatch.setattr(GreedyExecutor, "attempt", checked)
    params = SimParams(trees=3, attempts=3, epoch=10, seed=4)
    run_dynamic(build_graph(snap), txf, parse_policy("GE-RAND-PER"), params)
    assert stale == []


def test_dynamic_link_changes_drive_on_demand_repairs():
    g, txs = desk_workload(tx=200, n=80)
    # create a new node joining mid-stream: bidirectional pair via two events
    t_mid = txs[100].time
    joins = [LinkChangeEvent(t_mid, 0, 900, credit(5)),
             LinkChangeEvent(t_mid, 900, 0, credit(5))]
    events = sorted(txs + joins, key=lambda e: e.time)
    m = run_dynamic(g, events, parse_policy("GE-RAND-OND"), SimParams(seed=4))
    assert sum(e.stabilization_messages for e in m.epochs) > 0


def test_dynamic_periodic_pays_per_epoch():
    g, txs = desk_workload(tx=400)
    m = run_dynamic(g, txs, parse_policy("GE-RAND-PER"), SimParams(seed=5, epoch=100))
    per_epoch = [e.stabilization_messages for e in m.epochs]
    edges = g.undirected_edge_count()
    assert per_epoch[0] == 3 * edges
    assert all(v >= 3 * edges for v in per_epoch[:-1])  # graph only grows here


@pytest.mark.parametrize("payments", [1, 2])
def test_dynamic_transactions_spanning_no_time_take_one_time_unit_gaps(line_graph, payments):
    # With no spread between transaction times, the mean gap is one time
    # unit: a change 100 units later falls in epoch 1 of 100-gap epochs.
    events = [TransactionEvent(0, credit(1), 0, 2)] * payments
    events.append(LinkChangeEvent(100 * SCALE, 0, 2, credit(5)))
    m = run_dynamic(line_graph, events, parse_policy("GE-RAND-OND"), SimParams(epoch=100))
    assert [e.epoch for e in m.epochs] == [0, 1]
    assert m.epochs[0].transactions == payments


def test_dynamic_idle_epochs_count_in_the_stabilization_mean(line_graph):
    # A mean gap of two time units: epochs 0 and 1 hold a payment each, the
    # join at t=6 repairs in epoch 3, and epoch 2 stays idle. The summary's
    # stab_messages is a mean per epoch of time, so the idle one counts.
    events = [TransactionEvent(0, credit(1), 0, 2),
              TransactionEvent(2 * SCALE, credit(1), 0, 2),
              LinkChangeEvent(6 * SCALE, 2, 9, credit(5))]
    m = run_dynamic(line_graph, events, parse_policy("GE-RAND-OND"), SimParams(epoch=1))
    assert [e.epoch for e in m.epochs] == [0, 1, 2, 3]
    assert [e.transactions for e in m.epochs] == [1, 1, 0, 0]
    stab = [e.stabilization_messages for e in m.epochs]
    assert stab[2] == 0 and stab[3] > 0
    assert m.summary()["stab_messages"] == sum(stab) / 4


def test_lockstep_oracle_monotone_per_epoch():
    g, txs = desk_workload(tx=250)
    m = run_static(g, txs, parse_policy("GE-RAND-OND"),
                   SimParams(seed=6, epoch=50, lockstep_oracle=True))
    for e in m.epochs:
        assert e.oracle_feasible >= e.successes


def test_max_flow_settles_a_feasible_dynamic_load():
    g, txs = desk_workload(tx=250)
    baseline = run_dynamic(g, txs, MAX_FLOW_POLICY, SimParams(seed=7, epoch=50))
    assert baseline.summary()["success_ratio"] >= 0.9  # max-flow succeeds on feasible loads


# ---- lockstep oracle and audit, pinned ------------------------------------------------

# sha256 of repr([t.__dict__ for t in m.transactions]) and of
# repr([e.__dict__ for e in m.epochs]), recorded before the static and the
# dynamic loop shared one attempt step. The CLI golden digests never turn on
# the lockstep oracle or the audit.
PINNED_DIGESTS = {
    ("static", "GE-RAND-OND"): (
        "e0ed2b5f6599724728cd694d48c9061012e61a71e6a72537884036599c14f41c",
        "3f31fe12d0cec106106a69dbb043621567a64b6c7a061540219552c6b69b3c13",
    ),
    ("static", "LM-MUL-PER"): (
        "74094e73f7f7ec38165980dacec24676166635a62f4fdbe0d5712eaf537d1827",
        "9d8e7a4696bffebc326bd3eb27e9bc6ba3424fbfa7c81d286c443ceda735f692",
    ),
    ("dynamic", "GE-RAND-OND"): (
        "127bd5520b64174e8af9c2d46f81639240d150d20dbdb58711a4a10c6f7c2349",
        "e8dc151862f0926fb7fe035ce76890444684abaf73bc523b47045c19eda7455e",
    ),
    ("dynamic", "LM-MUL-PER"): (
        "28b272731a691ba535090fd1dbae0a83fa4ce04bf8bd39d44d0311abad99b218",
        "25494ecbb3c65c12e3652b2f3608767cd0972bd6b19aa990180e02e664321b89",
    ),
}


def sha256_of(records):
    return hashlib.sha256(repr([r.__dict__ for r in records]).encode()).hexdigest()


@pytest.mark.parametrize("mode,label", sorted(PINNED_DIGESTS))
def test_lockstep_oracle_and_audit_output_pinned(mode, label):
    g, txs = desk_workload(tx=250)
    params = SimParams(seed=7, epoch=50, attempts=3, lockstep_oracle=True, audit=True)
    if mode == "static":
        m = run_static(g, txs, parse_policy(label), params)
    else:
        changes = [LinkChangeEvent(txs[40].time, 0, 1, credit(5)),
                   LinkChangeEvent(txs[90].time, 2, 3, 0)]
        events = sorted(changes + txs, key=lambda e: e.time)
        m = run_dynamic(g, events, parse_policy(label), params)
        for e in m.epochs:
            assert e.oracle_feasible >= e.successes
    assert all(t.oracle_feasible is not None for t in m.transactions)
    assert any(t.attempts > 1 for t in m.transactions)
    assert (sha256_of(m.transactions), sha256_of(m.epochs)) == PINNED_DIGESTS[(mode, label)]


# ---- whole runs on small random workloads -----------------------------------------


@st.composite
def small_workloads(draw):
    """(nodes, links, events, params) of a run on 4 to 12 nodes, often in several components.

    Links are (u, v, forward, backward) credits, a zero backward credit
    leaving a one-way link. Events interleave payments, some with unknown
    endpoints, and link changes that remove, re-create and reweigh links
    and add nodes 12 to 14. Some changes zero both directions of an initial
    link at one time, which can cut a tree's parent link; independent random
    ends rarely do.
    """
    n = draw(st.integers(4, 12))
    node = st.integers(0, n - 1)
    links = draw(st.lists(st.tuples(node, node, st.integers(1, 20), st.integers(0, 20)),
                          min_size=n, max_size=3 * n))
    anyone = st.integers(0, 14)
    time = st.integers(0, 30).map(lambda quarter: quarter * SCALE // 4)
    endpoint = st.one_of(node, node, node, anyone)
    payment = st.builds(TransactionEvent, time, st.integers(1, 8 * SCALE), endpoint, endpoint)
    change = st.builds(LinkChangeEvent, time, anyone, anyone,
                       st.sampled_from([0, 0, credit(1), credit(5), credit(20)]))
    events = draw(st.lists(payment, min_size=1, max_size=12))
    events += [c for c in draw(st.lists(change, max_size=12)) if c.u != c.v]
    for t, (u, v, _, _) in draw(st.lists(st.tuples(time, st.sampled_from(links)), max_size=3)):
        if u != v:
            events += [LinkChangeEvent(t, u, v, 0), LinkChangeEvent(t, v, u, 0)]
    events = sorted(events, key=lambda e: e.time)
    params = SimParams(
        trees=draw(st.integers(1, 3)), attempts=draw(st.integers(1, 3)),
        epoch=draw(st.integers(1, 4)), landmark_mode=draw(st.sampled_from(["degree", "random"])),
        seed=draw(st.integers(0, 99)), lockstep_oracle=draw(st.booleans()),
    )
    return n, links, events, params


def records(m):
    return [t.__dict__ for t in m.transactions], [e.__dict__ for e in m.epochs]


# Two components whose top-degree nodes 1 and 10 become the landmarks: every
# payment between 0 and 2 meets an unattached peer landmark under MUL.
@example(
    (5, [(0, 1, 5, 5), (1, 2, 5, 5), (1, 3, 5, 5), (10, 11, 5, 5), (10, 4, 5, 5)],
     [TransactionEvent(0, credit(1), 0, 2), LinkChangeEvent(SCALE, 2, 0, credit(3)),
      TransactionEvent(4 * SCALE, credit(2), 2, 0)],
     SimParams(trees=2, attempts=2, epoch=2, seed=1)),
)
# Removing both directions of the link 1-2 leaves node 2 detached with no
# neighbor to rejoin: only the tree audit sees a detached node keep a parent.
@example(
    (3, [(0, 1, 5, 5), (1, 2, 5, 5)],
     [LinkChangeEvent(0, 1, 2, 0), LinkChangeEvent(0, 2, 1, 0),
      TransactionEvent(SCALE, credit(1), 0, 1)],
     SimParams(trees=1, attempts=1, epoch=1, seed=0)),
)
# Removing both directions of the parent link 1-2 must reset node 2; the later
# join of node 3 touches the tree, and the audit checks 2's parent link then.
@example(
    (4, [(0, 1, 5, 5), (1, 2, 5, 5)],
     [LinkChangeEvent(0, 1, 2, 0), LinkChangeEvent(0, 2, 1, 0), LinkChangeEvent(0, 0, 3, credit(1)),
      TransactionEvent(SCALE, credit(1), 0, 1)],
     SimParams(trees=1, attempts=1, epoch=1, seed=0)),
)
@settings(max_examples=100, deadline=None)
@given(workload=small_workloads())
def test_whole_random_runs_match_with_audit_on_and_off(workload):
    # A broken ledger or tree invariant, or a failed audit, raises InternalError.
    n, links, events, params = workload
    g = CreditGraph()
    for v in range(n):
        g.add_node(v)
    for u, v, forward, backward in links:
        if u != v:
            g.set_link(u, v, credit(forward))
            g.set_link(v, u, credit(backward))
    payments = [e for e in events if isinstance(e, TransactionEvent)]
    before = graph_state(g)
    for policy in grid_policies() + [MAX_FLOW_POLICY]:
        for run, evs in ((run_static, payments), (run_dynamic, events)):
            plain = run(g, evs, policy, params)
            audited = run(g, evs, policy, dataclasses.replace(params, audit=True))
            assert records(audited) == records(plain), (policy.label, run.__name__)
            assert graph_state(g) == before
