"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test records a PASS/FAIL line that the conftest hook prints in the
terminal summary. The desk-scale comparison workload is a 1,000-node
scale-free credit graph (triadic closure, a share of one-way credit
lines, log-uniform weights and values) with transaction pools filtered to
max-flow-feasible entries, mirroring the static-mode methodology.
"""

import functools
import os
import random
import statistics
from collections import deque
from concurrent.futures import ProcessPoolExecutor

import networkx as nx
import pytest

from pbtsim.baselines import (
    flow_feasible,
    grid_policies,
    max_flow,
    parse_policy,
)
from pbtsim.cli import main as cli_main
from pbtsim.credit import credit
from pbtsim.embedding import Embedding, coord_distance
from pbtsim.engine import (
    LinkChangeEvent,
    SimParams,
    TransactionEvent,
    run_dynamic,
    run_static,
)
from pbtsim.graph import CreditGraph
from pbtsim.stabilization import periodic_rebuild
from pbtsim.workload import build_graph, generate_synthetic, preprocess, \
    parse_link_changes, parse_snapshot, parse_transactions

from conftest import record_acceptance, unreachable_target

# Frozen desk-scale comparison workload (tuned once, then pinned).
DESK = dict(
    n=1000, model="scale-free", m=5, triad_p=0.4, unidirectional_fraction=0.15,
    weight_range=(0.3, 1000.0), value_range=(0.2, 15.0),
)
TREES = 3
ATTEMPTS = 2


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                record_acceptance(name, "SKIP")
                raise
            except BaseException:
                record_acceptance(name, "FAIL")
                raise
            record_acceptance(name, "PASS")
        return wrapper
    return deco


def desk_graph_and_pool(seed, pool_size, feasible_only=True):
    snap, txf = generate_synthetic(
        tx_count=int(pool_size * 1.3) if feasible_only else pool_size,
        seed=seed, **DESK,
    )
    g = build_graph(snap)
    pool = []
    for ev in txf:
        if len(pool) == pool_size:
            break
        if not feasible_only or flow_feasible(g, ev.src, ev.dst, ev.value):
            pool.append(ev)
    return g, pool


# ---- criterion 1: coordinate distance equals tree BFS distance --------------------


@criterion("01 coord-distance equals tree BFS")
def test_c1_coord_distance_oracle():
    rnd = random.Random(2024)
    pairs_checked = 0
    for t in range(1000):
        n = rnd.randint(2, 200)
        emb = Embedding(0, 0, 32)
        adj = {0: []}
        for v in range(1, n):
            p = rnd.randrange(v)
            emb.attach(v, p, rnd.getrandbits(32))
            adj.setdefault(p, []).append(v)
            adj.setdefault(v, []).append(p)
        for _ in range(10):
            a, b = rnd.randrange(n), rnd.randrange(n)
            dist = {a: 0}
            queue = deque([a])
            while queue and b not in dist:
                node = queue.popleft()
                for x in adj[node]:
                    if x not in dist:
                        dist[x] = dist[node] + 1
                        queue.append(x)
            assert coord_distance(emb.coord[a], emb.coord[b]) == dist[b]
            pairs_checked += 1
    assert pairs_checked == 10_000


# ---- criterion 2: correctness under every grid policy ------------------------------


@criterion("02 correctness for every grid policy")
def test_c2_grid_correctness():
    g, pool = desk_graph_and_pool(seed=101, pool_size=10_000, feasible_only=False)
    audit_count = 0
    reserve = g.reserve

    def audited_reserve(u, v, amount):
        """Reserve as the graph does, then check the ledger of a granted reservation."""
        nonlocal audit_count
        ok = reserve(u, v, amount)
        if ok:
            audit_count += 1
            weight, reserved = g.weight(u, v), g.reserved(u, v)
            assert 0 <= amount <= weight
            assert 0 <= reserved <= weight
        return ok

    g.reserve = audited_reserve
    for policy in grid_policies():
        params = SimParams(trees=TREES, attempts=ATTEMPTS, seed=7, audit=True)
        metrics = run_static(g, pool, policy, params)
        assert metrics.summary()["success_ratio"] > 0, policy.label
    assert audit_count > 100_000


# ---- criterion 3: distributed max-flow equals centralized oracle --------------------


@criterion("03 max-flow equals centralized oracle")
def test_c3_max_flow_oracle():
    for seed in range(500):
        rnd = random.Random(seed)
        n = rnd.randint(2, 12)
        g = CreditGraph()
        for v in range(n):
            g.add_node(v)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        for _ in range(rnd.randint(1, 3 * n)):
            u, v = rnd.randrange(n), rnd.randrange(n)
            cap = rnd.randint(0, 25) * 10**6
            if u != v and cap > 0:
                g.set_link(u, v, cap)
                nxg.add_edge(u, v, capacity=cap)
        src, dst = rnd.randrange(n), (rnd.randrange(n - 1) + 1) % n
        if src == dst:
            dst = (dst + 1) % n
        ours = max_flow(g, src, dst, unreachable_target(g)).value
        theirs = nx.maximum_flow_value(nxg, src, dst) if nxg.number_of_edges() else 0
        assert ours == theirs, (seed, src, dst)


# ---- criterion 4: success implies max-flow feasibility ------------------------------


@criterion("04 success implies max-flow feasibility")
def test_c4_feasibility_bound():
    g, pool = desk_graph_and_pool(seed=202, pool_size=3000, feasible_only=False)
    params = SimParams(trees=TREES, attempts=ATTEMPTS, seed=11,
                       lockstep_oracle=True, epoch=500)
    # the engine raises InternalError if any success is infeasible
    metrics = run_static(g, pool, parse_policy("GE-RAND-OND"), params)
    assert metrics.summary()["success_ratio"] > 0
    for e in metrics.epochs:
        assert e.oracle_feasible >= e.successes


# ---- criterion 5: periodic stabilization identity -----------------------------------


@criterion("05 periodic stabilization = trees x edges")
def test_c5_periodic_identity():
    for seed, trees in ((1, 1), (2, 3), (3, 5)):
        snap, _ = generate_synthetic(300, seed=seed, m=3)
        g = build_graph(snap)
        landmarks = g.select_landmarks(trees, "degree", seed)
        _, messages = periodic_rebuild(g, landmarks, seed)
        assert messages == trees * g.undirected_edge_count()
    # Table-constant instance: 3 trees over 199,574 edges
    assert 3 * 199_574 == 598_722


# ---- criterion 6: comparison-grid orderings at desk scale ----------------------------

_C6_POLICIES = ("GE-RAND-OND", "LM-MUL-PER", "LM-RAND-PER", "TO-RAND-OND")


def _c6_run_seed(seed):
    g, pool = desk_graph_and_pool(seed=seed, pool_size=10_000)
    out = {}
    for label in _C6_POLICIES:
        params = SimParams(trees=TREES, attempts=ATTEMPTS,
                           landmark_mode="degree", seed=seed)
        out[label] = run_static(g, pool, parse_policy(label), params).summary()
    return out


@criterion("06 Table-1 orderings at desk scale")
def test_c6_table_orderings():
    seeds = list(range(21, 41))
    workers = min(2, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_c6_run_seed, seeds))
    else:
        results = [_c6_run_seed(s) for s in seeds]

    checks = {
        "path_len GE < LM": lambda r: r["GE-RAND-OND"]["path_len"] < r["LM-MUL-PER"]["path_len"],
        "messages GE < 0.5 LM": lambda r: r["GE-RAND-OND"]["tx_messages"]
        < 0.5 * r["LM-MUL-PER"]["tx_messages"],
        "success GE >= LM - 0.05": lambda r: r["GE-RAND-OND"]["success_ratio"]
        >= r["LM-MUL-PER"]["success_ratio"] - 0.05,
        "success LM-RAND <= LM-MUL - 0.10": lambda r: r["LM-RAND-PER"]["success_ratio"]
        <= r["LM-MUL-PER"]["success_ratio"] - 0.10,
        "path_len GE <= TO <= LM": lambda r: r["GE-RAND-OND"]["path_len"]
        <= r["TO-RAND-OND"]["path_len"] <= r["LM-MUL-PER"]["path_len"],
        "delay GE < LM": lambda r: r["GE-RAND-OND"]["delay_hops"] < r["LM-MUL-PER"]["delay_hops"],
    }
    # Every ordering is counted, so one failing ordering does not hide another.
    held = {name: sum(bool(check(r)) for r in results) for name, check in checks.items()}
    short = [f"{name}: held on {n}/20 seeds" for name, n in held.items() if n < 18]
    assert not short, "; ".join(short)


# ---- criterion 7: on-demand stabilization is far cheaper -----------------------------


@criterion("07 on-demand stabilization <= 0.1x periodic")
def test_c7_stabilization_overhead():
    g, pool = desk_graph_and_pool(seed=303, pool_size=5000, feasible_only=False)
    params = lambda: SimParams(trees=TREES, attempts=ATTEMPTS, seed=13, epoch=500)
    ond = run_static(g, pool, parse_policy("GE-RAND-OND"), params())
    per = run_static(g, pool, parse_policy("GE-RAND-PER"), params())
    med_ond = statistics.median(e.stabilization_messages for e in ond.epochs)
    med_per = statistics.median(e.stabilization_messages for e in per.epochs)
    assert med_per == TREES * g.undirected_edge_count()
    assert med_ond <= 0.1 * med_per


# ---- criterion 8: dynamic burst spike and recovery -----------------------------------


def _burst_events(g, seed):
    """Quiet paced transactions with steady light churn, then a join burst."""
    rnd = random.Random(seed)
    snap_nodes = sorted(g.nodes)
    step = 10**6  # one second per transaction, epoch = 100 of them
    _, txf = generate_synthetic(
        len(snap_nodes), tx_count=2000, seed=seed, m=2,
        weight_range=(1, 100), value_range=(0.2, 5),
    )
    events = [TransactionEvent(i * step, t.value, t.src, t.dst)
              for i, t in enumerate(txf)]
    # light churn: drop and re-create one leaf link every 25 seconds
    leaves = [v for v in snap_nodes if g.degree(v) <= 2]
    for i, t in enumerate(range(0, 2000, 25)):
        leaf = leaves[rnd.randrange(len(leaves))]
        nb = g.neighbors(leaf)[0]
        w = g.weight(nb, leaf) or credit(5)
        events.append(LinkChangeEvent(t * step + 1, nb, leaf, 0))
        events.append(LinkChangeEvent(t * step + 2, nb, leaf, w))
    # burst: 500 new nodes join inside epoch 10, anchored at well-connected
    # nodes so the later quiet-period churn keeps its pre-burst profile
    hubs = [v for v in snap_nodes if g.degree(v) >= 5] or snap_nodes
    base = 10 * 100 * step
    for j in range(500):
        new = 10_000 + j
        anchor = hubs[rnd.randrange(len(hubs))]
        t = base + (j % 90) * step
        events.append(LinkChangeEvent(t, anchor, new, credit(5)))
        events.append(LinkChangeEvent(t, new, anchor, credit(5)))
    events.sort(key=lambda e: e.time)
    return events


@criterion("08 dynamic burst spikes and recovers")
def test_c8_dynamic_spike():
    for seed in (1, 2, 3):
        snap, _ = generate_synthetic(300, seed=seed, m=2, weight_range=(1, 100))
        g = build_graph(snap)
        events = _burst_events(g, seed)
        params = SimParams(trees=TREES, attempts=1, seed=seed, epoch=100)
        metrics = run_dynamic(g, events, parse_policy("GE-RAND-OND"), params)
        stab = [e.stabilization_messages for e in metrics.epochs]
        assert len(stab) >= 15
        quiet = stab[:10]
        med_quiet = statistics.median(quiet)
        assert med_quiet > 0
        assert stab[10] >= 10 * med_quiet, (seed, stab)
        # back to quiet within two epochs of the burst
        assert stab[12] <= max(quiet), (seed, stab)


# ---- criterion 9: reservation and conservation fuzz -----------------------------------


@criterion("09 reservation/conservation fuzz")
def test_c9_reservation_fuzz():
    rnd = random.Random(99)
    g = CreditGraph()
    n = 8
    for u in range(n):
        for v in range(u + 1, n):
            g.set_link(u, v, credit(rnd.randint(1, 30)))
            g.set_link(v, u, credit(rnd.randint(1, 30)))
    outstanding = []  # (path, amount) with reservations held

    def random_path():
        a = rnd.randrange(n)
        length = rnd.randint(1, 3)
        path = []
        cur = a
        for _ in range(length):
            nxt = rnd.randrange(n)
            if nxt == cur:
                nxt = (nxt + 1) % n
            path.append((cur, nxt))
            cur = nxt
        return path

    sequences = 0
    for step in range(100_000):
        roll = rnd.random()
        if outstanding and roll < 0.45:
            path, amount = outstanding.pop(rnd.randrange(len(outstanding)))
            if rnd.random() < 0.5:
                g.commit_payment(path, amount)
            else:
                for x, y in path:
                    g.release(x, y, amount)
        else:
            path = random_path()
            amount = credit(rnd.randint(0, 6))
            taken = []
            ok = True
            for x, y in path:
                if g.reserve(x, y, amount):
                    taken.append((x, y))
                else:
                    ok = False
                    break
            if ok:
                outstanding.append((path, amount))
                sequences += 1
            else:
                for x, y in taken:
                    g.release(x, y, amount)
        if step % 5000 == 0:
            g.check_invariants()
            assert sum(g.net_balance(v) for v in g.nodes) == 0
    for path, amount in outstanding:
        for x, y in path:
            g.release(x, y, amount)
    g.check_invariants()
    assert g.total_reserved() == 0
    assert sum(g.net_balance(v) for v in g.nodes) == 0
    assert sequences > 10_000


# ---- criterion 10: CLI determinism ------------------------------------------------------


@criterion("10 cmd_run byte-identical reruns")
def test_c10_cli_determinism(tmp_path):
    snap = tmp_path / "snapshot.csv"
    txs = tmp_path / "transactions.csv"
    assert cli_main([
        "generate", "--nodes", "150", "--tx-count", "400", "--seed", "8",
        "--snapshot-out", str(snap), "--transactions-out", str(txs),
    ]) == 0
    changes = tmp_path / "changes.csv"
    changes.write_text("time,u,v,new_weight\n1000000,0,1,0\n2000000,0,5,12\n")

    def run_into(out_dir, mode):
        args = [
            "run", "--mode", mode, "--policy", "GE-RAND-OND",
            "--snapshot", str(snap), "--transactions", str(txs),
            "--out", str(out_dir), "--runs", "2", "--seed", "3", "--epoch", "100",
        ]
        if mode == "dynamic":
            args += ["--link-changes", str(changes)]
        assert cli_main(args) == 0
        return {
            name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))
        }

    for mode in ("static", "dynamic"):
        a = run_into(tmp_path / f"{mode}_a", mode)
        b = run_into(tmp_path / f"{mode}_b", mode)
        assert a == b, mode


# ---- criterion 11: conditional dataset reproduction --------------------------------------


@criterion("11 crawl dataset reproduction")
def test_c11_dataset_reproduction():
    root = os.environ.get("PBTSIM_RIPPLE_DIR")
    if not root:
        pytest.skip("crawl files not available (set PBTSIM_RIPPLE_DIR); recorded SKIP")
    with open(os.path.join(root, "snapshot.csv"), encoding="utf-8") as fh:
        snapshot = parse_snapshot(fh.read())
    with open(os.path.join(root, "transactions.csv"), encoding="utf-8") as fh:
        txs = parse_transactions(fh.read())
    with open(os.path.join(root, "link_changes.csv"), encoding="utf-8") as fh:
        changes = parse_link_changes(fh.read())
    result = preprocess(snapshot, txs, changes)
    assert result.report["nodes_kept"] == 67_149
    assert result.report["links_kept"] == 199_574
    assert result.report["transactions_kept"] == 692_737
