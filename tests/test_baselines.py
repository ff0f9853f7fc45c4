import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pbtsim.baselines import (
    MAX_FLOW_POLICY,
    flow_feasible,
    grid_policies,
    landmark_paths,
    make_executor,
    max_flow,
    mpc_min_assign,
    parse_policy,
    tree_only_paths,
)
from pbtsim.credit import credit
from pbtsim.embedding import build_embeddings, coord_distance
from pbtsim.errors import ConfigError
from pbtsim.graph import CreditGraph

from conftest import random_graph


def bi_link(g, u, v, w=10):
    g.set_link(u, v, credit(w))
    g.set_link(v, u, credit(w))


# ---- policies -----------------------------------------------------------------


def test_parse_policy_aliases():
    assert parse_policy("SilentWhispers").label == "LM-MUL-PER"
    assert parse_policy("speedymurmurs").label == "GE-RAND-OND"
    assert parse_policy("TO-SW").label == "TO-MUL-PER"
    assert parse_policy("TO-SM").label == "TO-RAND-OND"
    assert parse_policy("ford-fulkerson") is MAX_FLOW_POLICY


def test_parse_policy_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_policy("XX-RAND-OND")


def test_grid_has_ten_policies():
    labels = [p.label for p in grid_policies()]
    assert len(labels) == 10
    assert "LM-MUL-PER" in labels and "GE-RAND-OND" in labels
    assert "TO-MUL-PER" in labels and "TO-RAND-OND" in labels


# ---- structural paths ------------------------------------------------------------


@pytest.fixture
def sibling_tree():
    """Landmark 0 with two children 1, 2; 2 has child 3."""
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 0, 2)
    bi_link(g, 2, 3)
    embs = build_embeddings(g, [0], seed=1)
    return g, embs


def test_landmark_paths_siblings_via_landmark(sibling_tree):
    _, embs = sibling_tree
    paths = landmark_paths(embs, 1, 2)
    assert paths[0] == [(1, 0), (0, 2)]  # length = depth(src) + depth(dst)


def test_landmark_path_from_landmark(sibling_tree):
    _, embs = sibling_tree
    assert landmark_paths(embs, 0, 3)[0] == [(0, 2), (2, 3)]


def test_landmark_paths_deep_siblings_still_via_landmark():
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    bi_link(g, 1, 3)
    embs = build_embeddings(g, [0], seed=2)
    paths = landmark_paths(embs, 2, 3)
    assert len(paths[0]) == 4  # up to the landmark and all the way down


def test_tree_only_paths_use_lca(sibling_tree):
    _, embs = sibling_tree
    assert tree_only_paths(embs, 1, 2)[0] == [(1, 0), (0, 2)]
    paths = tree_only_paths(embs, 3, 2)
    assert paths[0] == [(3, 2)]  # dst on src's parent chain


def test_tree_only_length_equals_coord_distance():
    for seed in (3, 4):
        g = random_graph(40, 25, seed=seed)
        embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed=seed)
        rnd = random.Random(seed)
        for _ in range(40):
            a, b = rnd.randrange(40), rnd.randrange(40)
            if a == b:
                continue
            for emb, path in zip(embs, tree_only_paths(embs, a, b)):
                assert len(path) == coord_distance(emb.coord[a], emb.coord[b])


def test_unattached_endpoint_gives_none():
    g = CreditGraph()
    bi_link(g, 0, 1)
    g.add_node(9)
    g.set_link(9, 0, credit(1))
    g.set_link(0, 9, credit(1))
    embs = build_embeddings(g, [0], seed=3)
    embs[0].detach(9)
    assert landmark_paths(embs, 9, 1) == [None]
    assert tree_only_paths(embs, 1, 9) == [None]


def test_path_length_ordering_per_transaction():
    """Greedy <= tree-only <= landmark-centered, per tree."""
    from pbtsim.routing import gen_addresses, next_hop

    for seed in (5, 6):
        g = random_graph(50, 40, seed=seed)
        embs = build_embeddings(g, g.select_landmarks(3, "degree"), seed=seed)
        rnd = random.Random(seed)
        for _ in range(30):
            a, b = rnd.randrange(50), rnd.randrange(50)
            if a == b:
                continue
            lm = landmark_paths(embs, a, b)
            to = tree_only_paths(embs, a, b)
            addrs = gen_addresses(embs, b, rnd)
            for emb, addr, p_lm, p_to in zip(embs, addrs, lm, to):
                assert len(p_to) <= len(p_lm)
                # pure greedy walk (share 0 ignores credit)
                cur, hops = a, 0
                while cur != b and hops <= len(g.nodes):
                    nxt = next_hop(g, emb, cur, addr, 0, rnd)
                    if nxt is None:
                        break
                    cur, hops = nxt, hops + 1
                if cur == b:
                    assert hops <= len(p_to)


# ---- min-based assignment -----------------------------------------------------------


def path_graph(caps):
    """Disjoint 2-hop routes 0 -> (10+i) -> 1 with the given capacities."""
    g = CreditGraph()
    paths = []
    for i, cap in enumerate(caps):
        mid = 10 + i
        g.set_link(0, mid, credit(cap))
        g.set_link(mid, 1, credit(cap))
        paths.append([(0, mid), (mid, 1)])
    return g, paths


def test_mpc_single_path(rng):
    g, paths = path_graph([10])
    assert mpc_min_assign(g, paths, credit(7), rng) == [credit(7)]


def test_mpc_infeasible(rng):
    g, paths = path_graph([3, 3])
    assert mpc_min_assign(g, paths, credit(7), rng) is None


def test_mpc_unique_fixed_point_exhaustive():
    # z = [5, 1], c = 6: the only assignment with shares <= z summing to 6
    # is exactly [5, 1]; every seeded run of the reassignment loop finds it.
    g, paths = path_graph([5, 1])
    feasible = [
        (a, 6 - a) for a in range(7)
        if a <= 5 and (6 - a) <= 1
    ]
    assert feasible == [(5, 1)]
    for seed in range(300):
        shares = mpc_min_assign(g, paths, credit(6), random.Random(seed))
        assert shares == [credit(5), credit(1)]


def test_mpc_respects_minima_and_sum(rng):
    g, paths = path_graph([4, 9, 2])
    for _ in range(200):
        c = credit(rng.randint(1, 15))
        shares = mpc_min_assign(g, paths, c, rng)
        if c > credit(15):
            assert shares is None
            continue
        assert shares is not None
        assert sum(shares) == c
        for share, cap in zip(shares, (4, 9, 2)):
            assert share <= credit(cap)


def test_mpc_dead_path_gets_zero(rng):
    g, paths = path_graph([5, 5])
    shares = mpc_min_assign(g, [paths[0], None], credit(4), rng)
    assert shares is not None
    assert shares[1] == 0 and shares[0] == credit(4)


@settings(max_examples=300, deadline=None)
@given(caps=st.lists(st.integers(0, 12), min_size=1, max_size=7),
       c=st.integers(0, 90), seed=st.integers(0, 2**32 - 1))
def test_mpc_shares_fit_the_minima_whenever_they_cover_the_value(caps, c, seed):
    g, paths = path_graph(caps)
    shares = mpc_min_assign(g, paths, credit(c), random.Random(seed))
    if c > sum(caps):
        assert shares is None
        return
    assert sum(shares) == credit(c)
    assert all(0 <= share <= credit(cap) for share, cap in zip(shares, caps))


# (success, messages, delay) of one attempt of 0 -> 3 on the line 0-1-2-3
# (link 10-11 elsewhere) with the landmarks and value given. GE-MUL pays the
# share-1 walks, 2 x 3 hops per tree, before the min computation; LM/TO-MUL
# pay the min computation and then 2 x the hops reserved.
MIN_CHARGES = {
    ((1, 2), 4): ((True, 20, 11), (True, 23, 11)),
    ((1, 2), 25): ((False, 20, 11), (False, 11, 5)),  # the minima fall short
    ((1, 10), 4): ((False, 6, 6), (False, 0, 0)),  # peer landmark 10 unattached
}


@pytest.mark.parametrize("label", ["GE-MUL-PER", "LM-MUL-PER", "TO-MUL-PER"])
@pytest.mark.parametrize("landmarks,value", sorted(MIN_CHARGES))
def test_min_computation_charges_pinned(label, landmarks, value):
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2), (2, 3), (10, 11)):
        bi_link(g, u, v)
    embs = build_embeddings(g, list(landmarks), 7)
    ex = make_executor(parse_policy(label))
    rng = random.Random(3)
    ctx = ex.begin(g, embs, 0, 3, credit(value), rng)
    out = ex.attempt(g, embs, 0, 3, credit(value), ctx, rng)
    greedy, structural = MIN_CHARGES[(landmarks, value)]
    expected = greedy if label.startswith("GE") else structural
    assert (out.success, out.messages, out.delay) == expected
    assert out.path_lengths == ([3, 3] if out.success else [])
    assert g.total_reserved() == 0


# ---- max flow -----------------------------------------------------------------------


def test_max_flow_single_link():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    assert max_flow(g, 0, 1, target=credit(5)).value == credit(5)
    assert max_flow(g, 0, 1, target=credit(6)).value == credit(5)
    assert flow_feasible(g, 0, 1, credit(5))
    assert not flow_feasible(g, 0, 1, credit(5) + 1)


def test_max_flow_diamond_brute_force():
    # Two disjoint 2-hop routes with capacities 3 and 4. Enumerating all
    # per-route loads (a <= 3, b <= 4) gives max a+b = 7.
    g, _ = path_graph([3, 4])
    best = max(
        a + b
        for a in range(4)
        for b in range(5)
    )
    assert best == 7
    result = max_flow(g, 0, 1)
    assert result.value == credit(7)
    assert sum(amount for _, amount in result.paths) == credit(7)


def to_networkx(g):
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    for (u, v), entry in g._links.items():
        nxg.add_edge(u, v, capacity=entry[0])
    return nxg


def random_small_graph(seed):
    rnd = random.Random(seed)
    n = rnd.randint(2, 12)
    g = CreditGraph()
    for v in range(n):
        g.add_node(v)
    for _ in range(rnd.randint(1, 3 * n)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            g.set_link(u, v, rnd.randint(0, 20) * 10**6)
    return g, n


@pytest.mark.parametrize("chunk", range(4))
def test_max_flow_matches_networkx(chunk):
    for seed in range(chunk * 25, (chunk + 1) * 25):
        g, n = random_small_graph(seed)
        rnd = random.Random(seed + 999)
        src, dst = rnd.randrange(n), rnd.randrange(n)
        if src == dst:
            dst = (src + 1) % n
        ours = max_flow(g, src, dst)
        theirs, _ = nx.maximum_flow(to_networkx(g), src, dst) if len(g._links) else (0, {})
        assert ours.value == theirs
        assert sum(a for _, a in ours.paths) == ours.value
        for links, amount in ours.paths:
            assert links[0][0] == src and links[-1][1] == dst
            assert amount > 0


@st.composite
def reserved_graphs(draw):
    """Small graph with zero-weight rows, one-way links and partial reservations."""
    n = draw(st.integers(2, 9))
    g = CreditGraph()
    for v in range(n):
        g.add_node(v)
    for _ in range(draw(st.integers(0, 3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        w = draw(st.integers(0, 12))
        g.set_link(u, v, w)  # w == 0 removes the link (or never makes it)
        if w:
            g.reserve(u, v, draw(st.integers(0, w)))
    return g, n


@settings(max_examples=300, deadline=None)
@given(data=st.data(), graph=reserved_graphs())
def test_flow_feasible_matches_max_flow_and_networkx(data, graph):
    g, n = graph
    # Node n is unknown to the graph; src == dst is allowed.
    src = data.draw(st.integers(0, n))
    dst = data.draw(st.integers(0, n))
    known = src != dst and src in g.nodes and dst in g.nodes
    if known:
        nxg = nx.DiGraph()
        nxg.add_nodes_from(g.nodes)
        for u, v in g._links:
            if g.available(u, v) > 0:
                nxg.add_edge(u, v, capacity=g.available(u, v))
        value = nx.maximum_flow_value(nxg, src, dst)
        assert max_flow(g, src, dst).value == value
    else:
        value = 0
    extra = data.draw(st.integers(-3, value + 3))
    for c in (0, -1, value, value + 1, extra):
        expected = c <= value
        assert flow_feasible(g, src, dst, c) is expected
        assert (max_flow(g, src, dst, target=c).value >= c) is expected
    g.check_invariants()


def test_flow_feasible_cancels_flow_on_a_shortest_path():
    # Max flow 0 -> 5 is 2 (0-1-4-5 and 0-3-2-5), but the shortest path
    # 0-1-2-5 is as short as either; once it is taken, the second unit
    # needs the residual 2 -> 1 to cancel its middle link.
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2), (2, 5), (0, 3), (3, 2), (1, 4), (4, 5)):
        g.set_link(u, v, 1)
    assert max_flow(g, 0, 5).value == 2
    assert flow_feasible(g, 0, 5, 2)
    assert not flow_feasible(g, 0, 5, 3)


def test_max_flow_target_stops_early(rng):
    g, _ = path_graph([5, 5])
    result = max_flow(g, 0, 1, target=credit(3))
    assert result.value == credit(3)
    ex = make_executor(MAX_FLOW_POLICY)
    out = ex.attempt(g, [], 0, 1, credit(3), ex.begin(g, [], 0, 1, credit(3), rng), rng)
    assert out.messages == out.delay == result.messages  # serial discovery chain model


def test_max_flow_missing_endpoint():
    g = CreditGraph()
    g.set_link(0, 1, credit(1))
    assert max_flow(g, 0, 99).value == 0


# ---- executors -----------------------------------------------------------------------


def test_max_flow_executor_commits_exact_value(rng):
    g, _ = path_graph([3, 4])
    before = {v: g.net_balance(v) for v in g.nodes}
    ex = make_executor(MAX_FLOW_POLICY)
    ctx = ex.begin(g, [], 0, 1, credit(6), rng)
    out = ex.attempt(g, [], 0, 1, credit(6), ctx, rng)
    assert out.success
    assert g.total_reserved() == 0
    assert g.net_balance(0) - before[0] == 2 * credit(6)
    assert g.net_balance(1) - before[1] == -2 * credit(6)
    assert g.net_balance(10) == before[10] and g.net_balance(11) == before[11]


def test_every_grid_policy_runs_end_to_end(rng):
    g = random_graph(30, 20, seed=8)
    embs = build_embeddings(g, g.select_landmarks(3, "degree"), seed=8)
    for policy in grid_policies() + [MAX_FLOW_POLICY]:
        ex = make_executor(policy)
        successes = 0
        for i in range(40):
            src, dst = (i * 7) % 30, (i * 11 + 3) % 30
            if src == dst:
                continue
            ctx = ex.begin(g, embs, src, dst, credit(1), rng)
            out = ex.attempt(g, embs, src, dst, credit(1), ctx, rng)
            successes += out.success
            if out.weight_deltas:
                g.rollback_weights(out.weight_deltas)
        assert g.total_reserved() == 0
        assert successes > 0, policy.label
