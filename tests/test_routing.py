import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pbtsim.baselines import make_executor, parse_policy
from pbtsim.credit import credit
from pbtsim.embedding import (
    Embedding,
    address_distance,
    build_embeddings,
    coord_distance,
    gen_return_address,
)
from pbtsim.engine import SimParams, run_static
from pbtsim.errors import InternalError
from pbtsim.graph import CreditGraph, LinkDelta
from pbtsim.stabilization import on_link_change
from pbtsim.routing import (
    build_neighbor_index,
    gen_addresses,
    given as given_paths,
    greedy_walk,
    next_hop,
    route_probe,
    settle,
    split_value,
)
from pbtsim.workload import TransactionEvent

from conftest import bi_link, random_graph


# ---- split_value -----------------------------------------------------------------


def test_split_single_share(rng):
    assert split_value(credit(10), 1, rng) == [credit(10)]


def test_split_zero_value(rng):
    assert split_value(0, 3, rng) == [0, 0, 0]


def test_split_sums_exactly(rng):
    for _ in range(200):
        c = rng.randint(0, credit(50))
        k = rng.randint(1, 6)
        shares = split_value(c, k, rng)
        assert sum(shares) == c
        assert all(s >= 0 for s in shares)


def test_split_uniform_chi_square():
    """share_1 for c=6 micro-units, k=2 is uniform on {0..6} over 1e6 seeds."""
    counts = [0] * 7
    for seed in range(1_000_000):
        share = split_value(6, 2, random.Random(seed))[0]
        counts[share] += 1
    n = 1_000_000
    p = 1 / 7
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) <= 3 * sigma


# ---- next_hop -------------------------------------------------------------------


def two_path_embeddings():
    """Two trees rooted at the receiver, one per disjoint route.

    Graph: 0 -> 1 -> 3 with capacity 3, and 0 -> 2 -> 3 with capacity 7.
    Tree 0 only knows route A; tree 1 only knows route B.
    """
    g = CreditGraph()
    g.set_link(0, 1, credit(3))
    g.set_link(1, 3, credit(3))
    g.set_link(0, 2, credit(7))
    g.set_link(2, 3, credit(7))
    rnd = random.Random(5)
    t0 = Embedding(0, 3, 32)
    t0.attach(1, 3, rnd.getrandbits(32))
    t0.attach(0, 1, rnd.getrandbits(32))
    t1 = Embedding(1, 3, 32)
    t1.attach(2, 3, rnd.getrandbits(32))
    t1.attach(0, 2, rnd.getrandbits(32))
    return g, [t0, t1]


def test_next_hop_reaches_receiver_via_parent(line_graph, rng):
    emb = build_embeddings(line_graph, [0], seed=1)[0]
    addr = gen_return_address(emb.coord[2], 8, rng)
    assert next_hop(line_graph, emb, 1, addr, credit(1), rng) == 2


def test_next_hop_uses_shortcut_with_credit(rng):
    # Closer tree neighbors lack credit; an equally-closer shortcut has it.
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    bi_link(g, 2, 3)
    bi_link(g, 0, 4)
    bi_link(g, 4, 3)  # shortcut branch 4 -> 3
    emb = build_embeddings(g, [0], seed=2)[0]
    addr = gen_return_address(emb.coord[3], 8, rng)
    # routing from node 4: direct link to 3 carries the funds
    assert next_hop(g, emb, 4, addr, credit(5), rng) == 3
    # drain the direct link; with a too-large share there is no candidate
    g.set_link(4, 3, credit(1))
    assert next_hop(g, emb, 4, addr, credit(5), rng) is None


def test_next_hop_zero_share_is_pure_greedy(rng):
    g = CreditGraph()
    g.set_link(1, 0, credit(5))  # no forward credit 0 -> 1 at all
    g.set_link(1, 2, credit(5))
    g.set_link(2, 1, credit(5))
    emb = build_embeddings(g, [1], seed=3)[0]
    addr = gen_return_address(emb.coord[2], 8, rng)
    assert next_hop(g, emb, 0, addr, 0, rng) == 1  # credit constraint vacuous
    assert next_hop(g, emb, 0, addr, credit(1), rng) is None


def scan_next_hop(g, emb, current, addr, share, rng):
    """next_hop as a plain scan of every neighbor in ascending id: plaintext
    distance, checked before credit. The reference for the neighbor index."""
    coords = emb.coord
    cur_coord = coords.get(current)
    if cur_coord is None:
        return None
    target = addr.elements
    best_d = coord_distance(cur_coord, target)
    ties = []
    for n in g.neighbors(current):
        coord = coords.get(n)
        if coord is None:
            continue
        d = coord_distance(coord, target)
        if d > best_d:
            continue
        if share > 0 and g.available(current, n) < share:
            continue
        if d < best_d:
            best_d = d
            ties = [n]
        elif ties:
            ties.append(n)
    if not ties:
        return None
    return ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]


def reference_next_hop(g, emb, current, addr, share, rng):
    """next_hop as the hashed model states it: credit check, then keyed-hash distance."""
    cur_coord = emb.coord.get(current)
    if cur_coord is None:
        return None
    best_d = address_distance(cur_coord, addr)
    ties = []
    for n in g.neighbors(current):
        coord = emb.coord.get(n)
        if coord is None:
            continue
        if share > 0 and g.available(current, n) < share:
            continue
        d = address_distance(coord, addr)
        if d < best_d:
            best_d = d
            ties = [n]
        elif d == best_d and ties:
            ties.append(n)
    if not ties:
        return None
    return ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    element_bits=st.sampled_from([4, 16, 128]),
    share_units=st.sampled_from([0, 1, 10, 30]),
)
def test_next_hop_matches_hashed_reference(seed, element_bits, share_units):
    """Plaintext next_hop picks the hop and draws the randomness the hashed
    reference does, from every node toward every receiver."""
    g = random_graph(25, 30, seed=seed)
    rnd = random.Random(seed)
    # one-way links and partly reserved links vary the credit filter
    for u, v in list(g._links)[::4]:
        g.set_link(u, v, 0)
    for u, v in list(g._links)[::3]:
        g.reserve(u, v, min(g.weight(u, v), credit(rnd.randint(0, 20))))
    emb = build_embeddings(g, g.select_landmarks(1, "degree"), seed, element_bits)[0]
    share = credit(share_units)
    for r in sorted(emb.coord):
        addr = gen_return_address(emb.coord[r], 16, rnd, element_bits)
        for cur in sorted(g.nodes):
            rng_plain, rng_hashed = random.Random(cur), random.Random(cur)
            assert next_hop(g, emb, cur, addr, share, rng_plain) == \
                reference_next_hop(g, emb, cur, addr, share, rng_hashed)
            assert rng_plain.getstate() == rng_hashed.getstate()


def assert_indexes_fresh(g, emb):
    """Every cached neighbor index built from the node's current neighbor
    list equals a fresh build (call after a next_hop, which drops moved ones)."""
    assert not emb.moved
    for node, (nbrs, trie) in emb.neighbor_index.items():
        if nbrs is g.neighbors(node):
            assert trie == build_neighbor_index(emb.coord, nbrs), node


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    element_bits=st.sampled_from([4, 16, 128]),
    data=st.data(),
)
def test_next_hop_index_matches_scan_across_changes(seed, element_bits, data):
    """The indexed next_hop picks the hop and draws the randomness of the plain
    scan while links come and go, trees repair, single nodes move or drop out
    of a tree, and all of it is rolled back."""
    g = random_graph(24, 30, seed=seed)
    rnd = random.Random(seed)
    for u, v in list(g._links)[::5]:
        g.set_link(u, v, 0)
    embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed, element_bits)
    nodes = sorted(g.nodes) + [24, 25]  # two ids join only through link changes
    undo: list | None = None  # weight deltas since begin_undo, while one is open
    for _ in range(data.draw(st.integers(5, 30), label="steps")):
        op = data.draw(st.sampled_from(["query", "query", "link", "link", "move", "undo"]), label="op")
        if op == "link":
            u = data.draw(st.sampled_from(nodes), label="u")
            near = sorted(g.neighbors(u)) if u in g.nodes else []
            v = data.draw(st.sampled_from(near if near and data.draw(st.booleans()) else nodes),
                          label="v")
            if u == v:
                continue
            new = credit(data.draw(st.sampled_from([0, 0, 1, 5, 30]), label="units"))
            old = g.weight(u, v)
            delta = g.set_link(u, v, new)
            on_link_change(g, embs, u, v, old, new, rnd)
            if undo is not None:
                undo.append(delta)
        elif op == "move":
            # What a repair does to one node: detach it, then re-attach it under
            # an attached neighbor with a fresh element, or leave it detached.
            emb = embs[data.draw(st.integers(0, len(embs) - 1), label="tree")]
            inner = set(emb.parent.values())
            leaves = [n for n in sorted(emb.coord) if n != emb.landmark and n not in inner]
            if not leaves:
                continue
            x = data.draw(st.sampled_from(leaves), label="leaf")
            emb.detach(x)
            parents = [n for n in g.neighbors(x) if emb.attached(n)]
            if parents and data.draw(st.booleans(), label="reattach"):
                emb.attach(x, data.draw(st.sampled_from(parents), label="parent"),
                           rnd.getrandbits(element_bits))
        elif op == "undo":
            if undo is None:
                undo = []
                for emb in embs:
                    emb.begin_undo()
            else:
                g.rollback_weights(undo)
                for emb in embs:
                    emb.rollback_undo()
                undo = None
        else:
            emb = embs[data.draw(st.integers(0, len(embs) - 1), label="tree")]
            receiver = data.draw(st.sampled_from(sorted(emb.coord)), label="receiver")
            share = credit(data.draw(st.sampled_from([0, 1, 10, 30]), label="share"))
            # a short padded length leaves some neighbors deeper than the target
            padded = max(data.draw(st.sampled_from([4, 8, 16]), label="padded"),
                         len(emb.coord[receiver]))
            addr = gen_return_address(emb.coord[receiver], padded, rnd, element_bits)
            for cur in sorted(g.nodes):
                rng_index, rng_scan = random.Random(cur), random.Random(cur)
                assert next_hop(g, emb, cur, addr, share, rng_index) == \
                    scan_next_hop(g, emb, cur, addr, share, rng_scan)
                assert rng_index.getstate() == rng_scan.getstate()
            assert_indexes_fresh(g, emb)


def test_a_moved_leaf_keeps_its_own_index():
    """A leaf that detaches and re-attaches (the property test's `move` step)
    changes no neighbor's coordinate, so its own cached index is kept; the
    indexes of its neighbors, which hold its coordinate, are rebuilt."""
    g = random_graph(24, 30, seed=11)
    emb = build_embeddings(g, g.select_landmarks(1, "degree"), seed=11)[0]
    rnd = random.Random(11)
    addr = gen_return_address(emb.coord[emb.landmark], 16, rnd)

    def query_all():
        for cur in sorted(g.nodes):
            next_hop(g, emb, cur, addr, 0, random.Random(cur))

    query_all()
    inner = set(emb.parent.values())
    x = next(n for n in sorted(emb.coord)
             if n != emb.landmark and n not in inner and len(g.neighbors(n)) > 1)
    before = dict(emb.neighbor_index)
    emb.detach(x)
    emb.attach(x, max(n for n in g.neighbors(x) if emb.attached(n)), rnd.getrandbits(128))
    query_all()
    assert emb.neighbor_index[x] is before[x]
    for n in g.neighbors(x):
        assert emb.neighbor_index[n] is not before[n], n
    assert_indexes_fresh(g, emb)


# ---- route_probe ------------------------------------------------------------------


def test_probe_single_hop(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    embs = build_embeddings(g, [0], seed=4)
    addrs = gen_addresses(embs, 1, rng)
    out = route_probe(g, embs, 0, addrs, [credit(2)], rng)
    assert out.success
    assert out.path_lengths == [1]
    assert out.weight_deltas == [
        LinkDelta(0, 1, credit(10), credit(8)), LinkDelta(1, 0, credit(10), credit(12)),
    ]
    assert out.messages == 2
    assert g.weight(0, 1) == credit(8)
    assert g.total_reserved() == 0
    g.rollback_weights(out.weight_deltas)
    assert g.weight(0, 1) == g.weight(1, 0) == credit(10)


def test_probe_zero_share_tree_skipped(rng):
    g, embs = two_path_embeddings()
    addrs = [gen_return_address(emb.coord[3], 8, rng) for emb in embs]
    out = route_probe(g, embs, 0, addrs, [0, credit(5)], rng)
    assert out.success
    assert out.path_lengths == [2]  # tree 0 carries nothing and has no path
    assert g.weight(0, 1) == g.weight(1, 3) == credit(3)
    assert g.weight(0, 2) == g.weight(2, 3) == credit(2)
    assert g.total_reserved() == 0
    g.rollback_weights(out.weight_deltas)
    assert g.weight(0, 2) == g.weight(2, 3) == credit(7)


def test_probe_failure_rolls_back_all_trees(rng):
    g, embs = two_path_embeddings()
    before = {k: list(v) for k, v in g._links.items()}
    addrs = [gen_return_address(emb.coord[3], 8, rng) for emb in embs]
    out = route_probe(g, embs, 0, addrs, [credit(4), credit(4)], rng)
    assert not out.success
    assert out.path_lengths == [] and out.weight_deltas == []
    assert g.total_reserved() == 0
    assert {k: list(v) for k, v in g._links.items()} == before
    # stuck at node 0 in tree 0 (its only route lacks credit), zero hops
    assert greedy_walk(g, embs[0], 0, addrs[0], credit(4), rng) == ([], False)


def test_probe_unattached_source_fails_quietly(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    g.add_node(9)
    g.set_link(9, 0, credit(1))
    g.set_link(0, 9, credit(1))
    embs = build_embeddings(g, [0], seed=4)
    # detach 9 to simulate an unrepaired orphan
    embs[0].detach(9)
    addrs = gen_addresses(embs, 1, rng)
    probe = route_probe(g, embs, 9, addrs, [credit(1)], rng)
    assert not probe.success
    assert probe.messages == 0


def test_probe_greedy_progress(rng):
    for seed in (1, 2, 3):
        g = random_graph(50, 30, seed=seed)
        embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed=seed)
        for _ in range(30):
            src, dst = rng.randrange(50), rng.randrange(50)
            if src == dst:
                continue
            addrs = gen_addresses(embs, dst, rng)
            shares = split_value(credit(2), len(embs), rng)
            for emb, addr, share in zip(embs, addrs, shares):
                path, _ = greedy_walk(g, emb, src, addr, share, rng)
                if not path:
                    continue
                dists = [address_distance(emb.coord[x], addr) for x, _ in path]
                dists.append(address_distance(emb.coord[path[-1][1]], addr))
                assert all(a > b for a, b in zip(dists, dists[1:]))
            out = route_probe(g, embs, src, addrs, shares, rng)
            if out.success:
                assert len(out.path_lengths) == sum(share > 0 for share in shares)
            g.rollback_weights(out.weight_deltas)
        assert g.total_reserved() == 0


def test_interleaved_probes_respect_reservations(rng):
    g = CreditGraph()
    bi_link(g, 0, 1, w=10)
    embs = build_embeddings(g, [0], seed=6)
    addrs = gen_addresses(embs, 1, rng)
    out_a = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert out_a.success
    # probe B wants 6 but only 4 guaranteed credit remains while A's payment stands
    out_b = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert not out_b.success
    g.rollback_weights(out_a.weight_deltas)
    out_c = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert out_c.success
    g.rollback_weights(out_c.weight_deltas)
    assert g.weight(0, 1) == credit(10)


def test_ge_rand_attempt_is_one_route_probe():
    """A GE-RAND-OND attempt is a share split followed by one route_probe call."""
    g = random_graph(40, 30, seed=21, wmin=1, wmax=6)
    embs = build_embeddings(g, g.select_landmarks(3, "degree"), seed=21)
    executor = make_executor(parse_policy("GE-RAND-OND"))
    rnd = random.Random(21)
    outcomes = set()
    for _ in range(60):
        src, dst = rnd.randrange(40), rnd.randrange(40)
        if src == dst:
            continue
        value = credit(rnd.randint(1, 8))
        ctx = executor.begin(g, embs, src, dst, value, rnd)
        state = rnd.getstate()
        out = executor.attempt(g, embs, src, dst, value, ctx, rnd)
        g.rollback_weights(out.weight_deltas)
        rng_probe = random.Random()
        rng_probe.setstate(state)
        shares = split_value(value, len(embs), rng_probe)
        assert route_probe(g, embs, src, ctx.addrs, shares, rng_probe) == out
        assert rng_probe.getstate() == rnd.getstate()
        g.rollback_weights(out.weight_deltas)
        outcomes.add(out.success)
    assert outcomes == {True, False}
    assert g.total_reserved() == 0


def test_stuck_walk_reservation_is_seen_by_the_next_tree():
    """Tree 0 reserves 0->1 and sticks at 1; tree 1 then finds 0->1 short."""
    g = CreditGraph()
    bi_link(g, 0, 1, w=10)
    g.set_link(1, 2, credit(3))
    g.set_link(2, 1, credit(10))
    embs = build_embeddings(g, [0, 2], seed=3)
    rng = random.Random(3)
    addrs = gen_addresses(embs, 2, rng)
    out = route_probe(g, embs, 0, addrs, [credit(6), credit(6)], rng)
    assert not out.success
    # without tree 0's reservation, tree 1 would walk 0->1 too: 4 messages
    assert (out.messages, out.delay) == (2, 2)
    assert g.total_reserved() == 0


def test_probe_refused_reservation_is_internal_error(rng, monkeypatch):
    g = CreditGraph()
    bi_link(g, 0, 1)
    embs = build_embeddings(g, [0], seed=4)
    addrs = gen_addresses(embs, 1, rng)
    monkeypatch.setattr(CreditGraph, "reserve", lambda self, u, v, c: False)
    with pytest.raises(InternalError, match="reserve refused after a credit check in tree 0"):
        route_probe(g, embs, 0, addrs, [credit(2)], rng)
    assert g.total_reserved() == 0


def test_settle_is_all_or_nothing():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 2, credit(5))
    # the second path's first hop is refused: nothing stays reserved
    assert settle(g, [credit(3), credit(3)], given_paths([[(0, 1)], [(0, 1), (1, 2)]])) == \
        (False, [1, 0], [], [])
    # a missing path with a nonzero share fails; with a zero share it is skipped
    assert settle(g, [credit(1), credit(1)], given_paths([[(0, 1)], None]))[:2] == (False, [1, 0])
    assert g.total_reserved() == 0
    settled, hops, deltas, lengths = settle(
        g, [credit(2), 0, credit(3)], given_paths([[(0, 1)], None, [(0, 1), (1, 2)]])
    )
    assert (settled, hops, lengths) == (True, [1, 0, 2], [1, 2])
    assert len(deltas) == 6
    assert g.weight(0, 1) == 0 and g.weight(1, 0) == credit(5)
    assert g.total_reserved() == 0


# ---- paying through the GE-RAND-OND executor --------------------------------------


def route_pay(g, embs, src, dst, c, attempts, rng, addr_overhead=True):
    """Pay c from src to dst as the engine does: begin, then attempts until one succeeds.

    Returns the last attempt's outcome and the number of attempts used.
    """
    executor = make_executor(parse_policy("GE-RAND-OND"), addr_overhead=addr_overhead)
    ctx = executor.begin(g, embs, src, dst, c, rng)
    for used in range(1, attempts + 1):
        out = executor.attempt(g, embs, src, dst, c, ctx, rng)
        if out.success:
            break
    return out, used


def test_route_pay_rejects_self_and_nonpositive(line_graph):
    # a self-payment and a non-positive value never reach the executor: they
    # count as failures with no messages and leave every link as it was
    before = {(u, v): line_graph.weight(u, v) for u, v in ((0, 1), (1, 0), (1, 2), (2, 1))}
    bad = [
        TransactionEvent(0, credit(1), 1, 1),
        TransactionEvent(1, 0, 0, 1),
        TransactionEvent(2, -credit(1), 0, 1),
    ]
    m = run_static(line_graph, bad, parse_policy("GE-RAND-OND"), SimParams(trees=1, seed=8))
    assert len(m.transactions) == 3
    assert not any(t.success for t in m.transactions)
    assert all(t.messages == 0 and t.attempts == 0 for t in m.transactions)
    assert {k: line_graph.weight(*k) for k in before} == before
    assert line_graph.total_reserved() == 0


def test_route_pay_two_node_success(rng):
    g = CreditGraph()
    bi_link(g, 0, 1, w=5)
    embs = build_embeddings(g, [0], seed=7)
    out, used = route_pay(g, embs, 0, 1, credit(2), attempts=1, rng=rng)
    assert out.success
    assert out.path_lengths == [1]
    assert used == 1
    assert g.weight(0, 1) == credit(3)
    assert g.weight(1, 0) == credit(7)
    assert g.total_reserved() == 0


def test_route_pay_failure_leaves_graph_unchanged(rng):
    g, embs = two_path_embeddings()
    snapshot = {k: list(v) for k, v in g._links.items()}
    # value 11 exceeds max flow 10; every attempt must fail and roll back
    out, used = route_pay(g, embs, 0, 3, credit(11), attempts=3, rng=rng)
    assert not out.success
    assert used == 3
    assert {k: list(v) for k, v in g._links.items()} == snapshot


def brute_force_feasible_splits(caps, c):
    """All (s, c-s) splits both routes can carry, by enumeration."""
    return {
        s for s in range(0, c + 1)
        if s <= caps[0] and (c - s) <= caps[1]
    }


def test_route_pay_retry_rescues_bad_split():
    # capacities 3 and 7, value 8: oracle says only splits with share_1 in
    # {1, 2, 3} (whole units) can work, so some seeds fail the first draw
    # and succeed on the retry with fresh shares.
    feasible = brute_force_feasible_splits((3, 7), 8)
    assert feasible == {1, 2, 3}
    rescued = False
    for seed in range(60):
        g, embs = two_path_embeddings()
        rnd = random.Random(seed)
        out, used = route_pay(g, embs, 0, 3, credit(8), attempts=2, rng=rnd,
                              addr_overhead=False)
        if out.success and used == 2:
            rescued = True
            break
    assert rescued


def test_route_pay_correctness_on_random_graphs(rng):
    """Every success settles exactly c: endpoint balances shift by 2c."""
    g = random_graph(40, 30, seed=12)
    embs = build_embeddings(g, g.select_landmarks(3, "degree"), seed=12)
    successes = 0
    for i in range(300):
        src, dst = rng.randrange(40), rng.randrange(40)
        if src == dst:
            continue
        c = credit(rng.randint(1, 8))
        before_src, before_dst = g.net_balance(src), g.net_balance(dst)
        out, _ = route_pay(g, embs, src, dst, c, attempts=2, rng=rng)
        if out.success:
            successes += 1
            assert g.net_balance(src) == before_src + 2 * c
            assert g.net_balance(dst) == before_dst - 2 * c
        assert g.total_reserved() == 0
    assert successes > 50
    assert sum(g.net_balance(v) for v in g.nodes) == 0
