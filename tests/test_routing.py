import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pbtsim.credit import credit
from pbtsim.embedding import Embedding, address_distance, build_embeddings, gen_return_address
from pbtsim.errors import ConfigError
from pbtsim.graph import CreditGraph
from pbtsim.routing import (
    commit_probe,
    gen_addresses,
    next_hop,
    rollback_probe,
    route_pay,
    route_probe,
    split_value,
)

from conftest import random_graph


def bi_link(g, u, v, w=10):
    g.set_link(u, v, credit(w))
    g.set_link(v, u, credit(w))


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


def reference_next_hop(g, emb, current, addr, share, rng, dist_cache):
    """next_hop as the hashed model states it: credit check, then keyed-hash distance."""
    cur_coord = emb.coord.get(current)
    if cur_coord is None:
        return None
    d_cur = dist_cache.get(current)
    if d_cur is None:
        d_cur = dist_cache[current] = address_distance(cur_coord, addr)
    best_d = d_cur
    ties = []
    for n in g.sorted_neighbors(current):
        coord = emb.coord.get(n)
        if coord is None:
            continue
        if share > 0 and g.available(current, n) < share:
            continue
        d = dist_cache.get(n)
        if d is None:
            d = dist_cache[n] = address_distance(coord, addr)
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
        plain_cache, hashed_cache = {}, {}
        for cur in sorted(g.nodes):
            rng_plain, rng_hashed = random.Random(cur), random.Random(cur)
            assert next_hop(g, emb, cur, addr, share, rng_plain, plain_cache) == \
                reference_next_hop(g, emb, cur, addr, share, rng_hashed, hashed_cache)
            assert rng_plain.getstate() == rng_hashed.getstate()


# ---- route_probe ------------------------------------------------------------------


def test_probe_single_hop(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    embs = build_embeddings(g, [0], seed=4)
    addrs = gen_addresses(embs, 1, rng)
    probe = route_probe(g, embs, 0, addrs, [credit(2)], rng)
    assert probe.success
    assert probe.paths == [[(0, 1)]]
    assert probe.messages == 2
    assert g.reserved(0, 1) == credit(2)
    rollback_probe(g, probe)
    assert g.total_reserved() == 0


def test_probe_zero_share_tree_skipped(rng):
    g, embs = two_path_embeddings()
    addrs = [gen_return_address(emb.coord[3], 8, rng) for emb in embs]
    probe = route_probe(g, embs, 0, addrs, [0, credit(5)], rng)
    assert probe.success
    assert probe.paths[0] == []
    assert [len(p) for p in probe.paths] == [0, 2]
    rollback_probe(g, probe)


def test_probe_failure_rolls_back_all_trees(rng):
    g, embs = two_path_embeddings()
    addrs = [gen_return_address(emb.coord[3], 8, rng) for emb in embs]
    probe = route_probe(g, embs, 0, addrs, [credit(4), credit(4)], rng)
    assert not probe.success
    assert g.total_reserved() == 0
    # failed at node 0 in tree 0 (its only route lacks credit), zero hops
    assert probe.failed_at[0] == 0


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
            probe = route_probe(g, embs, src, addrs, shares, rng)
            for emb, addr, path in zip(embs, addrs, probe.paths):
                if not path:
                    continue
                dists = [address_distance(emb.coord[x], addr) for x, _ in path]
                dists.append(address_distance(emb.coord[path[-1][1]], addr))
                assert all(a > b for a, b in zip(dists, dists[1:]))
            rollback_probe(g, probe)
        assert g.total_reserved() == 0


def test_interleaved_probes_respect_reservations(rng):
    g = CreditGraph()
    bi_link(g, 0, 1, w=10)
    embs = build_embeddings(g, [0], seed=6)
    addrs = gen_addresses(embs, 1, rng)
    probe_a = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert probe_a.success
    # probe B wants 6 but only 4 guaranteed credit remains
    probe_b = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert not probe_b.success
    rollback_probe(g, probe_a)
    probe_c = route_probe(g, embs, 0, addrs, [credit(6)], rng)
    assert probe_c.success
    rollback_probe(g, probe_c)


# ---- route_pay -------------------------------------------------------------------


def test_route_pay_two_node_success(rng):
    g = CreditGraph()
    bi_link(g, 0, 1, w=5)
    embs = build_embeddings(g, [0], seed=7)
    out = route_pay(g, embs, 0, 1, credit(2), attempts=1, rng=rng)
    assert out.success
    assert out.path_lengths == [1]
    assert out.attempts_used == 1
    assert g.weight(0, 1) == credit(3)
    assert g.weight(1, 0) == credit(7)
    assert g.total_reserved() == 0


def test_route_pay_rejects_self_and_nonpositive(line_graph, rng):
    embs = build_embeddings(line_graph, [0], seed=8)
    with pytest.raises(ConfigError):
        route_pay(line_graph, embs, 1, 1, credit(1), 1, rng)
    with pytest.raises(ConfigError):
        route_pay(line_graph, embs, 0, 1, 0, 1, rng)


def test_route_pay_failure_leaves_graph_unchanged(rng):
    g, embs = two_path_embeddings()
    snapshot = {k: list(v) for k, v in g._links.items()}
    # value 11 exceeds max flow 10; every attempt must fail and roll back
    out = route_pay(g, embs, 0, 3, credit(11), attempts=3, rng=rng)
    assert not out.success
    assert out.attempts_used == 3
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
        out = route_pay(g, embs, 0, 3, credit(8), attempts=2, rng=rnd,
                        addr_overhead=False)
        if out.success and out.attempts_used == 2:
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
        out = route_pay(g, embs, src, dst, c, attempts=2, rng=rng)
        if out.success:
            successes += 1
            assert g.net_balance(src) == before_src + 2 * c
            assert g.net_balance(dst) == before_dst - 2 * c
        assert g.total_reserved() == 0
    assert successes > 50
    assert sum(g.net_balance(v) for v in g.nodes) == 0
