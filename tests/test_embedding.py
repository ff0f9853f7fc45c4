import random
from collections import deque
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import pbtsim.embedding as embedding
from pbtsim.credit import credit
from pbtsim.embedding import (
    Embedding,
    address_distance,
    build_embeddings,
    coord_distance,
    derive_seed,
    gen_return_address,
    is_prefix,
)
from pbtsim.errors import ConfigError, InternalError
from pbtsim.graph import CreditGraph

from conftest import random_graph


def bfs_hops(adj, a, b):
    """Plain BFS hop count, the independent tree-distance oracle."""
    if a == b:
        return 0
    seen = {a: 0}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for n in adj[node]:
            if n not in seen:
                seen[n] = seen[node] + 1
                if n == b:
                    return seen[n]
                queue.append(n)
    raise AssertionError("disconnected")


def random_tree_embedding(n, seed, element_bits=16):
    """Random parent structure with fresh coordinates plus its adjacency."""
    rnd = random.Random(seed)
    emb = Embedding(0, 0, element_bits)
    adj = {0: []}
    for v in range(1, n):
        p = rnd.randrange(v)
        emb.attach(v, p, rnd.getrandbits(element_bits))
        adj.setdefault(p, []).append(v)
        adj.setdefault(v, []).append(p)
    return emb, adj


def test_coord_distance_identities():
    assert coord_distance((), ()) == 0
    assert coord_distance((5,), (5, 9)) == 1  # parent-child
    assert coord_distance((5, 1), (5, 2)) == 2  # siblings
    assert coord_distance((1, 2, 3), (4,)) == 4


def test_coord_distance_matches_bfs_on_random_trees():
    rnd = random.Random(42)
    for t in range(60):
        n = rnd.randint(2, 120)
        emb, adj = random_tree_embedding(n, seed=1000 + t)
        for _ in range(15):
            a, b = rnd.randrange(n), rnd.randrange(n)
            assert coord_distance(emb.coord[a], emb.coord[b]) == bfs_hops(adj, a, b)


def test_is_prefix():
    assert is_prefix((), (1,))
    assert is_prefix((1,), (1,))
    assert not is_prefix((1, 2), (1, 3))
    assert not is_prefix((1, 2), (1,))


# ---- construction -----------------------------------------------------------


def test_build_line_depths(line_graph):
    emb = build_embeddings(line_graph, [0], seed=5)[0]
    assert emb.coord[0] == ()
    assert len(emb.coord[1]) == 1
    assert len(emb.coord[2]) == 2
    assert emb.parent[2] == 1


def test_build_unidirectional_attaches_in_phase_two():
    # A=0 <-> B=1 bidirectional, B -> C=2 one way only: C still joins, via B.
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 0, credit(5))
    g.set_link(1, 2, credit(5))
    emb = build_embeddings(g, [0], seed=5)[0]
    assert emb.parent[2] == 1
    assert len(emb.coord[2]) == 2


def test_build_leaves_unreachable_nodes_unattached():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 0, credit(5))
    g.add_node(7)  # no links at all (a zero-zero pair cannot persist)
    emb = build_embeddings(g, [0], seed=5)[0]
    assert not emb.attached(7)
    assert emb.attached(1)


def test_build_requires_known_landmark(line_graph):
    with pytest.raises(ConfigError):
        build_embeddings(line_graph, [404], seed=1)


def test_phase_one_depth_equals_bidirectional_bfs():
    """Nodes attached in phase 1 sit at their bidirectional BFS distance, in every tree."""
    for seed in (3, 4, 5):
        g = random_graph(60, 40, seed=seed)
        landmarks = [0, 7, 31]
        adj = {v: sorted(n for n in g.neighbors(v)
                         if g.weight(v, n) > 0 and g.weight(n, v) > 0)
               for v in g.nodes}
        for lm, emb in zip(landmarks, build_embeddings(g, landmarks, seed=seed), strict=True):
            dist = {lm: 0}
            queue = deque([lm])
            while queue:
                node = queue.popleft()
                for n in adj[node]:
                    if n not in dist:
                        dist[n] = dist[node] + 1
                        queue.append(n)
            for v, d in dist.items():
                assert len(emb.coord[v]) == d


class CountingDict(dict):
    """A dict that counts its membership tests."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_build_tests_link_directions_once_for_all_trees():
    """The two-way split is paid once per build, not once per tree."""
    probes = []
    for landmarks in ([0], [0, 7, 31]):
        g = random_graph(60, 40, seed=3)
        g.set_link(5, 60, credit(2))  # a one-way link to a new node
        g._links = CountingDict(g._links)
        build_embeddings(g, landmarks, seed=3)
        probes.append(g._links.probes)
    assert probes[0] == probes[1] > 0


def test_tree_validity_and_coordinate_agreement():
    g = random_graph(80, 50, seed=9)
    for emb in build_embeddings(g, [0, 3], seed=9):
        for v in emb.coord:
            if v == emb.landmark:
                continue
            p = emb.parent[v]
            assert emb.coord[v][:-1] == emb.coord[p]
            chain = emb.path_to_landmark(v)
            assert chain[-1] == emb.landmark
            assert len(chain) <= len(g.nodes)


def test_build_is_deterministic():
    g = random_graph(40, 20, seed=2)
    a = build_embeddings(g, [0], seed=77)[0]
    b = build_embeddings(g, [0], seed=77)[0]
    assert a.coord == b.coord and a.parent == b.parent


# ---- return addresses ---------------------------------------------------------


def test_address_empty_coordinate_padding_only():
    addr = gen_return_address((), delta=4, rng=random.Random(1))
    assert len(addr.hashed) == 4
    assert addr.real_len == 0


def test_address_fresh_key_per_call():
    rnd = random.Random(2)
    c = (10, 20)
    a1 = gen_return_address(c, delta=6, rng=rnd)
    a2 = gen_return_address(c, delta=6, rng=rnd)
    assert a1.key != a2.key
    assert a1.hashed != a2.hashed


def test_address_depth_guard():
    with pytest.raises(ConfigError, match="coordinate depth 5 exceeds address length 4"):
        gen_return_address(tuple(range(5)), delta=4, rng=random.Random(1))


def test_address_distance_on_own_coordinate():
    rnd = random.Random(3)
    c = (7, 8, 9)
    addr = gen_return_address(c, delta=10, rng=rnd)
    assert address_distance(c, addr) == 10 - 3
    assert address_distance((), addr) == 10
    assert addr.is_receiver(c)
    assert not addr.is_receiver((7, 8))
    assert not addr.is_receiver((7, 8, 9, 1))


def test_address_distance_equals_shifted_coord_distance():
    """d~(u, addr(r)) = d(u, r) + delta - |r| for tree coordinates."""
    rnd = random.Random(8)
    for t in range(40):
        emb, _ = random_tree_embedding(rnd.randint(2, 60), seed=500 + t)
        nodes = sorted(emb.coord)
        r = nodes[rnd.randrange(len(nodes))]
        addr = gen_return_address(emb.coord[r], delta=12, rng=rnd, element_bits=16)
        shift = 12 - len(emb.coord[r])
        for _ in range(8):
            u = nodes[rnd.randrange(len(nodes))]
            assert address_distance(emb.coord[u], addr) == \
                coord_distance(emb.coord[u], emb.coord[r]) + shift


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    element_bits=st.sampled_from([4, 16, 128]),
)
def test_plaintext_distance_equals_hashed_distance(n, seed, element_bits):
    """Greedy routing's plaintext distance to the padded coordinate equals the
    keyed-hash distance, for every node and receiver; at 4 bits siblings
    share elements, and both distances see the same spurious matches."""
    emb, _ = random_tree_embedding(n, seed, element_bits)
    rnd = random.Random(seed)
    for r, r_coord in emb.coord.items():
        addr = gen_return_address(r_coord, delta=12, rng=rnd, element_bits=element_bits)
        for c in emb.coord.values():
            assert coord_distance(c, addr.elements) == address_distance(c, addr)


def test_check_invariants_passes_on_built_trees():
    g = random_graph(60, 40, seed=6)
    for emb in build_embeddings(g, [0, 7], seed=6):
        emb.check_invariants(g)


def test_check_invariants_catches_a_parent_link_missing_from_the_graph(line_graph):
    emb = build_embeddings(line_graph, [0], seed=5)[0]
    line_graph.set_link(1, 2, 0)
    emb.check_invariants(line_graph)  # one direction left: still adjacent
    line_graph.set_link(2, 1, 0)
    with pytest.raises(InternalError, match="2 is not adjacent to its parent 1 in tree 0"):
        emb.check_invariants(line_graph)


@pytest.mark.parametrize("corrupt", [
    lambda emb, v, p: emb.coord.__setitem__(v, emb.coord[v] + (1,)),
    lambda emb, v, p: emb.coord.__setitem__(emb.landmark, (3,)),
    lambda emb, v, p: emb.parent.__setitem__(emb.landmark, v),
    lambda emb, v, p: emb.coord.pop(v),
], ids=["deep-coordinate", "landmark-coordinate", "landmark-parent", "detached-parent"])
def test_check_invariants_catches_corruption(corrupt):
    emb, adj = random_tree_embedding(20, seed=3)
    g = CreditGraph.from_weights(adj, {(v, n): credit(1) for v in adj for n in adj[v]})
    emb.check_invariants(g)
    v = max(emb.coord, key=lambda x: len(emb.coord[x]))
    corrupt(emb, v, emb.parent[v])
    with pytest.raises(InternalError):
        emb.check_invariants(g)


def test_check_invariants_catches_parent_cycle():
    emb = Embedding(0, 0, 16)
    emb.attach(1, 0, 5)
    emb.attach(2, 1, 6)
    # 1 and 2 point at each other; no coordinates can be consistent with that
    emb.parent[1] = 2
    emb.coord[1] = (5, 6, 5)
    emb.coord[2] = (5, 6)
    g = CreditGraph.from_weights(range(3), {(u, v): credit(1) for u, v in ((0, 1), (1, 0), (1, 2), (2, 1))})
    with pytest.raises(InternalError):
        emb.check_invariants(g)


def test_undo_journal_round_trip():
    g = random_graph(30, 15, seed=4)
    emb = build_embeddings(g, [0], seed=4)[0]
    state = (dict(emb.parent), dict(emb.coord), dict(emb.prev_coord))
    emb.begin_undo()
    victims = [v for v in sorted(emb.coord) if v != 0][:5]
    for v in victims:
        for node in emb.subtree(g, v):
            if emb.attached(node):
                emb.detach(node)
    rnd = random.Random(0)
    for v in victims:
        if not emb.attached(v):
            emb.attach(v, 0, rnd.getrandbits(16))
    emb.rollback_undo()
    assert dict(emb.parent) == state[0]
    assert dict(emb.coord) == state[1]
    assert dict(emb.prev_coord) == state[2]


# ---- phase two and liveness over graphs with one-way links ----------------------


@st.composite
def mixed_graphs(draw):
    """Small graphs, often in several components, mixing two-way and one-way links."""
    n = draw(st.integers(2, 14))
    g = CreditGraph()
    for v in range(n):
        g.add_node(v)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(["both", "forward", "backward"])),
                          max_size=3 * n))
    for u, v, kind in pairs:
        if u == v:
            continue
        if kind != "backward":
            g.set_link(u, v, credit(draw(st.integers(1, 9))))
        if kind != "forward":
            g.set_link(v, u, credit(draw(st.integers(1, 9))))
    landmarks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return g, landmarks


class RecordingRandom(random.Random):
    """A Random that logs every getrandbits result."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.draws.append(value)
        return value


def all_nodes_phase_two_reference(g, landmarks, seed, element_bits):
    """The two-phase build that re-enqueues every attached node for phase two.

    Returns the trees and each tree's random draws.
    """
    embeddings, draws = [], []
    for i, lm in enumerate(landmarks):
        rng = RecordingRandom(derive_seed(seed, f"tree:{i}"))
        emb = Embedding(i, lm, element_bits)
        queue = deque([lm])
        bi = True
        while queue:
            node = queue.popleft()
            for n in g.neighbors(node):
                if n in emb.coord:
                    continue
                if bi and not g.bidirectional(node, n):
                    continue
                emb.attach(n, node, rng.getrandbits(element_bits))
                queue.append(n)
            if not queue and bi:
                bi = False
                queue.extend(sorted(emb.coord))
        embeddings.append(emb)
        draws.append(rng.draws)
    return embeddings, draws


def skip_then_attach_graph():
    """Node 0 skips 2 over a one-way link, then 1 attaches 2 in phase one;
    2 skips 3, which only phase two attaches, and 3 then attaches 4."""
    g = CreditGraph()
    for u, v in ((0, 1), (1, 0), (0, 2), (1, 2), (2, 1), (2, 3), (4, 3)):
        g.set_link(u, v, credit(1))
    return g, [0, 3]


def one_way_landmark_graph():
    """Landmark 0 has only one-way links, so phase one attaches nothing."""
    g = CreditGraph()
    for u, v in ((0, 1), (2, 0), (1, 2), (2, 1)):
        g.set_link(u, v, credit(1))
    return g, [0]


def full_rescan_graph():
    """Node 1 skips 3 and 4 over one-way links; 2 attaches 3 in phase one,
    so phase two rescans 1's whole list, attached 0 and 3 included, to
    attach 4."""
    g = CreditGraph()
    for u, v in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (2, 3), (3, 2), (1, 4)):
        g.set_link(u, v, credit(1))
    return g, [0]


@example(skip_then_attach_graph(), 5, 8)
@example(one_way_landmark_graph(), 6, 8)
@example((skip_then_attach_graph()[0], [2, 2]), 7, 8)
@example(full_rescan_graph(), 8, 128)
@settings(max_examples=200, deadline=None)
@given(mixed_graphs(), st.integers(0, 2**32), st.sampled_from([8, 128]))
def test_phase_two_rescans_only_nodes_that_skipped_a_neighbor(graph, seed, element_bits):
    """Same parents, coordinates (in insertion order) and random draws per
    tree as the all-nodes phase two, and a fresh tree that passes its
    invariant check with no journal, moved set, index or previous coordinate.
    """
    g, landmarks = graph
    made = []

    def recording(seed):
        made.append(RecordingRandom(seed))
        return made[-1]

    with mock.patch.object(embedding, "random", SimpleNamespace(Random=recording)):
        built = build_embeddings(g, landmarks, seed, element_bits)
    reference, reference_draws = all_nodes_phase_two_reference(g, landmarks, seed, element_bits)
    assert [rng.draws for rng in made] == reference_draws
    for emb, ref in zip(built, reference, strict=True):
        assert list(emb.parent.items()) == list(ref.parent.items())
        assert list(emb.coord.items()) == list(ref.coord.items())
        emb.check_invariants(g)
        assert emb._journal is None
        assert emb.moved == set()
        assert emb.neighbor_index == {}
        assert emb.prev_coord == {}


@settings(max_examples=200, deadline=None)
@given(mixed_graphs(), st.integers(0, 2**32))
def test_build_attaches_every_node_weakly_connected_to_the_landmark(graph, seed):
    g, landmarks = graph
    components = g.components()
    for emb in build_embeddings(g, landmarks, seed, element_bits=16):
        emb.check_invariants(g)
        component = next(c for c in components if emb.landmark in c)
        assert set(emb.coord) == component
