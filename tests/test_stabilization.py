import random

from hypothesis import given, settings, strategies as st

from pbtsim.credit import credit
from pbtsim.embedding import build_embeddings
from pbtsim.graph import CreditGraph
from pbtsim.stabilization import choose_parent, on_link_change, periodic_rebuild

from conftest import bi_link, random_graph


def apply_change(g, embs, u, v, new, rng):
    old = g.weight(u, v)
    g.set_link(u, v, new)
    return on_link_change(g, embs, u, v, old, new, rng)


def test_new_link_attaches_unattached_node(star_graph, rng):
    g = star_graph
    embs = build_embeddings(g, [0], seed=1)
    g.add_node(5)
    reports = apply_change(g, embs, 3, 5, credit(10), rng)
    emb = embs[0]
    assert emb.attached(5) and emb.parent[5] == 3
    # never-attached node: one coordinate announcement per neighbor, no drops
    assert len(reports) == 1
    assert reports[0].reset_root == 5
    assert reports[0].nodes_reassigned == 1
    assert reports[0].messages == g.degree(5) == 1


def test_second_direction_of_new_pair_triggers_nothing(star_graph, rng):
    g = star_graph
    embs = build_embeddings(g, [0], seed=1)
    g.add_node(5)
    apply_change(g, embs, 3, 5, credit(10), rng)
    reports = apply_change(g, embs, 5, 3, credit(10), rng)
    assert reports == []


def test_removing_shortcut_is_quiet(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    bi_link(g, 0, 2)  # shortcut; the tree will use 0-1, 0-2
    embs = build_embeddings(g, [0], seed=3)
    emb = embs[0]
    # pick a non-tree link to remove entirely
    pairs = {(u, emb.parent[u]) for u in emb.parent}
    shortcut = None
    for u, v in ((1, 2), (2, 1)):
        if (u, v) not in pairs and (v, u) not in pairs:
            shortcut = (u, v)
    assert shortcut is not None
    reports = apply_change(g, embs, shortcut[0], shortcut[1], 0, rng)
    assert reports == []
    reports = apply_change(g, embs, shortcut[1], shortcut[0], 0, rng)
    assert reports == []


def test_quiescence_on_equal_weight(line_graph, rng):
    embs = build_embeddings(line_graph, [0], seed=4)
    reports = on_link_change(line_graph, embs, 0, 1, credit(10), credit(10), rng)
    assert reports == []


def test_subtree_removal_message_count(rng):
    # 0 - 1 - 2 - {3, 4}: removing (1, 2) drops the subtree {2, 3, 4}; every
    # node re-parents, so messages = sum of 2 x degree over the subtree.
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    bi_link(g, 2, 3)
    bi_link(g, 2, 4)
    embs = build_embeddings(g, [0], seed=5)
    emb = embs[0]
    assert emb.parent[2] == 1 and emb.parent[3] == 2 and emb.parent[4] == 2
    reports = apply_change(g, embs, 1, 2, 0, rng)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.reset_root == 2
    assert rep.nodes_reassigned == 3
    expected = sum(2 * g.degree(v) for v in (2, 3, 4))
    assert rep.messages == expected
    # repaired tree is valid and 2 hangs off its remaining one-way link
    assert emb.attached(2) and emb.attached(3) and emb.attached(4)
    assert emb.parent[2] == 1


def test_bidirectional_link_replaces_unidirectional_parent(rng):
    # Node 2 joined through a one-way link to the landmark; once it gains a
    # bidirectional link to node 1 (whose parent link is healthy), node 2
    # re-roots onto it.
    g = CreditGraph()
    bi_link(g, 0, 1)
    g.set_link(2, 0, credit(10))  # one way only
    embs = build_embeddings(g, [0], seed=6)
    emb = embs[0]
    assert emb.parent[2] == 0
    reports = apply_change(g, embs, 2, 1, credit(10), rng)
    assert reports == []  # pair not bidirectional yet
    reports = apply_change(g, embs, 1, 2, credit(10), rng)
    assert len(reports) == 1
    assert reports[0].reset_root == 2
    assert emb.parent[2] == 1


def test_no_reset_when_both_parent_links_are_weak(rng):
    g = CreditGraph()
    bi_link(g, 0, 3)
    g.set_link(1, 0, credit(10))  # node 1: one-way parent link
    g.set_link(2, 3, credit(10))  # node 2: one-way parent link
    embs = build_embeddings(g, [0], seed=7)
    emb = embs[0]
    assert emb.parent[1] == 0 and emb.parent[2] == 3
    apply_change(g, embs, 1, 2, credit(10), rng)
    reports = apply_change(g, embs, 2, 1, credit(10), rng)
    # both endpoints qualify, so neither resets
    assert reports == []
    assert emb.parent[1] == 0 and emb.parent[2] == 3


# ---- choose_parent ---------------------------------------------------------------


def test_choose_parent_single_candidate(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    embs = build_embeddings(g, [0], seed=8)
    emb = embs[0]
    emb.detach(2)
    assert choose_parent(g, emb, 2, rng) == 1


def test_choose_parent_prefers_bidirectional_over_depth(rng):
    # bidirectional candidate at depth 3 beats a one-way candidate at depth 1
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    bi_link(g, 2, 3)
    bi_link(g, 0, 4)
    emb = build_embeddings(g, [0], seed=9)[0]
    n = 9
    g.add_node(n)
    g.set_link(3, n, credit(5))
    g.set_link(n, 3, credit(5))  # bidirectional to node 3 (depth 3)
    g.set_link(4, n, credit(5))  # one-way from node 4 (depth 1)
    assert choose_parent(g, emb, n, rng) == 3


def test_choose_parent_cycle_rule(rng):
    # The only candidate still carries a coordinate from n's old subtree.
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 5)
    bi_link(g, 5, 6)
    emb = build_embeddings(g, [0], seed=10)[0]
    assert emb.parent[6] == 5
    emb.detach(5)  # 6 keeps its stale coordinate extending 5's old one
    assert choose_parent(g, emb, 5, rng) in (1,)  # node 1 is fine
    g.set_link(5, 1, 0)
    g.set_link(1, 5, 0)  # now node 6 is the only neighbor left
    assert choose_parent(g, emb, 5, rng) is None


def test_choose_parent_shortest_coordinate_within_class(rng):
    g = CreditGraph()
    bi_link(g, 0, 1)
    bi_link(g, 1, 2)
    emb = build_embeddings(g, [0], seed=11)[0]
    n = 9
    g.add_node(n)
    for cand in (1, 2):
        g.set_link(cand, n, credit(5))
        g.set_link(n, cand, credit(5))
    assert choose_parent(g, emb, n, rng) == 1  # depth 1 beats depth 2


# ---- periodic rebuild ------------------------------------------------------------


def test_periodic_rebuild_message_identity():
    g = CreditGraph()
    for v in range(1, 11):
        g.set_link(0, v, credit(1))
    assert g.undirected_edge_count() == 10
    _, messages = periodic_rebuild(g, [0], seed=1)
    assert messages == 10
    _, messages = periodic_rebuild(g, [0, 1, 2], seed=1)
    assert messages == 30


def test_periodic_rebuild_empty_graph():
    g = CreditGraph()
    embs, messages = periodic_rebuild(g, [], seed=1)
    assert embs == [] and messages == 0


# ---- invariants under random churn -------------------------------------------------


def check_embedding_invariants(g, emb):
    emb.check_invariants()
    for v, p in emb.parent.items():
        assert p in g.neighbors(v)  # parent link exists in some direction
    # Liveness: every node connected to the landmark is attached.
    component = {emb.landmark}
    frontier = [emb.landmark]
    while frontier:
        for n in g.neighbors(frontier.pop()):
            if n not in component:
                component.add(n)
                frontier.append(n)
    assert all(emb.attached(n) for n in component)


def test_invariants_and_cost_locality_under_churn():
    rnd = random.Random(31)
    g = random_graph(40, 25, seed=31)
    embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed=31)
    nodes = sorted(g.nodes)
    for step in range(300):
        u = nodes[rnd.randrange(len(nodes))]
        neighbors = g.neighbors(u)
        if neighbors and rnd.random() < 0.5:
            v = neighbors[rnd.randrange(len(neighbors))]
            new = 0 if rnd.random() < 0.4 else credit(rnd.randint(1, 30))
        else:
            v = nodes[rnd.randrange(len(nodes))]
            if u == v:
                continue
            new = credit(rnd.randint(1, 30))
        before = {emb.tree_index: dict(emb.coord) for emb in embs}
        old = g.weight(u, v)
        g.set_link(u, v, new)
        reports = on_link_change(g, embs, u, v, old, new, rnd)
        for emb in embs:
            check_embedding_invariants(g, emb)
        for rep in reports:
            emb = embs[rep.tree_index]
            prev = before[rep.tree_index]
            touched = {n for n in set(prev) | set(emb.coord)
                       if prev.get(n) != emb.coord.get(n)}
            bound = sum(2 * g.degree(n) for n in touched)
            assert rep.messages <= bound
            assert rep.messages >= rep.nodes_reassigned


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    element_bits=st.sampled_from([4, 128]),
    changes=st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24), st.sampled_from([0, 0, 1, 5, 30])),
        min_size=1, max_size=40,
    ),
)
def test_random_link_changes_keep_tree_invariants(seed, element_bits, changes):
    """Removals, re-creations, weight changes and joins (ids 20-24 are new
    nodes) keep every tree consistent after each repair."""
    g = random_graph(20, 10, seed=seed)
    embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed, element_bits)
    rnd = random.Random(seed)
    for u, v, units in changes:
        if u == v:
            continue
        apply_change(g, embs, u, v, credit(units), rnd)
        for emb in embs:
            check_embedding_invariants(g, emb)


def subtree_from_parents(emb, root):
    """Reference subtree from the parent links alone: breadth-first, siblings ascending."""
    kids = {}
    for node, parent in emb.parent.items():
        kids.setdefault(parent, []).append(node)
    out = [root]
    for node in out:
        out.extend(sorted(kids.get(node, ())))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    changes=st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24), st.sampled_from([0, 0, 1, 5, 30])),
        max_size=40,
    ),
)
def test_subtree_matches_parent_links_after_repairs(seed, changes):
    """subtree(g, v) finds children among graph neighbors; after any repairs
    it lists the same nodes in the same order as a walk of the parent links."""
    g = random_graph(20, 10, seed=seed)
    embs = build_embeddings(g, g.select_landmarks(2, "degree"), seed)
    rnd = random.Random(seed)
    for u, v, units in changes:
        if u != v:
            apply_change(g, embs, u, v, credit(units), rnd)
    for emb in embs:
        for v in sorted(g.nodes):
            assert emb.subtree(g, v) == subtree_from_parents(emb, v)
