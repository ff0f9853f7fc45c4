import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pbtsim.credit import credit
from pbtsim.errors import ConfigError, InternalError
from pbtsim.graph import CreditGraph, LinkDelta
from pbtsim.workload import LinkRecord, SnapshotFile, build_graph, preprocess

from conftest import random_graph


def test_set_link_fresh():
    g = CreditGraph()
    g.set_link(0, 1, credit(10))
    assert g.weight(0, 1) == credit(10)
    assert g.available(0, 1) == credit(10)
    assert g.weight(1, 0) == 0


def test_set_link_zero_zero_pair_pruned():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(0, 1, 0)
    assert len(g._links) == 0
    assert 1 not in g.neighbors(0)


def test_set_link_keeps_pair_while_reverse_positive():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 0, credit(3))
    g.set_link(0, 1, 0)
    assert g.weight(1, 0) == credit(3)
    assert 1 in g.neighbors(0)


def test_set_link_rejects_self_and_negative():
    g = CreditGraph()
    with pytest.raises(ConfigError):
        g.set_link(2, 2, credit(1))
    with pytest.raises(ConfigError):
        g.set_link(0, 1, -1)


def test_set_link_clamps_reservation():
    # spec example: reserved 4, new weight 3 -> reserved clamped, w_A = 0
    g = CreditGraph()
    g.set_link(0, 1, credit(10))
    assert g.reserve(0, 1, credit(4))
    g.set_link(0, 1, credit(3))
    assert g.reserved(0, 1) == credit(3)
    assert g.available(0, 1) == 0


def test_reserve_release_basics():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    assert g.reserve(0, 1, credit(3))
    assert g.available(0, 1) == credit(2)
    assert not g.reserve(0, 1, credit(3))  # insufficient, state unchanged
    assert g.available(0, 1) == credit(2)
    g.release(0, 1, credit(3))
    assert g.available(0, 1) == credit(5)


def test_reserve_interleaved_ledger():
    # reserve(2), reserve(2), release(2) -> w_A = 5 - 2
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    assert g.reserve(0, 1, credit(2))
    assert g.reserve(0, 1, credit(2))
    g.release(0, 1, credit(2))
    assert g.available(0, 1) == credit(3)


def test_release_over_reservation_is_internal_error():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.reserve(0, 1, credit(1))
    with pytest.raises(InternalError):
        g.release(0, 1, credit(2))


def test_reservation_ledger_replay_oracle():
    """Random reserve/release sequences replayed against a naive ledger model."""
    rnd = random.Random(7)
    g = CreditGraph()
    weight = credit(20)
    g.set_link(0, 1, weight)
    model_reserved = 0
    outstanding = []
    for _ in range(2000):
        if outstanding and rnd.random() < 0.45:
            amt = outstanding.pop(rnd.randrange(len(outstanding)))
            g.release(0, 1, amt)
            model_reserved -= amt
        else:
            amt = rnd.randint(0, credit(8))
            ok = g.reserve(0, 1, amt)
            assert ok == (weight - model_reserved >= amt)
            if ok:
                outstanding.append(amt)
                model_reserved += amt
        assert g.reserved(0, 1) == model_reserved
        assert g.available(0, 1) == weight - model_reserved
        g.check_invariants()


def test_commit_payment_single_hop():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.reserve(0, 1, credit(3))
    g.commit_payment([(0, 1)], credit(3))
    assert g.weight(0, 1) == credit(2)
    assert g.weight(1, 0) == credit(3)
    assert g.reserved(0, 1) == 0


def test_commit_payment_two_hops_shifts_both():
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2)):
        g.set_link(u, v, credit(4))
    for u, v in ((0, 1), (1, 2)):
        g.reserve(u, v, credit(1))
    g.commit_payment([(0, 1), (1, 2)], credit(1))
    assert g.weight(0, 1) == credit(3) and g.weight(1, 0) == credit(1)
    assert g.weight(1, 2) == credit(3) and g.weight(2, 1) == credit(1)


def test_commit_requires_reservation():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    with pytest.raises(InternalError):
        g.commit_payment([(0, 1)], credit(1))


def test_commit_names_a_hop_without_its_reservation():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 2, credit(5))
    g.reserve(0, 1, credit(2))
    g.reserve(1, 2, credit(1))
    before = {k: list(e) for k, e in g._links.items()}
    for path in ([(0, 1), (1, 2)], [(0, 1), (2, 0)]):  # short, and missing
        with pytest.raises(InternalError, match=f"^commit without reservation on {re.escape(str(path[1]))}$"):
            g.commit_payment(path, credit(2))
        assert {k: list(e) for k, e in g._links.items()} == before  # nothing written


def test_commit_and_rollback_refuse_a_reservation_above_the_new_weight():
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g._links[(0, 1)][1] = credit(6)  # a ledger broken on purpose
    with pytest.raises(InternalError, match=r"^reservation 4000000 exceeds new weight 3000000 on \(0, 1\)$"):
        g.commit_payment([(0, 1)], credit(2))
    g = CreditGraph()
    g.set_link(0, 1, credit(5))
    g.set_link(1, 0, credit(1))
    g.reserve(0, 1, credit(4))
    deltas = g.commit_payment([(0, 1)], credit(4))
    g.reserve(1, 0, credit(5))  # more than the weight the rollback restores
    with pytest.raises(InternalError, match=r"^reservation 5000000 exceeds new weight 1000000 on \(1, 0\)$"):
        g.rollback_weights(deltas)


def test_commit_preserves_intermediate_balance():
    # Settling shifts c from each forward link onto its reverse, so the
    # sender's incoming-minus-outgoing balance moves by +2c, the
    # receiver's by -2c, and intermediates not at all.
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2)):
        g.set_link(u, v, credit(9))
        g.set_link(v, u, credit(9))
    before = {v: g.net_balance(v) for v in g.nodes}
    for u, v in ((0, 1), (1, 2)):
        g.reserve(u, v, credit(2))
    g.commit_payment([(0, 1), (1, 2)], credit(2))
    assert g.net_balance(0) == before[0] + 2 * credit(2)
    assert g.net_balance(2) == before[2] - 2 * credit(2)
    assert g.net_balance(1) == before[1]


def test_net_balance():
    g = CreditGraph()
    g.add_node(9)
    assert g.net_balance(9) == 0  # isolated node
    g.set_link(1, 0, credit(3))
    g.set_link(2, 0, credit(2))
    g.set_link(0, 3, credit(4))
    assert g.net_balance(0) == credit(1)
    with pytest.raises(KeyError):
        g.net_balance(404)


def test_conservation_under_commits():
    g = random_graph(12, 8, seed=3)
    rnd = random.Random(5)
    assert sum(g.net_balance(v) for v in g.nodes) == 0
    for _ in range(50):
        u = rnd.randrange(12)
        candidates = sorted(g.neighbors(u))
        if not candidates:
            continue
        v = candidates[rnd.randrange(len(candidates))]
        amount = min(g.available(u, v), credit(1))
        if amount <= 0:
            continue
        g.reserve(u, v, amount)
        g.commit_payment([(u, v)], amount)
        assert sum(g.net_balance(x) for x in g.nodes) == 0
    g.check_invariants()


def bidirectional_degree(g, v):
    """Neighbors of v with positive available credit in both directions, per pair."""
    return sum(1 for n in g.neighbors(v) if g.available(v, n) > 0 and g.available(n, v) > 0)


def test_select_landmarks_star_hub(star_graph):
    assert star_graph.select_landmarks(1, "degree") == [0]


def test_select_landmarks_all_random():
    g = CreditGraph()
    for v in range(1, 5):
        g.set_link(0, v, credit(1))
    picks = g.select_landmarks(5, "random", seed=9)
    assert sorted(picks) == [0, 1, 2, 3, 4]
    assert g.select_landmarks(5, "random", seed=9) == picks  # deterministic


def test_select_landmarks_counts_bidirectional_only():
    # Node 0 has many one-way links; node 1 has two full pairs and must win.
    g = CreditGraph()
    for v in (2, 3, 4, 5):
        g.set_link(0, v, credit(1))  # unidirectional fan-out
    g.set_link(1, 6, credit(1))
    g.set_link(6, 1, credit(1))
    g.set_link(1, 7, credit(1))
    g.set_link(7, 1, credit(1))
    # hand count: bidirectional degree of 0 is 0, of 1 is 2
    assert bidirectional_degree(g, 0) == 0
    assert bidirectional_degree(g, 1) == 2
    assert g.select_landmarks(1, "degree") == [1]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    extra=st.integers(0, 40),
    isolated=st.integers(0, 3),
    data=st.data(),
)
def test_select_landmarks_degree_matches_sorted_ranking(seed, n, extra, isolated, data):
    """One-pass degree selection picks what sorting every node by
    (-bidirectional degree, id) picks, with one-way, partly and fully
    reserved links and isolated nodes."""
    g = random_graph(n, extra, seed=seed)
    rnd = random.Random(seed)
    for u, v in sorted(g._links):
        pick = rnd.random()
        if pick < 0.2:
            g.set_link(u, v, 0)  # one-way, or gone if the other direction went too
        elif pick < 0.4:
            g.reserve(u, v, g.weight(u, v))
        elif pick < 0.6:
            g.reserve(u, v, rnd.randint(0, g.weight(u, v)))
    for v in range(n, n + isolated):
        g.add_node(v)
    k = data.draw(st.integers(1, len(g.nodes)), label="k")
    ranked = sorted(g.nodes, key=lambda v: (-bidirectional_degree(g, v), v))
    assert g.select_landmarks(k, "degree") == ranked[:k]


def test_select_landmarks_too_many():
    g = CreditGraph()
    g.add_node(0)
    with pytest.raises(ConfigError):
        g.select_landmarks(2, "degree")


@pytest.mark.parametrize("mode", ["degree", "random"])
def test_select_landmarks_zero_and_negative_counts(mode):
    g = random_graph(5, 3, seed=2)
    assert g.select_landmarks(0, mode) == []
    with pytest.raises(ConfigError):
        g.select_landmarks(-1, mode)


def test_select_landmarks_equal_count_smaller_id_wins():
    # Node 9 comes first with 4 neighbors, one link drained by a reservation,
    # so its degree is 3. Node 1 has 3 neighbors, all two-way: its count only
    # equals the pick's degree, and its smaller id must still win the tie.
    g = CreditGraph()
    for hub, leaves in ((9, (10, 11, 12, 13)), (1, (2, 3, 4))):
        for leaf in leaves:
            g.set_link(hub, leaf, credit(1))
            g.set_link(leaf, hub, credit(1))
    g.reserve(9, 13, credit(1))
    assert g.select_landmarks(1, "degree") == [1]
    assert g.select_landmarks(2, "degree") == [1, 9]


def test_select_landmarks_one_way_hub_ranks_last():
    # Hub 99 has the most neighbors but reaches each over a one-way link.
    g = CreditGraph()
    for v in range(5):
        g.set_link(v, (v + 1) % 5, credit(1))
        g.set_link((v + 1) % 5, v, credit(1))
        g.set_link(99, v, credit(1))
    assert bidirectional_degree(g, 99) == 0
    assert g.select_landmarks(6, "degree") == [0, 1, 2, 3, 4, 99]
    assert g.select_landmarks(5, "degree") == [0, 1, 2, 3, 4]


def test_giant_component_picks_larger():
    g = CreditGraph()
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4)):  # size 5
        g.set_link(u, v, credit(1))
    for u, v in ((10, 11), (11, 12)):  # size 3
        g.set_link(u, v, credit(1))
    assert max(g.components(), key=len) == {0, 1, 2, 3, 4}


def test_giant_component_tie_breaks_by_smallest_node():
    snapshot = SnapshotFile([LinkRecord(5, 6, credit(1)), LinkRecord(0, 9, credit(1))])
    result = preprocess(snapshot, [], [])
    assert result.snapshot.records == [LinkRecord(0, 9, credit(1))]
    assert result.report["nodes_kept"] == 2


def test_giant_component_connected_graph_is_identity(line_graph):
    assert line_graph.components() == [line_graph.nodes]
    rows = [LinkRecord(u, v, entry[0]) for (u, v), entry in line_graph._links.items()]
    result = preprocess(SnapshotFile(rows), [], [])
    assert result.report["nodes_kept"] == len(line_graph.nodes)
    assert result.report["links_kept"] == len(line_graph._links)


def test_clone_is_independent(line_graph):
    g2 = line_graph.clone()
    g2.set_link(0, 1, credit(99))
    assert line_graph.weight(0, 1) == credit(10)
    g2.check_invariants()
    line_graph.check_invariants()


def test_clone_shares_neighbor_lists_until_a_change(line_graph):
    before = {v: list(line_graph.neighbors(v)) for v in line_graph.nodes}
    g2 = line_graph.clone()
    assert all(g2.neighbors(v) is line_graph.neighbors(v) for v in line_graph.nodes)  # shared
    g2.set_link(0, 2, credit(1))
    g2.set_link(1, 2, 0)
    g2.set_link(2, 1, 0)
    assert g2.neighbors(0) == [1, 2]
    assert g2.neighbors(2) == [0]
    assert {v: line_graph.neighbors(v) for v in line_graph.nodes} == before
    line_graph.check_invariants()
    g2.check_invariants()
def test_rollback_weights_restores_exactly():
    g = random_graph(8, 5, seed=2)
    snapshot = {k: list(v) for k, v in g._links.items()}
    g.reserve(0, 1, min(credit(1), g.available(0, 1)))
    amt = g.reserved(0, 1)
    deltas = g.commit_payment([(0, 1)], amt) if amt else []
    g.rollback_weights(deltas)
    assert {k: list(v) for k, v in g._links.items()} == snapshot


# ---- ledger conservation (property test) ----------------------------------------

NODES = st.integers(0, 4)


class LedgerMachine(RuleBasedStateMachine):
    """Random reserve/release/commit/rollback/set_link on a 5-node graph.

    ``held`` is the test's own record of outstanding reservations; it must
    match the graph's ledger after every step. Every commit and rollback is
    also replayed on a clone through ``release`` and ``set_link``, and the
    two graphs must agree.
    """

    def __init__(self):
        super().__init__()
        self.g = CreditGraph()
        self.held: dict[tuple[int, int], int] = {}
        self.last_commit = None  # (deltas, weights before) of the step just taken

    def held_link(self, data):
        return data.draw(st.sampled_from(sorted(k for k, r in self.held.items() if r)))

    def weights(self):
        return {key: entry[0] for key, entry in self.g._links.items()}

    @rule(u=NODES, v=NODES, w=st.integers(0, 20))
    def set_link(self, u, v, w):
        self.last_commit = None
        if u == v:
            with pytest.raises(ConfigError):
                self.g.set_link(u, v, w)
            return
        self.g.set_link(u, v, w)
        if self.held.get((u, v), 0) > w:  # the reservation is clamped
            self.held[(u, v)] = w

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data(), w=st.integers(0, 20))
    def set_reserved_link(self, data, w):
        """set_link on a link that holds a reservation, which it may clamp."""
        self.set_link(*self.held_link(data), w)

    @rule(u=NODES, v=NODES, c=st.integers(0, 20))
    def reserve(self, u, v, c):
        self.last_commit = None
        fits = self.g.available(u, v) >= c
        assert self.g.reserve(u, v, c) == fits
        if fits:
            self.held[(u, v)] = self.held.get((u, v), 0) + c

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data())
    def release(self, data):
        self.last_commit = None
        key = self.held_link(data)
        c = data.draw(st.integers(1, self.held[key]))
        self.g.release(*key, c)
        self.held[key] -= c

    @rule(u=NODES, v=NODES)
    def reserve_available(self, u, v):
        """Reserve all a link has left, so a commit along it drains it to zero."""
        self.reserve(u, v, self.g.available(u, v))

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data())
    def commit_payment(self, data):
        # A chain of distinct reserved links, starting at a random held one; a
        # hop may be the reverse of the hop before.
        path = [self.held_link(data)]
        while len(path) < 3:
            nxt = sorted(k for k, r in self.held.items()
                         if r and k[0] == path[-1][1] and k not in path)
            if not nxt or not data.draw(st.booleans()):
                break
            path.append(data.draw(st.sampled_from(nxt)))
        self.commit(path, data)

    def there_and_back(self):
        return sorted(k for k, r in self.held.items() if r and self.held.get((k[1], k[0])))

    @precondition(lambda self: self.there_and_back())
    @rule(data=st.data())
    def commit_there_and_back(self, data):
        """A link, then its reverse: a landmark path turning at a common ancestor."""
        x, y = data.draw(st.sampled_from(self.there_and_back()))
        self.commit([(x, y), (y, x)], data)

    def commit(self, path, data):
        # Often all that is held, which drains a link reserved in full.
        most = min(self.held[k] for k in path)
        c = data.draw(st.one_of(st.just(most), st.integers(1, most)))
        before = self.weights()
        pair_sums = self.pair_sums(path)
        ref, adj = self.g.clone(), dict(self.g._adj)
        deltas = self.g.commit_payment(path, c)
        ref_deltas = []
        for x, y in path:
            ref.release(x, y, c)
            ref_deltas.append(ref.set_link(x, y, ref.weight(x, y) - c))
            ref_deltas.append(ref.set_link(y, x, ref.weight(y, x) + c))
        assert deltas == ref_deltas
        assert all(type(d) is LinkDelta for d in deltas)
        self.same_as(ref, adj)
        for key in path:
            self.held[key] -= c
        assert self.pair_sums(path) == pair_sums
        self.last_commit = (deltas, before)

    def same_as(self, ref, adj):
        """The graph equals the reference replay: its links in order, its
        neighbor lists, and which of the lists in adj it replaced."""
        g = self.g
        assert list(g._links.items()) == list(ref._links.items())
        assert list(g._adj.items()) == list(ref._adj.items())
        assert [g._adj[v] is ns for v, ns in adj.items()] == [ref._adj[v] is ns for v, ns in adj.items()]

    def pair_sums(self, path):
        """w(u, v) + w(v, u) of every node pair the path touches."""
        return {(min(k), max(k)): self.g.weight(*k) + self.g.weight(k[1], k[0]) for k in path}

    @precondition(lambda self: self.last_commit is not None)
    @rule()
    def rollback_weights(self):
        deltas, before = self.last_commit
        self.last_commit = None
        ref, adj = self.g.clone(), dict(self.g._adj)
        self.g.rollback_weights(deltas)
        for u, v, old, _ in reversed(deltas):
            ref.set_link(u, v, old)
        self.same_as(ref, adj)
        assert self.weights() == before

    @invariant()
    def ledger_matches(self):
        self.g.check_invariants()
        assert self.g.total_reserved() == sum(self.held.values())
        for (u, v), r in self.held.items():
            assert self.g.reserved(u, v) == r


TestLedgerConservation = LedgerMachine.TestCase
TestLedgerConservation.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([0, 0, 1, 4])),
                      max_size=40))
def test_neighbor_lists_follow_the_links(steps):
    """After each set_link (removals to zero both ways, re-creations, joins of
    new ids): neighbors(v) lists, ascending, the nodes sharing a positive link
    with v in either direction, and a list read before the change is not
    mutated; it is still the current list exactly when v's neighbors stayed."""
    g = CreditGraph()
    for u, v, units in steps:
        if u == v:
            continue
        held = {x: (g.neighbors(x), list(g.neighbors(x))) for x in g.nodes}
        g.set_link(u, v, credit(units))
        for x, (ns, copy) in held.items():
            assert ns == copy
            assert (g.neighbors(x) is ns) == (g.neighbors(x) == copy)
        for x in g.nodes:
            assert g.neighbors(x) == [y for y in sorted(g.nodes) if g.weight(x, y) or g.weight(y, x)]
        g.check_invariants()


# The last positive weight of a pair wins and a zero row between keeps the
# link; a self row adds its node first; a pair set in one direction only.
@example(rows=[(0, 1, 3, None), (0, 1, 0, None), (0, 1, 1, None)])
@example(rows=[(2, 2, 1, 4), (0, 2, 1, None)])
@example(rows=[(0, 1, 1, 2)])
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([0, 1, 3]),
                               st.sampled_from([None, 0, 2])),
                     max_size=30))
def test_build_graph_equals_a_set_link_build(rows):
    """Same links in the same order, the same node order and the same lists
    as adding each row's nodes and setting its positive non-self weight; a
    row's limit changes nothing."""
    g = build_graph(SnapshotFile([
        LinkRecord(u, v, credit(w), None if limit is None else credit(limit)) for u, v, w, limit in rows]))
    ref = CreditGraph()
    for u, v, w, _ in rows:
        ref.add_node(u)
        ref.add_node(v)
        if w and u != v:
            ref.set_link(u, v, credit(w))
    assert list(g._links.items()) == list(ref._links.items())
    assert list(g.nodes) == list(ref.nodes)
    assert list(g._adj.items()) == list(ref._adj.items())
    g.check_invariants()


def test_check_invariants_catches_a_stale_neighbor_list(line_graph):
    line_graph._adj[0] = [1, 2]
    with pytest.raises(InternalError):
        line_graph.check_invariants()
