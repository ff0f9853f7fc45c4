"""Directed weighted credit graph with fund accounting and a reservation ledger.

A link (u, v) carries the funds u can currently transfer to v. Probes do
not spend funds directly; they place reservations, and the guaranteed
available credit of a link is its weight minus outstanding reservations.
Keeping reservations in an explicit ledger (instead of a second mutable
weight) makes rollback bugs detectable: the ledger must drain back to zero
after every failed probe.

Link-pair lifetime rule: a directed entry exists only while its weight is
positive, and a node pair stays adjacent only while at least one direction
has positive weight. Links with zero weight in both directions serve no
purpose and are pruned.

Adjacency rule: one map holds every node's neighbors as a list sorted by id.
A list is replaced, never mutated, when its node gains or loses a neighbor,
so a reader holding a list can tell a change by its identity.
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from collections.abc import Iterable, KeysView
from typing import NamedTuple

from .errors import ConfigError, InternalError

NodeId = int


class LinkDelta(NamedTuple):
    """One directed weight change: w(u, v) went from old to new.

    A named tuple, so it compares equal to the plain tuple (u, v, old, new).
    """

    u: NodeId
    v: NodeId
    old: int
    new: int


class CreditGraph:
    """Mutable credit graph over integer micro-unit weights.

    ``_adj`` maps each node, in order of first appearance, to its neighbor
    list (the module's adjacency rule). Single-writer: the simulation engine
    serializes all mutations. Clones are fully independent.
    """

    def __init__(self) -> None:
        # (u, v) -> [weight, reserved]; entry exists iff weight > 0. One list per
        # link makes a credit check one lookup; available-credit ints with a sparse
        # reservation map save memory but slow the reserve-heavy landmark policies.
        self._links: dict[tuple[NodeId, NodeId], list[int]] = {}
        self._adj: dict[NodeId, list[NodeId]] = {}

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[NodeId, NodeId, int, int | None]]) -> CreditGraph:
        """The graph of parsed snapshot rows (u, v, weight, limit).

        Row rules: each row adds u, then v, as a node on its first appearance;
        a row with a positive weight and u != v sets w(u, v), the last such
        row of a pair winning; a zero-weight or self row adds only its nodes,
        and keeps a link an earlier row set. The limit is not read.

        One walk over the rows writes the links; the neighbor lists are then
        filled from the links and sorted. Callers parse every row before they
        call this. Both orders are about memory layout, not results: a build's
        objects live as long as the run, laid out in the order they are made,
        and at crawl size the tree build and routing that walk them ran
        measurably slower when the graph was built while the rows were parsed
        (among each row's short-lived objects) or when the neighbor lists were
        made during the row walk (among the link entries).
        """
        g = cls()
        links = g._links
        nodes: dict[NodeId, None] = {}
        for u, v, w, _ in rows:
            nodes[u] = nodes[v] = None
            if w > 0 and u != v:
                key = (u, v)
                entry = links.get(key)
                if entry is None:
                    links[key] = [w, 0]
                else:
                    entry[0] = w
        adj = g._adj = {v: [] for v in nodes}
        for u, v in links:
            if u < v or (v, u) not in links:
                adj[u].append(v)
                adj[v].append(u)
        for ns in adj.values():
            ns.sort()
        return g

    # ---- basic structure ------------------------------------------------

    @property
    def nodes(self) -> KeysView[NodeId]:
        """Every node, in order of first appearance (a read-only view)."""
        return self._adj.keys()

    def add_node(self, v: NodeId) -> None:
        if v not in self._adj:
            self._adj[v] = []

    def neighbors(self, v: NodeId) -> list[NodeId]:
        """Nodes adjacent to v through a link in either direction, ascending."""
        return self._adj[v]

    def degree(self, v: NodeId) -> int:
        return len(self._adj[v])

    def undirected_edge_count(self) -> int:
        """Number of adjacent node pairs (each pair counted once)."""
        return sum(len(ns) for ns in self._adj.values()) // 2

    def weight(self, u: NodeId, v: NodeId) -> int:
        entry = self._links.get((u, v))
        return entry[0] if entry else 0

    def bidirectional(self, u: NodeId, v: NodeId) -> bool:
        """True iff both w(u, v) and w(v, u) are positive."""
        links = self._links
        return (u, v) in links and (v, u) in links

    def reserved(self, u: NodeId, v: NodeId) -> int:
        entry = self._links.get((u, v))
        return entry[1] if entry else 0

    def available(self, u: NodeId, v: NodeId) -> int:
        """Guaranteed available credit: weight minus outstanding reservations."""
        entry = self._links.get((u, v))
        return entry[0] - entry[1] if entry else 0

    # ---- mutation --------------------------------------------------------

    def set_link(self, u: NodeId, v: NodeId, c: int) -> LinkDelta:
        """Set w(u, v) = c, clamping any reservation to the new weight.

        Self-links are rejected; negative weights are impossible in the
        model. Setting both directions of a pair to zero removes it.
        """
        if u == v:
            raise ConfigError(f"self-link {u}->{v} rejected")
        if c < 0:
            raise ConfigError("link weight must be nonnegative")
        self.add_node(u)
        self.add_node(v)
        old = self.weight(u, v)
        self._set_weight(u, v, c, clamp=True)
        return LinkDelta(u, v, old, c)

    def _set_weight(self, u: NodeId, v: NodeId, w: int, clamp: bool = False) -> None:
        key = (u, v)
        entry = self._links.get(key)
        if w > 0:
            if entry is None:
                self._links[key] = [w, 0]
                if (v, u) not in self._links:
                    self._replace_neighbors(u, v, insort)
            else:
                entry[0] = w
                if clamp and entry[1] > w:
                    entry[1] = w
                elif entry[1] > w:
                    raise InternalError(f"reservation {entry[1]} exceeds new weight {w} on {key}")
        elif entry is not None:
            del self._links[key]
            if (v, u) not in self._links:
                self._replace_neighbors(u, v, list.remove)

    def _replace_neighbors(self, u: NodeId, v: NodeId, edit) -> None:
        """Give u and v new neighbor lists: copies with the other end inserted or removed."""
        adj = self._adj
        for x, y in ((u, v), (v, u)):
            ns = adj[x].copy()
            edit(ns, y)
            adj[x] = ns

    def reserve(self, u: NodeId, v: NodeId, c: int) -> bool:
        """Reserve c on (u, v); False (state unchanged) when w_A < c."""
        if c < 0:
            raise ConfigError("reservation must be nonnegative")
        entry = self._links.get((u, v))
        if entry is None:
            return c == 0
        if entry[0] - entry[1] < c:
            return False
        entry[1] += c
        return True

    def release(self, u: NodeId, v: NodeId, c: int) -> None:
        """Return a reservation to the ledger; over-release is a rollback bug."""
        if c == 0:
            return
        entry = self._links.get((u, v))
        if entry is None or entry[1] < c:
            raise InternalError(f"release of {c} exceeds reservation on ({u}, {v})")
        entry[1] -= c

    def commit_payment(self, path: Iterable[tuple[NodeId, NodeId]], c: int) -> list[LinkDelta]:
        """Settle c along a reserved path, shifting weight onto reverse links.

        Every link on the path must hold a reservation of at least c.
        Returns the directed weight deltas in application order so a
        static-mode run can restore the exact prior state.

        Each hop reads its forward and reverse entries once and writes a
        weight that stays positive in place. Only a forward link drained to
        zero, a reverse link created or an over-reservation takes ``_set_weight``.
        """
        path = list(path)
        if c == 0:
            return []
        links = self._links
        get = links.get
        for hop in path:
            entry = get(hop)
            if entry is None or entry[1] < c:
                raise InternalError(f"commit without reservation on ({hop[0]}, {hop[1]})")
        new = tuple.__new__
        deltas: list[LinkDelta] = []
        for hop in path:
            x, y = hop
            entry = links[hop]
            entry[1] -= c
            fwd_old = entry[0]
            fwd_new = fwd_old - c
            if fwd_new > 0 and entry[1] <= fwd_new:
                entry[0] = fwd_new
            else:
                self._set_weight(x, y, fwd_new)
            rev = get((y, x))
            rev_old = rev[0] if rev else 0
            rev_new = rev_old + c
            if rev and rev_new > 0 and rev[1] <= rev_new:
                rev[0] = rev_new
            else:
                self._set_weight(y, x, rev_new)
            deltas.append(new(LinkDelta, (x, y, fwd_old, fwd_new)))
            deltas.append(new(LinkDelta, (y, x, rev_old, rev_new)))
        return deltas

    def rollback_weights(self, deltas: Iterable[LinkDelta]) -> None:
        """Undo a sequence of weight deltas (applied in reverse order).

        Only a removal, a re-creation or an over-reservation takes ``_set_weight``.
        """
        get = self._links.get
        for u, v, old, _ in reversed(list(deltas)):
            entry = get((u, v))
            if entry and old > 0 and entry[1] <= old:
                entry[0] = old
            else:
                self._set_weight(u, v, old)

    # ---- derived quantities ----------------------------------------------

    def net_balance(self, v: NodeId) -> int:
        """Incoming minus outgoing weight, signed; a test aid for the conservation checks."""
        return sum(self.weight(n, v) - self.weight(v, n) for n in self._adj[v])

    def total_reserved(self) -> int:
        return sum(entry[1] for entry in self._links.values())

    def select_landmarks(self, k: int, mode: str = "degree", seed: int = 0) -> list[NodeId]:
        """Pick k landmark nodes, either by bidirectional degree or at random.

        Degree mode ranks by the bidirectional degree, the number of
        neighbors with positive available credit in both directions, ties
        broken by ascending node id. It counts that degree for nodes in
        descending neighbor count and stops once k picks are held and the
        next count is below the k-th pick's degree: a node's bidirectional
        degree never exceeds its neighbor count, so no later node can rank
        above that pick (an equal count still could, by a smaller id).
        """
        if not 0 <= k <= len(self.nodes):
            raise ConfigError(f"cannot select {k} landmarks from {len(self.nodes)} nodes")
        if mode == "degree":
            if k == 0:
                return []
            links = self._links
            adj = self._adj
            best: list[tuple[int, int]] = []  # min-heap of (degree, -id), the k best so far
            for u in sorted(adj, key=lambda v: len(adj[v]), reverse=True):
                ns = adj[u]
                if len(best) == k and len(ns) < best[0][0]:
                    break
                degree = 0
                for v in ns:
                    fwd = links.get((u, v))
                    if fwd is not None and fwd[0] > fwd[1]:
                        back = links.get((v, u))
                        if back is not None and back[0] > back[1]:
                            degree += 1
                if len(best) < k:
                    heapq.heappush(best, (degree, -u))
                elif (degree, -u) > best[0]:
                    heapq.heapreplace(best, (degree, -u))
            return [-neg for _, neg in sorted(best, reverse=True)]
        if mode == "random":
            rng = random.Random(seed)
            pool = sorted(self.nodes)
            picks: list[NodeId] = []
            for _ in range(k):
                picks.append(pool.pop(rng.randrange(len(pool))))
            return picks
        raise ConfigError(f"unknown landmark mode {mode!r}")

    def components(self) -> list[set[NodeId]]:
        """Weakly connected components (links in either direction connect)."""
        seen: set[NodeId] = set()
        out: list[set[NodeId]] = []
        for start in sorted(self.nodes):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for n in self._adj[node]:
                    if n not in comp:
                        comp.add(n)
                        stack.append(n)
            seen |= comp
            out.append(comp)
        return out

    def clone(self) -> CreditGraph:
        g = CreditGraph()
        g._links = {k: entry.copy() for k, entry in self._links.items()}
        # Neighbor lists are replaced, never mutated, so sharing them is safe.
        g._adj = dict(self._adj)
        return g

    def check_invariants(self) -> None:
        """Raise InternalError on any ledger, pruning or adjacency violation (test aid)."""
        for (u, v), (w, r) in self._links.items():
            if w <= 0:
                raise InternalError(f"zero-weight entry persists on ({u}, {v})")
            if r < 0 or r > w:
                raise InternalError(f"reservation {r} out of range on ({u}, {v}) weight {w}")
            if u not in self._adj or v not in self._adj:
                raise InternalError(f"link ({u}, {v}) has an unknown endpoint")
        rows = [(v, v, 0, None) for v in self._adj] + [(u, v, 1, None) for u, v in self._links]
        if CreditGraph.from_rows(rows)._adj != self._adj:
            raise InternalError("neighbor lists differ from the links")
