"""Comparison routing policies and the distributed max-flow baseline.

The policy grid crosses a path rule (landmark-centered, tree-only, or
greedy embedding), a credit rule (min-based assignment computed by the
landmarks, or random splitting by the sender), and a stabilization rule
(periodic rebuilds or on-demand repair). Two named settings are aliases:
SilentWhispers is LM-MUL-PER and SpeedyMurmurs is GE-RAND-OND. The
distributed Ford-Fulkerson policy (FF, ``max_flow``) is the baseline with
full message accounting; the feasibility oracle (``flow_feasible``, used by
the ``--feasible-only`` pool filter and the lockstep oracle) answers the
same max-flow question yes or no, at a fraction of the cost: most payments
are answered by one search for a single path wide enough for the whole
value, without a push. Both searches push along residual paths over one
residual map with the one augmentation step, ``_augment``; FF reads its
net flow back off that map to decompose it into paths.

Each executor's ``attempt`` discovers paths, assigns credit, reserves
along the paths and settles or rolls back, with the one greedy walk and
the one reserve/release/commit loop of ``routing``, ``settle``: GE-RAND
passes it greedy walks through ``route_probe``, and every other policy
passes the paths it found in advance as ``given(paths)``. Its result
record is ``routing.AttemptOutcome``: whether the attempt settled, its
messages and delay, and for a settlement the path lengths and the weight
deltas.

Message accounting (one message per link traversal):
  * every policy pays 2 x hops per tree for the single physical path
    traversal (probe out plus success/failure report back); greedy
    policies traverse during discovery, structural policies while
    reserving the payment;
  * greedy policies pay one out-of-band message per tree for return
    address delivery (one delay hop), configurable off;
  * min-based assignment (``_landmark_min``, the one min computation): the
    sender and receiver each send one message per landmark along the tree
    (receiver only, under greedy discovery), the landmarks exchange
    pairwise messages, and results travel back to the sender, all charged
    by tree-path length;
  * structural policies without the min computation still need the
    endpoint positions: depth(src) + depth(dst) messages in every tree
    where both endpoints are attached.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .embedding import Embedding, ReturnAddress, common_prefix_len
from .errors import ConfigError, InternalError
from .graph import CreditGraph, NodeId
from .routing import (
    AttemptOutcome,
    Path,
    gen_addresses,
    given,
    greedy_walk,
    next_hop,  # noqa: F401  bench/harness.py traces it here
    route_probe,
    settle,
    split_value,
)

_PATH_RULES = ("LM", "TO", "GE")
_CREDIT_RULES = ("MUL", "RAND")
_STAB_RULES = ("PER", "OND")

_ALIASES = {
    "SILENTWHISPERS": "LM-MUL-PER",
    "SPEEDYMURMURS": "GE-RAND-OND",
    "TO-SW": "TO-MUL-PER",
    "TO-SM": "TO-RAND-OND",
    "FORD-FULKERSON": "FF",
    "MAXFLOW": "FF",
}


@dataclass(frozen=True)
class RoutingPolicy:
    """One grid cell by label code: LM/TO/GE/FF, then MUL/RAND and PER/OND (None for FF)."""

    path_rule: str
    credit_rule: str | None
    stabilization_rule: str | None

    @property
    def label(self) -> str:
        return "-".join(filter(None, (self.path_rule, self.credit_rule, self.stabilization_rule)))

    @property
    def on_demand(self) -> bool:
        return self.stabilization_rule == "OND"

    @property
    def periodic(self) -> bool:
        return self.stabilization_rule == "PER"


MAX_FLOW_POLICY = RoutingPolicy("FF", None, None)


def parse_policy(text: str) -> RoutingPolicy:
    """Parse a policy label like GE-RAND-OND, TO-SW, or FF."""
    name = text.strip().upper()
    name = _ALIASES.get(name, name)
    if name == "FF":
        return MAX_FLOW_POLICY
    parts = name.split("-")
    if len(parts) != 3 or parts[0] not in _PATH_RULES or parts[1] not in _CREDIT_RULES \
            or parts[2] not in _STAB_RULES:
        raise ConfigError(f"unknown policy {text!r}")
    return RoutingPolicy(*parts)


def grid_policies() -> list[RoutingPolicy]:
    """The comparison grid, LM/GE x MUL/RAND x PER/OND plus both TO variants; a test aid."""
    out = []
    for p in ("LM", "GE"):
        for c in ("MUL", "RAND"):
            for s in ("PER", "OND"):
                out.append(parse_policy(f"{p}-{c}-{s}"))
    out.append(parse_policy("TO-SW"))
    out.append(parse_policy("TO-SM"))
    return out


# ---- structural path construction ------------------------------------------
# Both rules build a tree's path from the endpoints' cached hops
# (``Embedding.landmark_hops``), so a tree walks each endpoint's parent chain
# once per change, not once per attempt.


def landmark_paths(
    embeddings: list[Embedding], src: NodeId, dst: NodeId
) -> list[Path | None]:
    """Per tree: sender's chain up to the landmark, then down to the receiver.

    The concatenation may revisit nodes; that is inherent to the scheme.
    Trees where either endpoint is unattached yield None.
    """
    paths: list[Path | None] = []
    for emb in embeddings:
        coord = emb.coord
        if src in coord and dst in coord:
            paths.append([*emb.landmark_hops(src)[0], *emb.landmark_hops(dst)[1]])
        else:
            paths.append(None)
    return paths


def tree_only_paths(
    embeddings: list[Embedding], src: NodeId, dst: NodeId
) -> list[Path | None]:
    """Per tree: the unique tree path through the lowest common ancestor.

    The endpoints' chains share their hops from the landmark down to the
    lowest common ancestor, and the path is both chains without them.
    Trees where either endpoint is unattached yield None.
    """
    paths: list[Path | None] = []
    for emb in embeddings:
        coord = emb.coord
        if src in coord and dst in coord:
            up, down_src = emb.landmark_hops(src)
            down = emb.landmark_hops(dst)[1]
            shared = common_prefix_len(down_src, down)
            paths.append([*up[: len(up) - shared], *down[shared:]])
        else:
            paths.append(None)
    return paths


# ---- min-based credit assignment -------------------------------------------


def mpc_min_assign(
    g: CreditGraph,
    paths: list[Path | None],
    c: int,
    rng: random.Random,
) -> list[int] | None:
    """Assign per-path credits bounded by each path's minimum available credit.

    Mirrors the landmark computation: split c randomly over the paths,
    then repeatedly move everything above a path's minimum onto paths
    with headroom until all shares fit. Returns None when the minima
    cannot cover c.

    Each round caps every over-share path at its minimum, and a capped
    path never receives more, so each round caps at least one more path
    for good. Once k-1 of the k paths are capped, the last one holds at
    most its minimum, as the minima cover c. So the shares fit after at
    most k-1 rounds, and a k-th round is an ``InternalError``. The minima
    are read straight from the ledger; a missing or empty path's is 0.
    """
    links_get = g._links.get
    z = []
    for path in paths:
        low = None
        for hop in path or ():
            entry = links_get(hop)
            available = entry[0] - entry[1] if entry else 0
            if low is None or available < low:
                low = available
        z.append(low or 0)
    if sum(z) < c:
        return None
    shares = split_value(c, len(paths), rng)
    for _ in range(len(paths)):
        over = [i for i in range(len(paths)) if shares[i] > z[i]]
        if not over:
            return shares
        excess = 0
        for i in over:
            excess += shares[i] - z[i]
            shares[i] = z[i]
        room = [i for i in range(len(paths)) if shares[i] < z[i]]
        parts = split_value(excess, len(room), rng)
        for i, part in zip(room, parts):
            shares[i] += part
    raise InternalError(f"min-based assignment did not fit {len(paths)} shares")


# ---- distributed Ford-Fulkerson --------------------------------------------


@dataclass
class MaxFlowResult:
    value: int
    paths: list[tuple[Path, int]]
    messages: int


def max_flow(
    g: CreditGraph, src: NodeId, dst: NodeId, target: int
) -> MaxFlowResult:
    """Augment along shortest residual paths until the flow reaches target or none remain.

    ``target`` is required; one above every possible flow asks for the
    full max flow. Residual capacities start from guaranteed available
    credit. Each BFS scans neighbors in ascending node id and is charged
    one message per link scanned. Returns the flow value and a path
    decomposition suitable for committing the payment.
    """
    if src not in g.nodes or dst not in g.nodes or src == dst:
        return MaxFlowResult(0, [], 0)
    res: dict[tuple[NodeId, NodeId], int] = {}
    value = 0
    messages = 0
    adj = g._adj
    res_get = res.get
    links_get = g._links.get
    while value < target:
        parent: dict[NodeId, NodeId | None] = {src: None}
        queue = deque([src])
        while queue and dst not in parent:
            cur = queue.popleft()
            for n in adj[cur]:
                messages += 1
                if n in parent:
                    continue
                key = (cur, n)
                r = res_get(key)
                if r is None:
                    entry = links_get(key)
                    r = entry[0] - entry[1] if entry else 0
                if r <= 0:
                    continue
                parent[n] = cur
                if n == dst:
                    break
                queue.append(n)
        if dst not in parent:
            break
        value += _augment(g, res, _chain(parent, dst)[::-1], target - value)

    return MaxFlowResult(value, _decompose(g, res, src, dst), messages)


def _chain(parent: dict[NodeId, NodeId | None], x: NodeId | None) -> list[NodeId]:
    """x, its parent, that one's parent and so on, up to a root whose parent is None."""
    nodes = []
    while x is not None:
        nodes.append(x)
        x = parent[x]
    return nodes


def _augment(g: CreditGraph, res: dict[tuple[NodeId, NodeId], int], nodes: list[NodeId],
             limit: int) -> int:
    """Push the bottleneck of the simple path nodes, at most limit, and return it.

    ``res`` holds residual capacities; a link missing from it has its
    available credit. A push keeps ``g.available(a, b) - res[a, b]`` the
    net flow from a to b.
    """
    available = g.available
    hops = list(zip(nodes, nodes[1:]))
    residuals = [res.get(hop, available(*hop)) for hop in hops]
    push = min(limit, *residuals)
    for (a, b), r in zip(hops, residuals):
        res[(a, b)] = r - push
        res[(b, a)] = res.get((b, a), available(b, a)) + push
    return push


def _decompose(
    g: CreditGraph, res: dict[tuple[NodeId, NodeId], int], src: NodeId, dst: NodeId
) -> list[tuple[Path, int]]:
    """Strip src->dst paths off the net flow in ``res``, cancelling any cycles met on the way.

    The net flow on (u, v) is the positive part of ``g.available(u, v) -
    res[u, v]`` (see ``_augment``); each next hop is the smallest id with
    flow left, so the order of ``res`` does not matter.
    """
    out: dict[NodeId, dict[NodeId, int]] = {}
    for (u, v), r in res.items():
        amt = g.available(u, v) - r
        if amt > 0:
            out.setdefault(u, {})[v] = amt

    def strip(hops: Path) -> int:
        """Take the smallest flow on hops off each of them, and return it."""
        amt = min(out[a][b] for a, b in hops)
        for a, b in hops:
            out[a][b] -= amt
            if out[a][b] == 0:
                del out[a][b]
                if not out[a]:
                    del out[a]
        return amt

    paths: list[tuple[Path, int]] = []
    while out.get(src):
        nodes = [src]
        position = {src: 0}
        while nodes[-1] != dst:
            cur = nodes[-1]
            nxt = min(out[cur])
            if nxt in position:
                # Cycle: cancel its minimum flow and retry from the repeat point.
                cycle = nodes[position[nxt] :] + [nxt]
                strip(list(zip(cycle, cycle[1:])))
                nodes = nodes[: position[nxt] + 1]
                position = {n: i for i, n in enumerate(nodes)}
                if not out.get(nodes[-1]):
                    break
                continue
            nodes.append(nxt)
            position[nxt] = len(nodes) - 1
        if nodes[-1] != dst:
            continue
        links = list(zip(nodes, nodes[1:]))
        paths.append((links, strip(links)))
    return paths


def flow_feasible(g: CreditGraph, src: NodeId, dst: NodeId, c: int) -> bool:
    """Oracle: can c actually be pushed from src to dst right now?

    Equivalent to ``max_flow(g, src, dst, target=c).value >= c`` (the
    max-flow value is unique), over the same residual capacities: the
    available credit, weight minus reservations. A value of c <= 0 is
    always feasible; src == dst or an unknown endpoint is not.

    The answer is found in three steps:
      * cut bound: when the sender's total available outgoing credit or
        the receiver's total incoming credit is below c, no flow reaches
        c, and the check ends without a search;
      * one wide search: a bidirectional BFS (the forward side over links
        out of src, the backward side over links into dst, the smaller
        frontier expanded first) passing only links with at least c
        available. If the sides meet, one path carries all of c: yes, with
        no push (the wide-path idea of Edmonds and Karp, JACM 1972);
      * residual loop, the exact fallback: push along residual paths found
        by the same BFS until c units are pushed or no path is left.

    Both max-flow searches push with ``_augment`` over a residual map, but
    the BFS is kept apart from ``max_flow``'s because that is the FF policy
    and its cost model: its sorted one-direction BFS scan count is charged
    as messages and delay, and FF reads its net flow off the residual map to
    decompose it for settlement. The oracle only answers yes or no, so it
    neither sorts nor counts neighbors, builds no path decomposition, and
    never writes the graph.

    The exact fallback is not ``max_flow`` because it proves infeasibility
    far sooner: its last search stops once either side runs out of frontier,
    while a one-way search from src covers all that src reaches first.
    """
    if c <= 0:
        return True
    if src == dst or src not in g.nodes or dst not in g.nodes:
        return False
    adj = g._adj
    links_get = g._links.get

    def total(keys):
        return sum(entry[0] - entry[1] for entry in map(links_get, keys) if entry)

    if total((src, n) for n in adj[src]) < c or total((n, dst) for n in adj[dst]) < c:
        return False

    res: dict[tuple[NodeId, NodeId], int] = {}
    res_get = res.get

    def expand(front, seen, other, forward, floor):
        """One BFS level over links with floor or more left: next frontier, meeting node."""
        nxt = []
        for x in front:
            for y in adj[x]:
                if y in seen:
                    continue
                key = (x, y) if forward else (y, x)
                r = res_get(key)
                if r is None:
                    entry = links_get(key)
                    r = entry[0] - entry[1] if entry else 0
                if r < floor:
                    continue
                seen[y] = x
                if y in other:
                    return nxt, y
                nxt.append(y)
        return nxt, None

    def search(floor):
        """A src-dst path of links with at least floor left, or None."""
        # Two small searches from both ends meet long before a one-way search
        # has covered the graph, which made the oracle most of the set-up.
        # Parents toward src (forward side) and toward dst (backward side).
        fwd: dict[NodeId, NodeId | None] = {src: None}
        bwd: dict[NodeId, NodeId | None] = {dst: None}
        f_front = [src]
        b_front = [dst]
        meet = None
        while meet is None and f_front and b_front:
            if len(f_front) <= len(b_front):
                f_front, meet = expand(f_front, fwd, bwd, True, floor)
            else:
                b_front, meet = expand(b_front, bwd, fwd, False, floor)
        return None if meet is None else _chain(fwd, meet)[::-1] + _chain(bwd, bwd[meet])

    if search(c) is not None:
        return True
    pushed = 0
    while pushed < c:
        nodes = search(1)  # residuals are whole micro-units
        if nodes is None:
            return False
        pushed += _augment(g, res, nodes, c - pushed)
    return True


# ---- transaction executors --------------------------------------------------


@dataclass
class TxContext:
    """Per-transaction state shared by all attempts."""

    setup_messages: int = 0
    setup_delay: int = 0
    addrs: list[ReturnAddress | None] | None = None


def _landmark_min(
    g: CreditGraph, embeddings: list[Embedding], paths: list[Path | None],
    src: NodeId, dst: NodeId, value: int, include_src: bool, rng: random.Random,
) -> tuple[list[int] | None, int, int]:
    """The landmarks' min computation: (shares, messages, delay).

    Charged as the module docstring says; the delay is the longest collect
    plus exchange plus results chain. An endpoint or peer landmark
    unattached in some tree gives (None, 0, 0) without drawing from rng;
    otherwise the shares are ``mpc_min_assign``'s, None when short.
    """
    messages = 0
    collect = 0
    exchange = 0
    results = 0
    for emb in embeddings:
        coord = emb.coord
        c_src, c_dst = coord.get(src), coord.get(dst)
        if c_src is None or c_dst is None:
            return None, 0, 0
        d_src, d_dst = len(c_src), len(c_dst)
        if include_src:
            messages += d_src
            collect = d_src if d_src > collect else collect
        messages += d_dst
        collect = d_dst if d_dst > collect else collect
        for other in embeddings:
            if other is emb:
                continue
            peer_coord = coord.get(other.landmark)
            if peer_coord is None:
                return None, 0, 0
            d_peer = len(peer_coord)
            messages += d_peer
            exchange = d_peer if d_peer > exchange else exchange
        messages += d_src
        results = d_src if d_src > results else results
    return mpc_min_assign(g, paths, value, rng), messages, collect + exchange + results


class GreedyExecutor:
    """Embedding-based routing (GE rows), with either credit rule."""

    def __init__(self, credit_rule: str, addr_overhead: bool):
        self.credit_rule = credit_rule
        self.addr_overhead = addr_overhead

    def begin(self, g, embeddings, src, dst, value, rng):
        ctx = TxContext(addrs=gen_addresses(embeddings, dst, rng))
        if self.addr_overhead and any(a is not None for a in ctx.addrs):
            ctx.setup_messages = len(embeddings)
            ctx.setup_delay = 1
        return ctx

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        if self.credit_rule == "RAND":
            shares = split_value(value, len(embeddings), rng)
            return route_probe(g, embeddings, src, ctx.addrs, shares, rng)

        # MUL: discover paths with share 1 first, then let the landmarks fit shares.
        walks = [greedy_walk(g, emb, src, addr, 1, rng) for emb, addr in zip(embeddings, ctx.addrs)]
        paths = [path if reached else None for path, reached in walks]
        shares, messages, delay = _landmark_min(g, embeddings, paths, src, dst, value, False, rng)
        messages += 2 * sum(len(path) for path, _ in walks)
        delay += 2 * max((len(path) for path, _ in walks), default=0)
        if shares is None:
            return AttemptOutcome(False, messages, delay)
        settled, _, deltas, lengths = settle(g, shares, given(paths))
        return AttemptOutcome(settled, messages, delay, lengths, deltas)


class StructuralExecutor:
    """Landmark-centered and tree-only routing over fixed tree paths."""

    def __init__(self, path_rule: str, credit_rule: str):
        self.path_rule = path_rule
        self.credit_rule = credit_rule

    def begin(self, g, embeddings, src, dst, value, rng):
        ctx = TxContext()
        if self.credit_rule == "RAND":
            # Both endpoints announce their tree positions to the landmarks.
            for emb in embeddings:
                if emb.attached(src) and emb.attached(dst):
                    d_src, d_dst = emb.depth(src), emb.depth(dst)
                    ctx.setup_messages += d_src + d_dst
                    ctx.setup_delay = max(ctx.setup_delay, d_src, d_dst)
        return ctx

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        find_paths = landmark_paths if self.path_rule == "LM" else tree_only_paths
        paths = find_paths(embeddings, src, dst)
        if self.credit_rule == "MUL":
            shares, messages, delay = _landmark_min(
                g, embeddings, paths, src, dst, value, True, rng)
            if shares is None:
                return AttemptOutcome(False, messages, delay)
        else:
            shares, messages, delay = split_value(value, len(embeddings), rng), 0, 0
        settled, hops, deltas, lengths = settle(g, shares, given(paths))
        messages += 2 * sum(hops)
        delay += 2 * max(hops, default=0)
        return AttemptOutcome(settled, messages, delay, lengths, deltas)


class MaxFlowExecutor:
    """Distributed Ford-Fulkerson as a (costly) routing policy."""

    def begin(self, g, embeddings, src, dst, value, rng):
        return TxContext()

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        result = max_flow(g, src, dst, target=value)
        # Discovery is a serial message chain, so every message is a delay hop.
        delay = result.messages
        if result.value < value:
            return AttemptOutcome(False, result.messages, delay)
        paths = [path for path, _ in result.paths]
        amounts = [amount for _, amount in result.paths]
        settled, _, deltas, lengths = settle(g, amounts, given(paths))
        if not settled:
            raise InternalError("max-flow decomposition oversubscribed a link")
        return AttemptOutcome(True, result.messages, delay, lengths, deltas)


Executor = GreedyExecutor | StructuralExecutor | MaxFlowExecutor


def make_executor(policy: RoutingPolicy, addr_overhead: bool = True) -> Executor:
    if policy.path_rule == "FF":
        return MaxFlowExecutor()
    if policy.path_rule == "GE":
        return GreedyExecutor(policy.credit_rule, addr_overhead)
    return StructuralExecutor(policy.path_rule, policy.credit_rule)
