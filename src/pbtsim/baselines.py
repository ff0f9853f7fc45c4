"""Comparison routing policies and the distributed max-flow baseline.

The policy grid crosses a path rule (landmark-centered, tree-only, or
greedy embedding), a credit rule (min-based assignment computed by the
landmarks, or random splitting by the sender), and a stabilization rule
(periodic rebuilds or on-demand repair). Two named settings are aliases:
SilentWhispers is LM-MUL-PER and SpeedyMurmurs is GE-RAND-OND. The
distributed Ford-Fulkerson policy doubles as the feasibility oracle.

Message accounting (one message per link traversal):
  * every policy pays 2 x hops per tree for the single physical path
    traversal (probe out plus success/failure report back); greedy
    policies traverse during discovery, structural policies while
    reserving the payment;
  * greedy policies pay one out-of-band message per tree for return
    address delivery (one delay hop), configurable off;
  * with min-based assignment the sender and receiver each send one
    message per landmark along the tree (receiver only, under greedy
    discovery), the landmarks exchange pairwise messages, and results
    travel back to the sender, all charged by tree-path length;
  * structural policies without the min computation still need the
    endpoint positions, charged as one message per endpoint per landmark.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .embedding import Embedding, ReturnAddress
from .errors import ConfigError, InternalError
from .graph import CreditGraph, LinkDelta, NodeId
from .routing import (
    Path,
    commit_probe,
    gen_addresses,
    next_hop,
    route_probe,
    split_value,
)

_PATH_RULES = {"LM": "landmark-centered", "TO": "tree-only", "GE": "greedy-embedding"}
_CREDIT_RULES = {"MUL": "mpc-min", "RAND": "random-split"}
_STAB_RULES = {"PER": "periodic", "OND": "on-demand"}

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
    """One cell of the comparison grid."""

    path_rule: str
    credit_rule: str | None
    stabilization_rule: str | None

    @property
    def label(self) -> str:
        if self.path_rule == "max-flow":
            return "FF"
        inv_path = {v: k for k, v in _PATH_RULES.items()}
        inv_credit = {v: k for k, v in _CREDIT_RULES.items()}
        inv_stab = {v: k for k, v in _STAB_RULES.items()}
        return (
            f"{inv_path[self.path_rule]}-{inv_credit[self.credit_rule]}"
            f"-{inv_stab[self.stabilization_rule]}"
        )

    @property
    def on_demand(self) -> bool:
        return self.stabilization_rule == "on-demand"

    @property
    def periodic(self) -> bool:
        return self.stabilization_rule == "periodic"


MAX_FLOW_POLICY = RoutingPolicy("max-flow", None, None)


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
    return RoutingPolicy(_PATH_RULES[parts[0]], _CREDIT_RULES[parts[1]], _STAB_RULES[parts[2]])


def grid_policies() -> list[RoutingPolicy]:
    """The full comparison grid: LM/GE x MUL/RAND x PER/OND plus both TO variants."""
    out = []
    for p in ("LM", "GE"):
        for c in ("MUL", "RAND"):
            for s in ("PER", "OND"):
                out.append(parse_policy(f"{p}-{c}-{s}"))
    out.append(parse_policy("TO-SW"))
    out.append(parse_policy("TO-SM"))
    return out


# ---- structural path construction ------------------------------------------


def landmark_paths(
    embeddings: list[Embedding], src: NodeId, dst: NodeId
) -> list[Path | None]:
    """Per tree: sender's chain up to the landmark, then down to the receiver.

    The concatenation may revisit nodes; that is inherent to the scheme.
    Trees where either endpoint is unattached yield None.
    """
    paths: list[Path | None] = []
    for emb in embeddings:
        if not emb.attached(src) or not emb.attached(dst):
            paths.append(None)
            continue
        up = emb.path_to_landmark(src)
        down = emb.path_to_landmark(dst)[::-1]
        nodes = up + down[1:]
        paths.append(list(zip(nodes, nodes[1:])))
    return paths


def tree_only_paths(
    embeddings: list[Embedding], src: NodeId, dst: NodeId
) -> list[Path | None]:
    """Per tree: the unique tree path through the lowest common ancestor."""
    paths: list[Path | None] = []
    for emb in embeddings:
        if not emb.attached(src) or not emb.attached(dst):
            paths.append(None)
            continue
        nodes = emb.tree_path(src, dst)
        paths.append(list(zip(nodes, nodes[1:])))
    return paths


# ---- min-based credit assignment -------------------------------------------


def mpc_min_assign(
    g: CreditGraph,
    paths: list[Path | None],
    c: int,
    rng: random.Random,
    max_rounds: int | None = None,
) -> list[int] | None:
    """Assign per-path credits bounded by each path's minimum available credit.

    Mirrors the landmark computation: split c randomly over the paths,
    then repeatedly move everything above a path's minimum onto paths
    with headroom until all shares fit. Returns None when the minima
    cannot cover c (or the loop fails to settle within the generous
    iteration bound, which strictly reducing excess makes unreachable in
    practice).
    """
    z = [
        min((g.available(x, y) for x, y in path), default=0) if path is not None else 0
        for path in paths
    ]
    if sum(z) < c:
        return None
    shares = split_value(c, len(paths), rng)
    rounds = 0
    limit = max_rounds if max_rounds is not None else 10 * len(paths)
    while True:
        over = [i for i in range(len(paths)) if shares[i] > z[i]]
        if not over:
            return shares
        rounds += 1
        if rounds > limit:
            return None
        excess = 0
        for i in over:
            excess += shares[i] - z[i]
            shares[i] = z[i]
        room = [i for i in range(len(paths)) if shares[i] < z[i]]
        parts = split_value(excess, len(room), rng)
        for i, part in zip(room, parts):
            shares[i] += part


# ---- distributed Ford-Fulkerson --------------------------------------------


@dataclass
class MaxFlowResult:
    value: int
    paths: list[tuple[Path, int]]
    messages: int
    delay: int


def max_flow(
    g: CreditGraph, src: NodeId, dst: NodeId, target: int | None = None
) -> MaxFlowResult:
    """Augment along shortest residual paths until target is met or none remain.

    Residual capacities start from guaranteed available credit. Each BFS
    scans neighbors in ascending node id and is charged one message per
    link scanned; the distributed discovery is a serial message chain, so
    the same count accrues as delay. Returns the flow value and a path
    decomposition suitable for committing the payment.
    """
    if src not in g.nodes or dst not in g.nodes or src == dst:
        return MaxFlowResult(0, [], 0, 0)
    links = g._links
    res: dict[tuple[NodeId, NodeId], int] = {}
    flows: dict[tuple[NodeId, NodeId], int] = {}
    value = 0
    messages = 0

    def residual(a: NodeId, b: NodeId) -> int:
        r = res.get((a, b))
        if r is not None:
            return r
        entry = links.get((a, b))
        return entry[0] - entry[1] if entry else 0

    res_get = res.get
    links_get = links.get
    while target is None or value < target:
        parent: dict[NodeId, NodeId] = {src: src}
        queue = deque([src])
        found = False
        scanned = 0
        while queue and not found:
            cur = queue.popleft()
            for n in g.sorted_neighbors(cur):
                scanned += 1
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
                    found = True
                    break
                queue.append(n)
        messages += scanned
        if not found:
            break
        path_nodes = [dst]
        while path_nodes[-1] != src:
            path_nodes.append(parent[path_nodes[-1]])
        path_nodes.reverse()
        hops = list(zip(path_nodes, path_nodes[1:]))
        bottleneck = min(residual(a, b) for a, b in hops)
        push = bottleneck if target is None else min(bottleneck, target - value)
        for a, b in hops:
            res[(a, b)] = residual(a, b) - push
            res[(b, a)] = residual(b, a) + push
            back = flows.get((b, a), 0)
            if back >= push:
                flows[(b, a)] = back - push
            else:
                flows[(a, b)] = flows.get((a, b), 0) + push - back
                if back:
                    flows[(b, a)] = 0
        value += push

    return MaxFlowResult(value, _decompose(flows, src, dst), messages, messages)


def _decompose(
    flows: dict[tuple[NodeId, NodeId], int], src: NodeId, dst: NodeId
) -> list[tuple[Path, int]]:
    """Strip src->dst paths off a net flow, cancelling any cycles met on the way."""
    out: dict[NodeId, dict[NodeId, int]] = {}
    for (u, v), amt in flows.items():
        if amt > 0:
            out.setdefault(u, {})[v] = amt
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
                cmin = min(out[a][b] for a, b in zip(cycle, cycle[1:]))
                for a, b in zip(cycle, cycle[1:]):
                    out[a][b] -= cmin
                    if out[a][b] == 0:
                        del out[a][b]
                        if not out[a]:
                            del out[a]
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
        amt = min(out[a][b] for a, b in links)
        for a, b in links:
            out[a][b] -= amt
            if out[a][b] == 0:
                del out[a][b]
                if not out[a]:
                    del out[a]
        paths.append((links, amt))
    return paths


def flow_feasible(g: CreditGraph, src: NodeId, dst: NodeId, c: int) -> bool:
    """Oracle: can c actually be pushed from src to dst right now?"""
    return max_flow(g, src, dst, target=c).value >= c


# ---- transaction executors --------------------------------------------------


@dataclass
class AttemptOutcome:
    success: bool
    messages: int
    delay: int
    path_lengths: list[int]
    weight_deltas: list[LinkDelta]


@dataclass
class TxContext:
    """Per-transaction state shared by all attempts."""

    setup_messages: int = 0
    setup_delay: int = 0
    addrs: list[ReturnAddress | None] | None = None


class TransactionExecutor:
    """Uniform driver interface the simulation engine runs policies through."""

    def begin(
        self, g: CreditGraph, embeddings: list[Embedding],
        src: NodeId, dst: NodeId, value: int, rng: random.Random,
    ) -> TxContext:
        raise NotImplementedError

    def attempt(
        self, g: CreditGraph, embeddings: list[Embedding],
        src: NodeId, dst: NodeId, value: int, ctx: TxContext, rng: random.Random,
    ) -> AttemptOutcome:
        raise NotImplementedError


def _mpc_accounting(
    embeddings: list[Embedding], src: NodeId, dst: NodeId, include_src: bool
) -> tuple[int, int] | None:
    """Messages and chain delay of the landmark min computation.

    None when some share message is undeliverable (an endpoint or a peer
    landmark is unattached in one of the trees), which fails the probe.
    """
    messages = 0
    collect = 0
    exchange = 0
    results = 0
    for emb in embeddings:
        if not emb.attached(src) or not emb.attached(dst):
            return None
        d_src, d_dst = emb.depth(src), emb.depth(dst)
        if include_src:
            messages += d_src
            collect = max(collect, d_src)
        messages += d_dst
        collect = max(collect, d_dst)
        for other in embeddings:
            if other is emb:
                continue
            peer_coord = emb.coord.get(other.landmark)
            if peer_coord is None:
                return None
            messages += len(peer_coord)
            exchange = max(exchange, len(peer_coord))
        messages += d_src
        results = max(results, d_src)
    return messages, collect + exchange + results


def _greedy_discover(
    g: CreditGraph, emb: Embedding, src: NodeId,
    addr: ReturnAddress | None, rng: random.Random,
) -> tuple[Path | None, int]:
    """Greedy walk requiring only positive available credit; no reservations."""
    if addr is None or not emb.attached(src):
        return None, 0
    dist_cache: dict[NodeId, int] = {}
    path: Path = []
    cur = src
    while not addr.is_receiver(emb.coord.get(cur)):
        nxt = next_hop(g, emb, cur, addr, 1, rng, dist_cache)
        if nxt is None:
            return None, len(path)
        path.append((cur, nxt))
        cur = nxt
        if len(path) > len(g.nodes):
            raise InternalError(f"hop budget exhausted in tree {emb.tree_index}")
    return path, len(path)


def _reserve_paths(
    g: CreditGraph,
    paths: list[Path | None],
    shares: list[int],
    charge_walk: bool,
) -> tuple[bool, int, int, list[tuple[NodeId, NodeId, int]]]:
    """Reserve each nonzero share along its path; partial walks are reported.

    Returns (all ok, messages, delay contribution, reservations made).
    Zero-share trees are skipped outright; a missing path fails the
    attempt without messages for that tree.
    """
    ok = True
    messages = 0
    delay = 0
    reservations: list[tuple[NodeId, NodeId, int]] = []
    for path, share in zip(paths, shares):
        if share == 0:
            continue
        if path is None:
            ok = False
            continue
        hops = 0
        for x, y in path:
            if not g.reserve(x, y, share):
                ok = False
                break
            reservations.append((x, y, share))
            hops += 1
        else:
            hops = len(path)
        if charge_walk:
            messages += 2 * hops
            delay = max(delay, 2 * hops)
    return ok, messages, delay, reservations


def _rollback(g: CreditGraph, reservations: list[tuple[NodeId, NodeId, int]]) -> None:
    for u, v, amount in reservations:
        g.release(u, v, amount)


def _commit(
    g: CreditGraph, paths: list[Path | None], shares: list[int]
) -> tuple[list[LinkDelta], list[int]]:
    deltas: list[LinkDelta] = []
    lengths: list[int] = []
    for path, share in zip(paths, shares):
        if share > 0 and path is not None:
            deltas.extend(g.commit_payment(path, share))
            lengths.append(len(path))
    return deltas, lengths


class GreedyExecutor(TransactionExecutor):
    """Embedding-based routing (GE rows), with either credit rule."""

    def __init__(self, credit_rule: str, address_len: int, addr_overhead: bool):
        self.credit_rule = credit_rule
        self.address_len = address_len
        self.addr_overhead = addr_overhead

    def begin(self, g, embeddings, src, dst, value, rng):
        ctx = TxContext(addrs=gen_addresses(embeddings, dst, rng, self.address_len))
        if self.addr_overhead and any(a is not None for a in ctx.addrs):
            ctx.setup_messages = len(embeddings)
            ctx.setup_delay = 1
        return ctx

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        if self.credit_rule == "random-split":
            shares = split_value(value, len(embeddings), rng)
            probe = route_probe(g, embeddings, src, ctx.addrs, shares, rng)
            if not probe.success:
                return AttemptOutcome(False, probe.messages, probe.hop_delay_contribution, [], [])
            deltas = commit_probe(g, probe, shares)
            lengths = [len(p) for p, s in zip(probe.paths, shares) if s > 0 and p is not None]
            return AttemptOutcome(True, probe.messages, probe.hop_delay_contribution, lengths, deltas)

        # mpc-min: discover paths first, then let the landmarks fit shares.
        messages = 0
        walk_delay = 0
        paths: list[Path | None] = []
        for emb, addr in zip(embeddings, ctx.addrs):
            path, hops = _greedy_discover(g, emb, src, addr, rng)
            messages += 2 * hops
            walk_delay = max(walk_delay, 2 * hops)
            paths.append(path)
        acct = _mpc_accounting(embeddings, src, dst, include_src=False)
        if acct is None:
            return AttemptOutcome(False, messages, walk_delay, [], [])
        messages += acct[0]
        delay = walk_delay + acct[1]
        shares = mpc_min_assign(g, paths, value, rng)
        if shares is None:
            return AttemptOutcome(False, messages, delay, [], [])
        ok, _, _, reservations = _reserve_paths(g, paths, shares, charge_walk=False)
        if not ok:
            _rollback(g, reservations)
            return AttemptOutcome(False, messages, delay, [], [])
        deltas, lengths = _commit(g, paths, shares)
        return AttemptOutcome(True, messages, delay, lengths, deltas)


class StructuralExecutor(TransactionExecutor):
    """Landmark-centered and tree-only routing over fixed tree paths."""

    def __init__(self, path_rule: str, credit_rule: str):
        self.path_rule = path_rule
        self.credit_rule = credit_rule

    def _paths(self, embeddings, src, dst):
        if self.path_rule == "landmark-centered":
            return landmark_paths(embeddings, src, dst)
        return tree_only_paths(embeddings, src, dst)

    def begin(self, g, embeddings, src, dst, value, rng):
        ctx = TxContext()
        if self.credit_rule == "random-split":
            # Both endpoints announce their tree positions to the landmarks.
            for emb in embeddings:
                if emb.attached(src) and emb.attached(dst):
                    d_src, d_dst = emb.depth(src), emb.depth(dst)
                    ctx.setup_messages += d_src + d_dst
                    ctx.setup_delay = max(ctx.setup_delay, d_src, d_dst)
        return ctx

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        paths = self._paths(embeddings, src, dst)
        messages = 0
        delay = 0
        if self.credit_rule == "mpc-min":
            acct = _mpc_accounting(embeddings, src, dst, include_src=True)
            if acct is None:
                return AttemptOutcome(False, 0, 0, [], [])
            messages += acct[0]
            delay += acct[1]
            shares = mpc_min_assign(g, paths, value, rng)
            if shares is None:
                return AttemptOutcome(False, messages, delay, [], [])
        else:
            shares = split_value(value, len(embeddings), rng)
        ok, walk_messages, walk_delay, reservations = _reserve_paths(
            g, paths, shares, charge_walk=True
        )
        messages += walk_messages
        delay += walk_delay
        if not ok:
            _rollback(g, reservations)
            return AttemptOutcome(False, messages, delay, [], [])
        deltas, lengths = _commit(g, paths, shares)
        return AttemptOutcome(True, messages, delay, lengths, deltas)


class MaxFlowExecutor(TransactionExecutor):
    """Distributed Ford-Fulkerson as a (costly) routing policy."""

    def begin(self, g, embeddings, src, dst, value, rng):
        return TxContext()

    def attempt(self, g, embeddings, src, dst, value, ctx, rng):
        result = max_flow(g, src, dst, target=value)
        if result.value < value:
            return AttemptOutcome(False, result.messages, result.delay, [], [])
        reservations: list[tuple[NodeId, NodeId, int]] = []
        for path, amount in result.paths:
            for x, y in path:
                if not g.reserve(x, y, amount):
                    raise InternalError("max-flow decomposition oversubscribed a link")
                reservations.append((x, y, amount))
        deltas: list[LinkDelta] = []
        lengths: list[int] = []
        for path, amount in result.paths:
            deltas.extend(g.commit_payment(path, amount))
            lengths.append(len(path))
        return AttemptOutcome(True, result.messages, result.delay, lengths, deltas)


def make_executor(
    policy: RoutingPolicy, address_len: int = 16, addr_overhead: bool = True
) -> TransactionExecutor:
    if policy.path_rule == "max-flow":
        return MaxFlowExecutor()
    if policy.path_rule == "greedy-embedding":
        return GreedyExecutor(policy.credit_rule, address_len, addr_overhead)
    return StructuralExecutor(policy.path_rule, policy.credit_rule)
