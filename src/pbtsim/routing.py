"""Payment routing: random share splitting plus greedy embedded forwarding.

A transaction of value c is split into one share per tree. Each nonzero
share walks greedily from the sender toward the receiver's return address,
at every hop restricted to neighbors that are strictly closer by address
distance and whose link holds enough guaranteed available credit.
Every traversed link is reserved for the share before moving on, so
concurrent probes can never oversubscribe a link; if any tree gets stuck,
all reservations across all trees are rolled back.

Forwarders are modelled by plaintext prefix comparison against the
address's padded coordinate. Keyed hashing stays the privacy model
(``embedding.address_distance``): it yields the same distance except on a
2^-128 digest collision, which the tests check differentially.

Message accounting is one message per link traversal, both for the probe
itself and for the success/failure report travelling the reverse path
(failure reports originate at the stuck node). The hop-delay contribution
of an attempt is the longest such probe-plus-report chain over its trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .embedding import (
    DEFAULT_ADDRESS_LEN,
    Embedding,
    ReturnAddress,
    address_distance,  # noqa: F401  the hashed model; bench/harness.py traces it here
    coord_distance,
    gen_return_address,
)
from .errors import ConfigError, InternalError
from .graph import CreditGraph, LinkDelta, NodeId

Path = list[tuple[NodeId, NodeId]]


def split_value(c: int, k: int, rng: random.Random) -> list[int]:
    """Split c micro-units into k nonnegative shares, uniform on the simplex.

    Draws k-1 cut points uniformly over [0, c] and takes consecutive
    differences, so shares always sum to c exactly.
    """
    if k < 1:
        raise ConfigError("need at least one share")
    if c < 0:
        raise ConfigError("value must be nonnegative")
    if k == 1:
        return [c]
    cuts = sorted(rng.randint(0, c) for _ in range(k - 1))
    bounds = [0] + cuts + [c]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def next_hop(
    g: CreditGraph,
    emb: Embedding,
    current: NodeId,
    addr: ReturnAddress,
    share: int,
    rng: random.Random,
    dist_cache: dict[NodeId, int] | None = None,
) -> NodeId | None:
    """Neighbor strictly closer to the address with w_A >= share, or None.

    With share 0 the credit constraint is vacuous and this is pure greedy
    embedding routing. Among equally-close candidates one is picked
    uniformly at random. The distance of coordinate c to the address is
    ``len(c) + len(addr.elements) - 2 * k`` with k the common prefix length
    of c and the padded coordinate ``addr.elements``, exactly
    ``address_distance`` without its hashing. ``dist_cache`` memoises it
    per node; it is valid for one probe within one tree and is supplied by
    the walk.
    """
    coords = emb.coord
    cur_coord = coords.get(current)
    if cur_coord is None:
        return None
    if dist_cache is None:
        dist_cache = {}
    target = addr.elements
    target_len = len(target)
    best_d = dist_cache.get(current)
    if best_d is None:
        best_d = dist_cache[current] = coord_distance(cur_coord, target)
    links = g._links
    ties: list[NodeId] = []
    for n in g.sorted_neighbors(current):
        coord = coords.get(n)
        if coord is None:
            continue
        d = dist_cache.get(n)
        if d is None:  # coord_distance(coord, target), inlined on the hot path
            k = 0
            for x, y in zip(coord, target):
                if x != y:
                    break
                k += 1
            d = dist_cache[n] = len(coord) + target_len - 2 * k
        # A farther neighbor can never become a candidate or a tie, so the
        # credit lookup is skipped for it.
        if d > best_d:
            continue
        if share > 0:
            entry = links.get((current, n))
            if entry is None or entry[0] - entry[1] < share:
                continue
        if d < best_d:
            best_d = d
            ties = [n]
        elif ties:
            ties.append(n)
    if not ties:
        return None
    return ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]


@dataclass
class ProbeResult:
    """Outcome of routing one share vector across all trees."""

    success: bool
    paths: list[Path | None]
    failed_at: list[NodeId | None]
    messages: int
    hop_delay_contribution: int
    reservations: list[tuple[NodeId, NodeId, int]] = field(default_factory=list)


def rollback_probe(g: CreditGraph, probe: ProbeResult) -> None:
    """Release every reservation a probe made."""
    for u, v, amount in probe.reservations:
        g.release(u, v, amount)
    probe.reservations.clear()


def route_probe(
    g: CreditGraph,
    embeddings: list[Embedding],
    src: NodeId,
    addrs: list[ReturnAddress | None],
    shares: list[int],
    rng: random.Random,
) -> ProbeResult:
    """Walk every nonzero share toward its address, reserving as it goes.

    Trees with a zero share contribute an empty path and no messages. The
    walk stops at the node whose coordinate matches the address's real
    prefix in full (the receiver). Any tree failure fails the probe and
    releases all reservations. A hop budget of |V| guards against a
    corrupted embedding; exhausting it is an internal error since greedy
    forwarding strictly decreases the distance every hop.
    """
    if not (len(addrs) == len(shares) == len(embeddings)):
        raise ConfigError("addrs, shares and embeddings must align")
    budget = len(g.nodes)
    paths: list[Path | None] = []
    failed_at: list[NodeId | None] = []
    reservations: list[tuple[NodeId, NodeId, int]] = []
    messages = 0
    delay = 0
    success = True
    for emb, addr, share in zip(embeddings, addrs, shares):
        if share == 0:
            paths.append([])
            failed_at.append(None)
            continue
        if addr is None or not emb.attached(src):
            # Unattached endpoint: immediate failure, no messages for this tree.
            paths.append(None)
            failed_at.append(src)
            success = False
            continue
        dist_cache: dict[NodeId, int] = {}
        path: Path = []
        cur = src
        stuck: NodeId | None = None
        while not addr.is_receiver(emb.coord.get(cur)):
            nxt = next_hop(g, emb, cur, addr, share, rng, dist_cache)
            if nxt is None:
                stuck = cur
                break
            if not g.reserve(cur, nxt, share):
                raise InternalError(f"reserve failed after credit check on ({cur}, {nxt})")
            reservations.append((cur, nxt, share))
            path.append((cur, nxt))
            cur = nxt
            if len(path) > budget:
                raise InternalError(f"hop budget {budget} exhausted in tree {emb.tree_index}")
        hops = len(path)
        messages += 2 * hops
        delay = max(delay, 2 * hops)
        if stuck is None:
            paths.append(path)
            failed_at.append(None)
        else:
            paths.append(None)
            failed_at.append(stuck)
            success = False
    result = ProbeResult(success, paths, failed_at, messages, delay, reservations)
    if not success:
        rollback_probe(g, result)
    return result


@dataclass
class TransactionOutcome:
    """What one routed transaction did, for metric collection."""

    success: bool
    messages: int
    hop_delay: int
    path_lengths: list[int]
    attempts_used: int
    weight_deltas: list[LinkDelta]


def gen_addresses(
    embeddings: list[Embedding],
    dst: NodeId,
    rng: random.Random,
    delta: int = DEFAULT_ADDRESS_LEN,
) -> list[ReturnAddress | None]:
    """Fresh return addresses for dst, one per tree it is attached in."""
    return [
        gen_return_address(emb.coord[dst], delta, rng, emb.element_bits)
        if emb.attached(dst)
        else None
        for emb in embeddings
    ]


def commit_probe(g: CreditGraph, probe: ProbeResult, shares: list[int]) -> list[LinkDelta]:
    """Settle a successful probe: commit every nonzero-share path."""
    deltas: list[LinkDelta] = []
    for path, share in zip(probe.paths, shares):
        if share > 0 and path:
            deltas.extend(g.commit_payment(path, share))
    probe.reservations.clear()
    return deltas


def route_pay(
    g: CreditGraph,
    embeddings: list[Embedding],
    src: NodeId,
    dst: NodeId,
    c: int,
    attempts: int,
    rng: random.Random,
    delta: int = DEFAULT_ADDRESS_LEN,
    addr_overhead: bool = True,
) -> TransactionOutcome:
    """Route and settle one payment with immediate retries.

    The receiver generates one fresh address per tree up front (modeled as
    an out-of-band delivery of one message per tree and one delay hop,
    configurable off). Each attempt draws a fresh share split and probes;
    the first success commits. Failed attempts leave no trace on the graph.
    """
    if src == dst:
        raise ConfigError("self-transaction rejected")
    if c <= 0:
        raise ConfigError("transaction value must be positive")
    if attempts < 1:
        raise ConfigError("need at least one attempt")
    addrs = gen_addresses(embeddings, dst, rng, delta)
    setup_messages = len(embeddings) if addr_overhead else 0
    setup_delay = 1 if addr_overhead else 0
    messages = setup_messages
    probe: ProbeResult | None = None
    for attempt in range(1, attempts + 1):
        shares = split_value(c, len(embeddings), rng)
        probe = route_probe(g, embeddings, src, addrs, shares, rng)
        messages += probe.messages
        if probe.success:
            deltas = commit_probe(g, probe, shares)
            lengths = [len(p) for p, s in zip(probe.paths, shares) if s > 0 and p is not None]
            return TransactionOutcome(
                True, messages, setup_delay + probe.hop_delay_contribution,
                lengths, attempt, deltas,
            )
    assert probe is not None
    return TransactionOutcome(
        False, messages, setup_delay + probe.hop_delay_contribution, [], attempts, []
    )
