"""Payment routing: share splitting, the greedy walk, and the settlement path.

A transaction of value c is split into one share per tree. Each nonzero
share walks greedily (``greedy_walk``) from the sender toward the
receiver's return address, at every hop restricted to neighbors that are
strictly closer by address distance and whose link holds enough
guaranteed available credit. Each tree's hops are reserved before the
next tree walks, so concurrent probes can never oversubscribe a link; if
any tree gets stuck, all reservations across all trees are rolled back.

Every policy settles through ``reserve_path`` (until a hop is refused),
``release`` and ``commit_paths``, or ``settle``, which combines them for
paths known in advance; min-based greedy discovery is the same walk with
share 1 and nothing reserved.

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


Held = list[tuple[NodeId, NodeId, int]]  # (u, v, amount) reservations to release


def greedy_walk(
    g: CreditGraph,
    emb: Embedding,
    src: NodeId,
    addr: ReturnAddress | None,
    share: int,
    rng: random.Random,
) -> tuple[Path, bool]:
    """Walk share greedily from src toward addr; (hops taken, receiver reached).

    An unattached endpoint (no address, or src outside the tree) takes no hop.
    The walk reserves nothing. Greedy distance strictly decreases, so it never
    revisits a node or checks a link it has taken: reserving its hops afterwards
    equals reserving them one by one. A |V| hop budget guards the embedding.
    """
    if addr is None or not emb.attached(src):
        return [], False
    dist_cache: dict[NodeId, int] = {}
    budget = len(g.nodes)
    path: Path = []
    cur = src
    while not addr.is_receiver(emb.coord.get(cur)):
        nxt = next_hop(g, emb, cur, addr, share, rng, dist_cache)
        if nxt is None:
            return path, False
        path.append((cur, nxt))
        cur = nxt
        if len(path) > budget:
            raise InternalError(f"hop budget {budget} exhausted in tree {emb.tree_index}")
    return path, True


def reserve_path(g: CreditGraph, path: Path, share: int, held: Held) -> bool:
    """Reserve share on each hop in order, recording it in held; False at a refusal."""
    for x, y in path:
        if not g.reserve(x, y, share):
            return False
        held.append((x, y, share))
    return True


def release(g: CreditGraph, held: Held) -> None:
    """Return every held reservation to the ledger and empty the list."""
    for u, v, amount in held:
        g.release(u, v, amount)
    held.clear()


def commit_paths(
    g: CreditGraph, paths: list[Path | None], shares: list[int]
) -> tuple[list[LinkDelta], list[int]]:
    """Settle every nonzero-share path in tree order; (weight deltas, path lengths)."""
    deltas: list[LinkDelta] = []
    lengths: list[int] = []
    for path, share in zip(paths, shares):
        if share > 0 and path is not None:
            deltas.extend(g.commit_payment(path, share))
            lengths.append(len(path))
    return deltas, lengths


def settle(
    g: CreditGraph, paths: list[Path | None], shares: list[int]
) -> tuple[bool, list[int], list[LinkDelta], list[int]]:
    """Reserve every nonzero share along its path, then commit all or release all.

    Every tree is tried even after a refusal, as a walk up to the refused
    hop is still paid for; a missing path with a nonzero share reserves
    nothing. Returns (settled, hops reserved per tree, weight deltas, path
    lengths); the last two are empty unless settled.
    """
    held: Held = []
    hops: list[int] = []
    ok = True
    for path, share in zip(paths, shares):
        before = len(held)
        if share > 0:
            ok = path is not None and reserve_path(g, path, share, held) and ok
        hops.append(len(held) - before)
    if not ok:
        release(g, held)
        return False, hops, [], []
    deltas, lengths = commit_paths(g, paths, shares)
    return True, hops, deltas, lengths


@dataclass
class ProbeResult:
    """Outcome of routing one share vector across all trees."""

    success: bool
    paths: list[Path | None]
    failed_at: list[NodeId | None]
    messages: int
    hop_delay_contribution: int
    reservations: Held = field(default_factory=list)


def route_probe(
    g: CreditGraph,
    embeddings: list[Embedding],
    src: NodeId,
    addrs: list[ReturnAddress | None],
    shares: list[int],
    rng: random.Random,
) -> ProbeResult:
    """Walk every nonzero share toward its address and reserve its hops.

    Trees with a zero share contribute an empty path and no messages; an
    unattached endpoint fails its tree at src without messages. Each
    tree's hops, a stuck tree's partial hops included, are reserved before
    the next tree walks. Any tree failure fails the probe and releases all
    reservations.
    """
    if not (len(addrs) == len(shares) == len(embeddings)):
        raise ConfigError("addrs, shares and embeddings must align")
    paths: list[Path | None] = []
    failed_at: list[NodeId | None] = []
    held: Held = []
    messages = 0
    delay = 0
    success = True
    for emb, addr, share in zip(embeddings, addrs, shares):
        if share == 0:
            paths.append([])
            failed_at.append(None)
            continue
        path, reached = greedy_walk(g, emb, src, addr, share, rng)
        if not reserve_path(g, path, share, held):
            raise InternalError(f"reserve refused after a credit check in tree {emb.tree_index}")
        hops = len(path)
        messages += 2 * hops
        delay = max(delay, 2 * hops)
        if reached:
            paths.append(path)
            failed_at.append(None)
        else:
            paths.append(None)
            failed_at.append(path[-1][1] if path else src)
            success = False
    result = ProbeResult(success, paths, failed_at, messages, delay, held)
    if not success:
        release(g, held)
    return result


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
