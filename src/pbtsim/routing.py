"""Payment routing: share splitting, the greedy walk, and the settlement path.

A transaction of value c is split into one share per tree. Each nonzero
share walks greedily (``greedy_walk``) from the sender toward the
receiver's return address, at every hop restricted to neighbors that are
strictly closer by address distance and whose link holds enough
guaranteed available credit. Each tree's hops are reserved before the
next tree walks, so concurrent probes can never oversubscribe a link; if
any tree gets stuck, all reservations across all trees are rolled back.

``settle`` is the one loop that reserves, releases and commits: it asks a
route for each tree's hops in turn, reserves them, and commits every tree
or releases every reservation. ``route_probe`` passes it greedy walks;
paths known in advance (landmark, tree-only, min-based greedy discovery
and max-flow paths) are passed as ``given(paths)``. Min-based greedy
discovery is the same walk with share 1 and nothing reserved. Every
attempt, whatever its policy, is reported as one ``AttemptOutcome``.

Forwarders are modelled by plaintext prefix comparison against the
address's padded coordinate. Keyed hashing stays the privacy model
(``embedding.address_distance``): it yields the same distance except on a
2^-128 digest collision, which the tests check differentially.

``next_hop`` does not scan every neighbor. Each embedding keeps, per node,
a path-compressed trie over the coordinates of the node's graph neighbors
(``build_neighbor_index``), built the first time a walk reaches the node.
The target coordinate is walked down the trie, and only the neighbors that
can be closer than the current node are visited, nearest rings first. An
index is valid while the graph returns the same ``neighbors`` list
object it was built from (the graph replaces that list whenever the
neighbor set changes) and no neighbor's coordinate has changed: the
embedding records every node it attaches, detaches or rolls back in
``moved``, and ``next_hop`` drops the indexes of those nodes and their
neighbors before its next lookup. The hop and the random draws are those of
a plain scan in ascending neighbor id, which the tests keep as reference.

Message accounting is one message per link traversal, both for the probe
itself and for the success/failure report travelling the reverse path
(failure reports originate at the stuck node). The delay of a probe is the
longest such probe-plus-report chain over its trees.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .embedding import (
    DEFAULT_ADDRESS_LEN,
    Coordinate,
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


# A trie node is [depth, members, children]: the neighbors whose coordinate
# extends the node's prefix (of length depth), in (len(coord), id) order, and
# the next element after the prefix -> child trie node, or a bare neighbor id
# while only one member continues that way. Edges are path-compressed: a trie
# node exists only where members branch or end.
TrieNode = list


def build_neighbor_index(coords: dict[NodeId, Coordinate], nbrs: list[NodeId]) -> TrieNode:
    """Path-compressed trie over the coordinates of the attached nodes in nbrs.

    One pass: the attached neighbors are stable-sorted by coordinate length
    (nbrs is in ascending id) and inserted in that order, so appending keeps
    every member list in (len(coord), id) order. A lone member becomes a trie
    node when a second one arrives on its edge, at their common prefix.
    """
    members = [n for n in nbrs if n in coords]
    members.sort(key=lambda n: len(coords[n]))
    root: TrieNode = [0, members, {}]
    for n in members:
        c = coords[n]
        lc = len(c)
        node = root
        j = 0
        while j < lc:
            children = node[2]
            child = children.get(c[j])
            if child is None:
                children[c[j]] = n
                break
            if child.__class__ is list:
                k = child[0]
                rep = coords[child[1][0]]
            else:
                rep = coords[child]
                k = len(rep)
            end = k if k < lc else lc
            p = j + 1
            while p < end and rep[p] == c[p]:
                p += 1
            if p == k and child.__class__ is list:
                child[1].append(n)
                node = child
                j = k
                continue
            # n leaves the edge to child at depth p: a trie node there holds both.
            split: TrieNode = [p, child[1] + [n] if child.__class__ is list else [child, n], {}]
            if p < k:
                split[2][rep[p]] = child
            if p < lc:
                split[2][c[p]] = n
            children[c[j]] = split
            break
    return root


def _drop_moved(g: CreditGraph, emb: Embedding) -> None:
    """Drop the index of every moved node and of each of its graph neighbors."""
    index = emb.neighbor_index
    adj = g._adj
    for x in emb.moved:
        index.pop(x, None)
        for n in adj.get(x, ()):
            index.pop(n, None)
    emb.moved.clear()


def next_hop(
    g: CreditGraph,
    emb: Embedding,
    current: NodeId,
    addr: ReturnAddress,
    share: int,
    rng: random.Random,
) -> NodeId | None:
    """Neighbor strictly closer to the address with w_A >= share, or None.

    With share 0 the credit constraint is vacuous and this is pure greedy
    embedding routing. Among equally-close candidates one is picked
    uniformly at random, from the candidates in ascending id. The distance
    of coordinate c to the address is ``len(c) + L - 2 * j`` with L the
    padded length and j the common prefix length of c and the padded
    coordinate ``addr.elements``, exactly ``address_distance`` without its
    hashing.

    Only neighbors that can be closer are visited. The target is walked down
    the current node's neighbor index (``build_neighbor_index``); the ring at
    depth j (the members sharing exactly j elements with it) is scanned from
    the deepest up, each in coordinate-length order, up to the first member
    farther than the best distance so far. The walk up stops at the first
    ring whose length bound is below its depth. The credit check runs on the
    members within the bound only.

    The index of a node is built when a walk first reaches it and holds the
    ``g.neighbors`` list it was built from; it is rebuilt when the
    graph returns another list (the neighbor set changed). ``Embedding``
    marks every node whose coordinate changes as moved while some index
    exists, and the indexes of moved nodes and their neighbors are dropped
    here before the lookup.
    """
    coords = emb.coord
    cur_coord = coords.get(current)
    if cur_coord is None:
        return None
    if emb.moved:
        _drop_moved(g, emb)
    nbrs = g.neighbors(current)
    index = emb.neighbor_index
    entry = index.get(current)
    if entry is None or entry[0] is not nbrs:
        entry = index[current] = (nbrs, build_neighbor_index(coords, nbrs))
    target = addr.elements
    target_len = len(target)
    # Rings from the root down: trie nodes on the target's path, then the
    # members that branch off inside the last edge, as (depth, members). The
    # edge match is inlined here and in build_neighbor_index: a shared helper
    # made next_hop on the churn workload about a sixth slower.
    rings: list = []
    node = entry[1]
    while True:
        rings.append(node)
        j = node[0]
        if j >= target_len:
            break
        child = node[2].get(target[j])
        if child is None:
            break
        if child.__class__ is list:
            k = child[0]
            rep = coords[child[1][0]]
        else:
            rep = coords[child]
            k = len(rep)
        end = k if k < target_len else target_len
        p = j + 1
        while p < end and rep[p] == target[p]:
            p += 1
        if p == k and child.__class__ is list:
            node = child
            continue
        rings.append((p, child[1] if child.__class__ is list else (child,)))
        break
    links = g._links
    # Farthest distance still of interest: one below the current node's until
    # a candidate is found, then the candidates' distance.
    top = coord_distance(cur_coord, target) - 1
    ties: list[NodeId] = []
    for ring in reversed(rings):
        j = ring[0]
        bound = top - target_len + 2 * j  # a member within it has length <= bound
        if bound < j:
            break  # no member is that short, here or in a shallower ring
        t_j = target[j] if j < target_len else None
        for n in ring[1]:
            c = coords[n]
            lc = len(c)
            if lc > bound:
                break
            if lc > j and c[j] == t_j:
                continue  # shares more than j elements: a deeper ring's member
            if share > 0:
                link = links.get((current, n))
                if link is None or link[0] - link[1] < share:
                    continue
            d = lc + target_len - 2 * j
            if ties and d == top:
                ties.append(n)
            else:
                top = d
                ties = [n]
                bound = top - target_len + 2 * j
    if not ties:
        return None
    if len(ties) == 1:
        return ties[0]
    ties.sort()
    return ties[rng.randrange(len(ties))]


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
    budget = len(g.nodes)
    path: Path = []
    cur = src
    while not addr.is_receiver(emb.coord.get(cur)):
        nxt = next_hop(g, emb, cur, addr, share, rng)
        if nxt is None:
            return path, False
        path.append((cur, nxt))
        cur = nxt
        if len(path) > budget:
            raise InternalError(f"hop budget {budget} exhausted in tree {emb.tree_index}")
    return path, True


Route = Callable[[int, int], tuple[Path, bool]]  # (tree, share) -> (hops, reaches the receiver)


def given(paths: list[Path | None]) -> Route:
    """The route of paths known in advance; a missing path reaches nobody."""
    return lambda i, share: ([], False) if paths[i] is None else (paths[i], True)


def settle(
    g: CreditGraph, shares: list[int], route: Route
) -> tuple[bool, list[int], list[LinkDelta], list[int]]:
    """Reserve every nonzero share along its tree's route, then commit all or release all.

    The one loop that writes the ledger. Tree i's route is asked for its
    hops only after the earlier trees' hops are reserved, so a greedy walk
    sees those reservations; a share-0 tree is not asked. Each route is
    reserved hop by hop up to the first refusal, which fails its tree.
    Every tree is tried even after a failure, as a walk up to its last hop
    is still paid for. Returns (settled, hops reserved per tree, weight
    deltas, path lengths); the last two are empty unless settled.
    """
    taken: list[tuple[Path, int, int]] = []  # (path, share, hops reserved)
    hops: list[int] = []
    ok = True
    for i, share in enumerate(shares):
        if share <= 0:
            hops.append(0)
            continue
        path, complete = route(i, share)
        reserved = 0
        for x, y in path:
            if not g.reserve(x, y, share):
                break
            reserved += 1
        ok = ok and complete and reserved == len(path)
        hops.append(reserved)
        taken.append((path, share, reserved))
    if not ok:
        for path, share, reserved in taken:
            for x, y in path[:reserved]:
                g.release(x, y, share)
        return False, hops, [], []
    deltas: list[LinkDelta] = []
    for path, share, _ in taken:
        deltas.extend(g.commit_payment(path, share))
    return True, hops, deltas, [len(path) for path, _, _ in taken]


@dataclass
class AttemptOutcome:
    """One payment attempt: whether it settled, its messages and its delay.

    A settled attempt also carries the length of each path it paid along
    and the weight deltas that undo it; a failed one has neither.
    """

    success: bool
    messages: int
    delay: int
    path_lengths: list[int] = field(default_factory=list)
    weight_deltas: list[LinkDelta] = field(default_factory=list)


def route_probe(
    g: CreditGraph,
    embeddings: list[Embedding],
    src: NodeId,
    addrs: list[ReturnAddress | None],
    shares: list[int],
    rng: random.Random,
) -> AttemptOutcome:
    """Settle the shares along greedy walks from src toward the addresses.

    The walks are the route passed to ``settle``: tree i walks its share
    only after the earlier trees' hops, a stuck tree's partial hops
    included, are reserved. Trees with a zero share contribute no path and
    no messages; an unattached endpoint fails its tree at src without
    messages. A failure releases all reservations and keeps the messages
    and delay already spent. The walk checks credit before each hop, so a
    refused reservation is an ``InternalError``.
    """
    if not (len(addrs) == len(shares) == len(embeddings)):
        raise ConfigError("addrs, shares and embeddings must align")
    walked = [0] * len(shares)

    def walk(i: int, share: int) -> tuple[Path, bool]:
        path, reached = greedy_walk(g, embeddings[i], src, addrs[i], share, rng)
        walked[i] = len(path)
        return path, reached

    settled, hops, deltas, lengths = settle(g, shares, walk)
    for emb, reserved, length in zip(embeddings, hops, walked):
        if reserved != length:
            raise InternalError(f"reserve refused after a credit check in tree {emb.tree_index}")
    return AttemptOutcome(settled, 2 * sum(hops), 2 * max(hops, default=0), lengths, deltas)


def gen_addresses(
    embeddings: list[Embedding],
    dst: NodeId,
    rng: random.Random,
) -> list[ReturnAddress | None]:
    """Fresh return addresses for dst, one per tree it is attached in.

    Each address is padded to the smallest multiple of DEFAULT_ADDRESS_LEN
    that holds dst's coordinate (at least one multiple), so trees of any
    depth can be routed.
    """
    addrs: list[ReturnAddress | None] = []
    for emb in embeddings:
        coord = emb.coord.get(dst)
        if coord is None:
            addrs.append(None)
            continue
        delta = DEFAULT_ADDRESS_LEN * max(1, -(-len(coord) // DEFAULT_ADDRESS_LEN))
        addrs.append(gen_return_address(coord, delta, rng, emb.element_bits))
    return addrs
